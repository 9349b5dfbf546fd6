"""The service façade: one object in front of the whole distribution stack.

A :class:`Service` is what application code holds after asking a
:class:`~repro.api.session.Session` for a named remote object.  It exposes
three call forms, uniform across every
:class:`~repro.api.policy.ServicePolicy`:

* **plain calls** — ``svc.submit(sku, 1, 10)`` behaves like calling the
  object directly: it returns the value (or raises the call's error),
  whatever batching/pipelining/failover machinery ran underneath;
* **futures** — ``svc.future.submit(sku, 1, 10)`` (or
  ``svc.future("submit", sku, 1, 10)``) enqueues the call and returns an
  :class:`~repro.runtime.pipelining.InvocationFuture` immediately;
* **flush/drain** — ``svc.flush()`` ships any buffered window now,
  ``svc.drain()`` additionally waits out everything in flight.

The service keeps no distribution logic of its own: its
:class:`~repro.api.dispatch` pipe — chosen by the session from the policy —
does the composing.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.runtime.caching import cached_enqueue
from repro.runtime.pipelining import InvocationFuture
from repro.runtime.remote_ref import RemoteRef


class FutureView:
    """The ``.future`` face of a service: calls return futures, not values.

    Usable both attribute-style (``svc.future.submit(...)``) and call-style
    (``svc.future("submit", ...)``).  Futures resolve when their window
    round-trips; ``result()`` drives the underlying pipe as needed.
    """

    def __init__(self, service: "Service") -> None:
        self._service = service

    def __call__(self, member: str, /, *args: Any, **kwargs: Any) -> InvocationFuture:
        """Enqueue ``member`` and return its future immediately."""
        return self._service._enqueue(member, args, kwargs)

    def __getattr__(self, member: str) -> Any:
        if member.startswith("_"):
            raise AttributeError(member)

        def enqueue(*args: Any, **kwargs: Any) -> InvocationFuture:
            return self._service._enqueue(member, args, kwargs)

        enqueue.__name__ = member
        # Memoize so hot submission loops build one closure per member, not
        # one per call (the closure reads the pipe dynamically, so caching
        # is safe across rebinds).
        self.__dict__[member] = enqueue
        return enqueue


class Service:
    """A policy-configured façade over one named remote (or replicated) object.

    Built by :meth:`~repro.api.session.Session.service`; not constructed
    directly.  Attribute calls dispatch through the policy's pipe::

        svc = session.service("orders", ServicePolicy(batch_window=32))
        order_id = svc.submit("sku-1", 2, 10)          # plain call
        futures = [svc.future.submit(s, 1, 10) for s in skus]
        svc.flush()                                     # one message per window
        ids = [f.result() for f in futures]

    Attribute-style calls cannot reach remote members whose names collide
    with the façade's own attributes (``call``, ``flush``, ``drain``,
    ``future``, ``pending``, ``name``, ``policy``, ``group``, ``session``,
    ``scheduler``, ``reference``, ``cache``) — use the explicit forms
    ``svc.call("flush")`` / ``svc.future("flush")`` for those.  Dispatch
    through a closed session raises
    :class:`~repro.api.errors.PolicyError`.
    """

    def __init__(
        self,
        session: Any,
        name: str,
        policy: Any,
        reference: RemoteRef,
        group: Any = None,
        cache: Any = None,
    ) -> None:
        self.session = session
        #: The well-known name this service is bound to.
        self.name = name
        #: The declarative :class:`~repro.api.policy.ServicePolicy` in force.
        self.policy = policy
        #: The replica group when the policy replicates, else ``None``.
        self.group = group
        self._reference = reference
        #: The client-side :class:`~repro.runtime.caching.ResultCache` when
        #: the policy caches, else ``None``.
        self._cache = cache
        self._pipe = session._build_pipe(self)
        self._future_view = FutureView(self)

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------

    @property
    def reference(self) -> RemoteRef:
        """The current remote reference.

        The session's rebind listener keeps this fresh whenever the name
        moves: a failover rebinds the replica group's name, which is the
        service's name, so traffic enqueued after a promotion goes straight
        to the new primary.
        """
        return self._reference

    # ------------------------------------------------------------------
    # the three call forms
    # ------------------------------------------------------------------

    def call(self, member: str, /, *args: Any, **kwargs: Any) -> Any:
        """Invoke ``member`` and return its value (the plain-call form).

        On a batched or pipelined service the buffered window is shipped as
        needed for this call's result to materialise; a cache hit's value
        comes back as is, without a future.
        """
        if self._cache is None:
            return self._pipe.enqueue(member, args, kwargs).result()
        hit, found = self._cached(member, args, kwargs)
        return found if hit else found.result()

    def _enqueue(self, member: str, args: tuple, kwargs: dict) -> InvocationFuture:
        """Dispatch one call through the cache (if any) and the policy's pipe."""
        if self._cache is None:
            return self._pipe.enqueue(member, args, kwargs)
        hit, found = self._cached(member, args, kwargs)
        if not hit:
            return found
        future = InvocationFuture(member)
        future._resolve(found)
        return future

    def _cached(self, member: str, args: tuple, kwargs: dict) -> tuple:
        """One call of a cached service: ``(True, value)`` for a hit, else
        ``(False, future)``.

        Every call form — plain, ``.future``, attribute-style, an adopted
        handle's — comes through here: one
        :meth:`~repro.runtime.caching.ResultCache.lookup`, and on a miss or a
        write :func:`~repro.runtime.caching.cached_enqueue` (the one place the
        coherence protocol lives), so caching behaves identically whatever
        pipe the policy composed.
        """
        cache = self._cache
        reference = self.reference
        served = cache.lookup(reference, member, args, kwargs)
        if served[0]:
            return served
        return False, cached_enqueue(
            cache, reference, member, args, kwargs, self._pipe.enqueue, served[1]
        )

    def __getattr__(self, member: str) -> Any:
        if member.startswith("_"):
            raise AttributeError(member)

        def invoke(*args: Any, **kwargs: Any) -> Any:
            return self.call(member, *args, **kwargs)

        invoke.__name__ = member
        # One closure per member, not one per call (reads the pipe via
        # self.call dynamically, so caching is safe across rebinds).
        self.__dict__[member] = invoke
        return invoke

    @property
    def future(self) -> FutureView:
        """The future-returning face of this service."""
        return self._future_view

    def flush(self) -> None:
        """Ship any buffered window of calls now."""
        self._pipe.flush()

    def drain(self) -> None:
        """Flush, then wait (in simulated time) until nothing is in flight."""
        self._pipe.drain()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def cache(self) -> Optional[Any]:
        """This service's result cache (``None`` unless the policy caches).

        Exposes the hit/miss/invalidation counters benchmarks consume.
        """
        return self._cache

    def _on_reference_moved(self, old: Optional[RemoteRef]) -> None:
        """Session rebind hook: flush cache entries held against the old ref."""
        if self._cache is not None and old is not None:
            self.session._flush_cached_reference(old)

    @property
    def scheduler(self) -> Any:
        """The pipeline scheduler carrying this service's traffic.

        Shared with every service of the same pipelined policy shape; private
        to a batched or direct service, where a window of one makes the
        counters read 0 out of order, ``max_in_flight`` 1 and depth 1.0.
        Exposes the measured-depth and retry counters
        (``observed_pipeline_depth``, ``calls_retried``, ``calls_redirected``,
        ``out_of_order_completions``, ...) that benchmarks consume.
        """
        return self._pipe.scheduler

    @property
    def pending(self) -> int:
        """Calls enqueued through this service and not yet resolved."""
        return self._pipe.pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Service {self.name!r} policy={self.policy!r} ref={self._reference}>"
