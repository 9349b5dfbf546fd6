"""Client-side batching of remote invocations: ergonomic views of the engine.

:meth:`~repro.runtime.address_space.AddressSpace.invoke_remote_many` ships N
calls in one framed network message;
:class:`~repro.runtime.pipelining.PipelineScheduler` is the engine that
buffers, ships, retries and settles them.  This module supplies the layer
application code touches:

* :class:`BatchResult` — the per-call outcome slot of a batch, isolating
  application errors so one failing call does not poison its neighbours.
* :class:`BatchingProxy` — wraps a generated proxy, a rebindable handle or a
  raw :class:`~repro.runtime.remote_ref.RemoteRef` and turns attribute calls
  into buffered invocations with automatic flushing.  Every call returns an
  :class:`~repro.runtime.pipelining.InvocationFuture` immediately.
* :class:`BatchingDispatchMixin` — the same, mixed into generated
  batching-aware proxies.

Usage — normally via the façade, which composes this module internally::

    svc = session.service("store", ServicePolicy(batch_window=32), ...)
    pending = [svc.future.submit(sku, 1, 10) for sku in skus]  # no round trips
    svc.flush()                                    # one message per window
    ids = [p.result() for p in pending]            # or p.result() auto-flushes

A :class:`BatchingProxy` is a view of a scheduler with a window of one: calls
are issued in order, each window ships synchronously as one message, and one
response message resolves the whole window.  A transport-level failure (drop,
partition, unreachable node) fails the batch atomically — every future in the
window observes the same network error, and no partial results are surfaced
— unless the proxy carries a
:class:`~repro.runtime.faulttolerance.FaultTolerantInvoker` (installed
explicitly via ``retry_policy=...`` or discovered on a handle guarded by
:func:`~repro.runtime.faulttolerance.guard_handle`), in which case the
scheduler retries per that invoker's policy before the error is final.  For
out-of-order completion across several in-flight batches, use a
:class:`~repro.runtime.pipelining.PipelineScheduler` with a wider window.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro._errors import InvocationError
from repro.runtime.faulttolerance import NO_RETRY, FaultTolerantInvoker, RetryPolicy
from repro.runtime.pipelining import BatchResult, InvocationFuture, batch_results
from repro.runtime.remote_ref import RemoteRef, reference_of


class BatchingProxy:
    """Buffers calls to one remote object and ships them as batches.

    Wrap any generated proxy, rebindable handle or raw reference::

        batch = BatchingProxy(store, max_batch=32)
        pending = [batch.submit(sku, 1) for sku in skus]   # no round trips yet
        batch.flush()                                      # one message, N calls
        ids = [p.result() for p in pending]

    Calls auto-flush whenever the buffer reaches ``max_batch``, so a tight
    loop of M calls costs ``ceil(M / max_batch)`` round trips.  Used as a
    context manager, the remaining tail flushes on clean exit.

    Buffered members are assumed to be independent: a later call must not
    need the return value of an earlier unflushed one (it can, however,
    observe its server-side effects, since batches execute in order).
    """

    def __init__(
        self,
        target: Any,
        *,
        space: Any = None,
        max_batch: int = 32,
        transport: Optional[str] = None,
        invoker: Optional[FaultTolerantInvoker] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if invoker is not None and retry_policy is not None:
            raise InvocationError("pass either invoker or retry_policy, not both")
        if isinstance(target, RemoteRef):
            reference = target
        else:
            reference = reference_of(target)
        if reference is None:
            raise InvocationError(
                "BatchingProxy needs a remote reference: pass a proxy, a handle "
                "bound to one, or a RemoteRef"
            )
        if space is None:
            space = self._space_behind(target)
        if space is None:
            raise InvocationError(
                "BatchingProxy could not determine the calling address space; "
                "pass space=... explicitly"
            )
        self._reference = reference
        #: The wrapped proxy/handle, kept so rebinds are picked up as calls
        #: are enqueued; ``None`` when a raw reference was wrapped.
        self._target = None if isinstance(target, RemoteRef) else target
        self._space = space
        if invoker is None:
            # A handle guarded by guard_handle carries its invoker on the
            # metaobject; batching through such a handle keeps its fault
            # tolerance instead of silently bypassing it.
            meta = getattr(target, "__meta__", None)
            candidate = getattr(meta, "remote_invoker", None) if meta is not None else None
            if isinstance(candidate, FaultTolerantInvoker):
                invoker = candidate
        if invoker is None:
            invoker = FaultTolerantInvoker(space, policy=retry_policy or NO_RETRY)
        #: The invoker whose policy, failure log and replica manager the
        #: proxy's windows are shipped under.
        self._invoker = invoker
        self.max_batch = max_batch
        #: The window-of-one engine doing the buffering, shipping and
        #: retrying; read ``calls_submitted`` / ``batches_shipped`` off it.
        self.scheduler = invoker.scheduler(space, max_batch=max_batch, transport=transport)
        #: Futures enqueued and not yet shipped (the tail window).
        self._window: List[InvocationFuture] = []

    @staticmethod
    def _space_behind(target: Any) -> Any:
        # A rebindable handle fabricates a delegate for ANY attribute name,
        # so a bare getattr can hand back a callable instead of an address
        # space; accept only candidates that quack like one.
        meta = getattr(target, "__meta__", None)
        candidates = [
            getattr(target, "_space", None),
            getattr(getattr(meta, "target", None), "_space", None),
        ]
        for candidate in candidates:
            if candidate is not None and hasattr(candidate, "invoke_remote_many"):
                return candidate
        return None

    def _refresh_reference(self) -> RemoteRef:
        """Re-resolve the target's reference before enqueueing a call.

        A rebindable handle may have been migrated (e.g. by the adaptive
        manager) since this proxy was built; shipping to the reference
        captured at construction would hit the retired export.  Raw
        references are immutable and used as-is.
        """
        if self._target is None:
            return self._reference
        reference = reference_of(self._target)
        if reference is None:
            # The handle may have been rebound to a local implementation;
            # reuse (or mint) its export from the space it now lives in.
            meta = getattr(self._target, "__meta__", None)
            implementation = meta.target if meta is not None else None
            if implementation is not None:
                reference = self._space.reference_for(implementation)
                if reference is None and getattr(meta, "node_id", None) == getattr(
                    self._space, "node_id", None
                ):
                    reference = self._space.export(implementation)
        if reference is not None:
            self._reference = reference
        return self._reference

    # ------------------------------------------------------------------
    # enqueueing
    # ------------------------------------------------------------------

    def call(self, member: str, *args: Any, **kwargs: Any) -> InvocationFuture:
        """Queue one invocation; returns its future immediately."""
        return self.call_with_context(member, args, kwargs)

    def call_with_context(
        self,
        member: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        context: Optional[dict] = None,
    ) -> InvocationFuture:
        """Queue one invocation carrying a wire-context dict.

        The middleware-aware entry point: ``context`` (call id, tenant,
        deadline — see :class:`~repro.api.middleware.CallContext`) ships
        with the call inside its batch message, so the serving space's
        chains see the same control fields the client chain stamped.
        """
        future = self.scheduler.submit_with_context(
            self._refresh_reference(), member, args, kwargs, context
        )
        if future.done:
            # This call filled its window, which shipped and — behind a
            # window of one — settled: the tail is whatever did not.
            self._window = [queued for queued in self._window if not queued.done]
        else:
            self._window.append(future)
        return future

    def __getattr__(self, member: str) -> Any:
        if member.startswith("_"):
            raise AttributeError(member)

        def enqueue(*args: Any, **kwargs: Any) -> InvocationFuture:
            return self.call(member, *args, **kwargs)

        enqueue.__name__ = member
        return enqueue

    def __len__(self) -> int:
        return self.scheduler.outstanding

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------

    def flush(self) -> List[BatchResult]:
        """Ship every queued call as one batch and resolve its futures.

        Returns the batch's :class:`BatchResult` list.  A transport-level
        failure marks every future of the window with the network error and
        re-raises it — the batch fails atomically.  When the proxy carries a
        fault-tolerant invoker (explicit ``retry_policy=``/``invoker=``, or
        discovered on a guarded handle), the window retries per that policy
        before the error is considered final.
        """
        window = [queued for queued in self._window if not queued.done]
        self._window = []
        self.scheduler.flush()
        return batch_results(window)

    # ------------------------------------------------------------------
    # context manager
    # ------------------------------------------------------------------

    def __enter__(self) -> "BatchingProxy":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BatchingProxy {self._reference} queued={len(self)} "
            f"max_batch={self.max_batch}>"
        )


#: Control-plane member names of :class:`BatchingDispatchMixin`.  Generated
#: batch proxies must not let an interface method shadow these — a proxy
#: whose ``flush()`` silently buffered a remote ``flush`` call instead of
#: shipping the window would be a correctness trap.  Colliding remote
#: members stay reachable through ``_enqueue(name, args)``.
BATCH_PROXY_RESERVED = frozenset(
    {
        "flush",
        "attach",
        "detach",
        "bind",
        "remote_reference",
        "configure_batching",
        "pending_batched_calls",
        "enable_caching",
        "disable_caching",
    }
)


class BatchingDispatchMixin:
    """Buffered, future-based dispatch for generated batching-aware proxies.

    Generated ``A_O_BatchProxy_<T>`` classes mix this in: every interface
    method calls :meth:`_enqueue` instead of ``invoke_remote``, so calls are
    buffered and shipped ``max_batch`` at a time — no manual
    :class:`BatchingProxy` wrapping required.  Methods return
    :class:`~repro.runtime.pipelining.InvocationFuture` placeholders that
    resolve when their window round-trips (``result()`` auto-flushes).

    The proxy is *pipelining-aware* too: :meth:`attach` plugs in any engine
    with a ``submit(target, member, *args, **kwargs)`` method — typically a
    session's :class:`~repro.runtime.pipelining.PipelineScheduler` — and
    subsequent calls stream through it (sharded, windowed, out-of-order)
    instead of the proxy's own synchronous buffer.
    """

    def __init__(self, ref: Any = None, space: Any = None, max_batch: int = 32) -> None:
        # The buffer is built lazily on the first call, so an unbound proxy
        # costs nothing; rebinding resets it.
        self._ref = ref
        self._space = space
        self._max_batch = max_batch
        self._batcher = None
        self._engine = None

    def bind(self, ref: Any, space: Any):
        """Bind this proxy to a remote reference and the local address space.

        Anything still buffered for the previous binding ships first, so a
        rebind never strands unresolved futures.  Returns self.
        """
        self._discard_batcher()
        self._ref = ref
        self._space = space
        return self

    def remote_reference(self) -> Any:
        """The remote reference this proxy forwards to."""
        return self._ref

    def enable_caching(self, cache: Any, *, cacheable: Optional[Any] = None):
        """Serve repeated cacheable calls from ``cache`` instead of buffering.

        ``cache`` is a :class:`~repro.runtime.caching.ResultCache`.  Which
        members are safe to serve defaults to the generated proxy's
        cacheability metadata (``_repro_cacheable_members``, extracted from
        ``@cacheable`` markers and accessor getters); pass ``cacheable`` to
        override.  Non-cacheable calls through the proxy count as writes:
        they invalidate the cache's entries for the target before they are
        buffered, and cacheable lookups bypass the cache until the write's
        future resolves.  Returns self.
        """
        self._cache = cache
        if cacheable is not None:
            self._cache_members = frozenset(cacheable)
        else:
            self._cache_members = frozenset(
                getattr(type(self), "_repro_cacheable_members", ())
            ) | frozenset(cache.cacheable)
        # The cache itself re-checks cacheability on store/lookup; teach it
        # this proxy's members so the two gates agree.
        cache.cacheable = frozenset(cache.cacheable) | self._cache_members
        return self

    def disable_caching(self):
        """Detach the cache: every call buffers and ships again; returns self."""
        self._cache = None
        return self

    def configure_batching(self, *, max_batch: Optional[int] = None, engine: Any = None):
        """Set the buffer window and/or attach a pipelining engine; returns self."""
        if max_batch is not None:
            if max_batch < 1:
                raise InvocationError("max_batch must be at least 1")
            self._max_batch = max_batch
            self._discard_batcher()
        if engine is not None:
            self.attach(engine)
        return self

    def _discard_batcher(self) -> None:
        """Retire the current buffer, shipping anything still queued first.

        Reconfiguring or rebinding must not strand buffered calls: their
        futures would silently never resolve unless each ``result()`` were
        demanded explicitly.
        """
        if self._batcher is not None and len(self._batcher):
            self._batcher.flush()
        self._batcher = None

    def attach(self, engine: Any):
        """Route subsequent calls through ``engine`` (scheduler-style ``submit``).

        Anything still buffered locally ships first — switching engines must
        not strand earlier calls' futures.
        """
        if not hasattr(engine, "submit"):
            raise InvocationError(
                "a batching proxy engine needs a submit(target, member, *args) method"
            )
        self._discard_batcher()
        self._engine = engine
        return self

    def detach(self):
        """Return to the proxy's own synchronous batch buffer; returns self."""
        self._engine = None
        return self

    def _enqueue(self, member: str, args: tuple, kwargs: Optional[dict] = None):
        """Buffer one interface-method call; returns its future immediately.

        With a cache attached (:meth:`enable_caching`), the call funnels
        through :func:`~repro.runtime.caching.cached_enqueue` — the same
        coherence protocol the façade uses: cacheable calls are served
        locally on a hit (no round trip), fills are version-token guarded,
        and non-cacheable calls invalidate before they buffer.
        """
        kwargs = kwargs or {}
        cache = getattr(self, "_cache", None)
        if cache is None:
            return self._enqueue_uncached(member, args, kwargs)
        from repro.runtime.caching import cached_enqueue

        return cached_enqueue(
            cache, self._cache_members, self._ref, member, args, kwargs,
            self._enqueue_uncached,
        )

    def _enqueue_uncached(self, member: str, args: tuple, kwargs: dict):
        """Buffer one call through the engine or the proxy's own window."""
        if self._engine is not None:
            return self._engine.submit(self._ref, member, *args, **kwargs)
        if self._batcher is None:
            self._batcher = BatchingProxy(
                self._ref,
                space=self._space,
                max_batch=self._max_batch,
                transport=getattr(type(self), "_repro_transport", None),
            )
        return self._batcher.call(member, *args, **kwargs)

    def flush(self) -> None:
        """Ship every buffered call (own buffer or the attached engine's)."""
        if self._engine is not None and hasattr(self._engine, "flush"):
            self._engine.flush()
        if self._batcher is not None:
            self._batcher.flush()

    def pending_batched_calls(self) -> int:
        """Calls buffered locally and not yet shipped (0 with an engine attached)."""
        return len(self._batcher) if self._batcher is not None else 0
