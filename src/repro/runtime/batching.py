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

A transformed object gets the same engine — and caching, replication, the
interceptor chain and tracing with it — by being adopted:
``session.service(name, policy, impl=handle)``.

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
from repro.core.metaobject import Proxy, metaobject_of, unwrap
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
            # A rebindable handle fabricates a delegate for ANY attribute name,
            # so it is never asked: only the proxy it is (bound to) has a space.
            proxy = unwrap(target)
            space = proxy._space if isinstance(proxy, Proxy) else None
        if space is None:
            raise InvocationError(
                "BatchingProxy could not determine the calling address space; "
                "pass space=... explicitly"
            )
        #: The reference calls are submitted to; after a move the scheduler
        #: resolves it through the forward table when it ships them.
        self._reference = reference
        if invoker is None:
            # A handle guarded by guard_handle carries its invoker in the
            # metaobject's slot; batching through such a handle keeps its
            # fault tolerance instead of silently bypassing it.
            candidate = getattr(metaobject_of(target), "remote_invoker", None)
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
        deadline — see :class:`~repro.core.interception.CallContext`) ships
        with the call inside its batch message, so the serving space's
        chains see the same control fields the client chain stamped.
        """
        future = self.scheduler.submit_with_context(
            self._reference, member, args, kwargs, context
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
