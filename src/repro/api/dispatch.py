"""Call pipes: how a façade service turns method calls into network traffic.

A *pipe* is the strategy object behind one
:class:`~repro.api.service.Service`.  All three pipes share a tiny protocol —
``enqueue(member, args, kwargs) -> InvocationFuture``, ``flush()``,
``drain()`` — so the service's plain-call, ``.future`` and ``.flush()`` forms
work identically whatever the policy composed:

* :class:`DirectPipe` — synchronous per-call dispatch, optionally through a
  :class:`~repro.runtime.faulttolerance.FaultTolerantInvoker` (retries and
  replica failover).  ``ServicePolicy()`` with no batching/pipelining.
* :class:`BatchPipe` — calls buffer into windows of ``batch_window`` and ship
  as one message per window, synchronously.  Replaces hand-wired
  :class:`~repro.runtime.batching.BatchingProxy` composition.
* :class:`StreamPipe` — calls stream through the session's shared
  :class:`~repro.runtime.pipelining.PipelineScheduler`: sharded per node,
  up to ``pipeline_depth`` batches in flight, out-of-order completion,
  batch-aware retry and failover.  Replaces hand-wired scheduler composition.

The composition order the old quickstart spelled out by hand — replication
under fault tolerance under batching under pipelining — is encoded here once.
"""

from __future__ import annotations

from typing import Any, Optional

from repro._errors import InvocationError
from repro.api.middleware import CallContext, InterceptorChain
from repro.observability.tracing import SampleGate
from repro.runtime.batching import BatchingProxy
from repro.runtime.pipelining import InvocationFuture, PipelineScheduler


class DirectPipe:
    """Synchronous per-call dispatch (no batching, no pipelining).

    Every enqueued call performs its round trip immediately; the returned
    future is already resolved (or failed).  When the service's policy asks
    for retries — or its session carries a replica manager — calls route
    through a :class:`~repro.runtime.faulttolerance.FaultTolerantInvoker`,
    so transient drops retry and fatal failures of replicated targets chase
    the promoted replica.
    """

    def __init__(self, service: Any) -> None:
        self._service = service

    def enqueue(
        self, member: str, args: tuple, kwargs: dict, context: Optional[dict] = None
    ) -> InvocationFuture:
        """Invoke now; return the (already completed) future."""
        service = self._service
        session = service.session
        session._ensure_open()
        future = InvocationFuture(member)
        clock = session.space.network.clock
        future.submitted_at = clock.now
        invoker = session._current_invoker(service.policy)
        # The invoker retries/fails over internally; every *recovered*
        # failure record corresponds to one extra ship, so the log delta
        # recovers the true attempt count ("> 1 after a retry", per
        # InvocationFuture's contract).  Unrecovered records are terminal
        # and added no carrier.
        failures_before = invoker.log.recovered_failures if invoker is not None else 0
        try:
            if invoker is not None:
                value = invoker.invoke(
                    service.reference,
                    member,
                    tuple(args),
                    dict(kwargs),
                    transport=service.policy.transport,
                    space=session.space,
                    context=context,
                )
            else:
                value = session.space.invoke_remote(
                    service.reference,
                    member,
                    tuple(args),
                    dict(kwargs),
                    transport=service.policy.transport,
                    context=context,
                )
        except Exception as exc:  # noqa: BLE001 - carried by the future
            error: Optional[BaseException] = exc
        else:
            error = None
        future.completed_at = clock.now
        future.attempts = 1 + (
            invoker.log.recovered_failures - failures_before
            if invoker is not None
            else 0
        )
        if error is not None:
            future._fail(error)
        else:
            future._resolve(value)
        return future

    def flush(self) -> None:
        """Nothing is ever buffered on a direct pipe."""

    def drain(self) -> None:
        """Nothing is ever in flight on a direct pipe."""

    def stop(self) -> None:
        """Nothing to retire on a direct pipe."""

    @property
    def pending(self) -> int:
        """Buffered calls awaiting a flush (always 0 here)."""
        return 0


class BatchPipe:
    """Buffered dispatch: windows of calls ship as single batch messages.

    The pipe owns an internal batching engine targeting the service's
    current reference; the engine is rebuilt transparently when the
    reference moves (failover rebind, migration) or the session gains a
    fault-tolerant invoker, so long-lived services keep working across
    topology changes.
    """

    def __init__(self, service: Any) -> None:
        self._service = service
        self._batcher: Optional[BatchingProxy] = None

    def _engine(self) -> BatchingProxy:
        service = self._service
        session = service.session
        reference = service.reference
        invoker = session._current_invoker(service.policy)
        batcher = self._batcher
        if (
            batcher is None
            or batcher._reference != reference
            or batcher._invoker is not invoker
        ):
            if batcher is not None and len(batcher):
                try:
                    batcher.flush()
                except Exception:  # noqa: BLE001 - belongs to the stale window
                    # flush() already failed every future of the superseded
                    # window (e.g. the old export was retired by a rebind);
                    # the error is theirs and must not escape an unrelated
                    # enqueue against the fresh reference.
                    pass
            batcher = BatchingProxy(
                reference,
                space=session.space,
                max_batch=service.policy.batch_window,
                transport=service.policy.transport,
                invoker=invoker,
            )
            self._batcher = batcher
        return batcher

    def enqueue(
        self, member: str, args: tuple, kwargs: dict, context: Optional[dict] = None
    ) -> InvocationFuture:
        """Buffer one call; auto-flushes at the policy's batch window."""
        self._service.session._ensure_open()
        return self._engine().call_with_context(member, tuple(args), dict(kwargs), context)

    def flush(self) -> None:
        """Ship the buffered window now."""
        if self._batcher is not None:
            self._batcher.flush()

    def drain(self) -> None:
        """Synchronous pipe: flushing is draining."""
        self.flush()

    @property
    def pending(self) -> int:
        """Buffered calls awaiting a flush."""
        return len(self._batcher) if self._batcher is not None else 0

    @property
    def batches_flushed(self) -> int:
        """Batch messages this pipe has shipped."""
        return self._batcher.batches_flushed if self._batcher is not None else 0

    def stop(self) -> None:
        """Retire the pipe: fail (don't ship) whatever is still buffered.

        Mirrors :meth:`PipelineScheduler.stop` for the synchronous path — a
        closed session's held futures must not send messages when someone
        later demands their ``result()`` (the resolution wait would
        otherwise flush the window).
        """
        batcher = self._batcher
        if batcher is None:
            return
        batcher.abandon(
            InvocationError("session closed before this call's batch window shipped")
        )


class StreamPipe:
    """Pipelined dispatch through the session's shared scheduler.

    Services whose policies agree on the scheduler-relevant knobs share one
    :class:`~repro.runtime.pipelining.PipelineScheduler`, so a submission
    stream touching several services (shards) is sharded per node, windowed,
    and completed out of order exactly like the hand-wired PR 2 stack — with
    failover-aware requeues when the session replicates.
    """

    def __init__(self, service: Any, scheduler: PipelineScheduler) -> None:
        self._service = service
        #: The shared scheduler carrying this service's traffic.
        self.scheduler = scheduler
        self._outstanding = 0

    def enqueue(
        self, member: str, args: tuple, kwargs: dict, context: Optional[dict] = None
    ) -> InvocationFuture:
        """Submit one call to the shared pipeline; returns its future."""
        self._service.session._ensure_open()
        future = self.scheduler.submit_with_context(
            self._service.reference, member, tuple(args), dict(kwargs), context
        )
        # The scheduler is shared across services, so per-service accounting
        # lives here: one up on submit, one down when the future settles.
        self._outstanding += 1
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, _future: InvocationFuture) -> None:
        self._outstanding -= 1

    def flush(self) -> None:
        """Ship every buffered sub-batch of the shared scheduler."""
        self.scheduler.flush()

    def drain(self) -> None:
        """Pump the event queue until the shared stream is fully resolved."""
        self.scheduler.drain()

    @property
    def pending(self) -> int:
        """Futures THIS service submitted and not yet resolved.

        Not the shared scheduler's aggregate — sibling services' traffic on
        the same scheduler is not counted (see ``scheduler.outstanding`` for
        the whole stream).
        """
        return self._outstanding

    def stop(self) -> None:
        """Nothing pipe-local to retire: the owning session stops the shared
        scheduler itself (it may carry other services' traffic too)."""


class ChainedPipe:
    """A pipe wrapper running every call through an interceptor chain.

    Built by the session when a policy carries ``middleware``; wraps any of
    the three pipes.  Every enqueue builds one
    :class:`~repro.api.middleware.CallContext`, opens the chain's bracket
    (``begin`` in registration order) and — because a future transitions
    pending→done exactly once — settles it exactly once when the future
    resolves (``end``) or fails (``abort``), whatever dispatch path the
    inner pipe took.  A ``begin`` rejection fails the call locally: nothing
    ships, and the returned future already carries the typed error.

    The context's wire form (call id, tenant, deadline, trace reference)
    rides the request, so the serving space's chains observe the same
    control fields.

    When the policy enables tracing, sampled calls open a root *client*
    span here — ended at the future's settlement — and carry its
    ``(trace_id, span_id)`` on the wire, where every downstream layer
    (queues, links, pools, server dispatch, replication) hangs its own
    spans.  Unsampled calls on a middleware-free policy take the inner
    pipe's plain path untouched, so a sample rate of 0 is wire-identical
    to tracing never having been configured.
    """

    def __init__(
        self,
        service: Any,
        inner: Any,
        chain: InterceptorChain,
        tracer: Any = None,
        sample_rate: float = 1.0,
    ) -> None:
        self._service = service
        #: The wrapped pipe doing the actual dispatch.
        self.inner = inner
        #: The client-side chain bracketing this service's calls.
        self.chain = chain
        #: The session's tracer (``None`` when the policy is untraced).
        self.tracer = tracer
        self._gate = SampleGate(sample_rate) if tracer is not None else None

    def enqueue(
        self, member: str, args: tuple, kwargs: dict, context: Optional[dict] = None
    ) -> InvocationFuture:
        """Open the call's bracket, dispatch through the inner pipe, settle on done."""
        service = self._service
        session = service.session
        clock = session.space.network.clock
        tracer = self.tracer if self._gate is not None and self._gate.admit() else None
        if tracer is None and self.chain.empty:
            # Untraced (or unsampled) call on a middleware-free policy:
            # nothing to bracket, nothing to put on the wire.
            return self.inner.enqueue(member, args, kwargs, context=context)
        ctx = CallContext(
            service=service.name,
            member=member,
            args=tuple(args),
            kwargs=dict(kwargs),
            tenant=service.policy.tenant,
            side="client",
            clock=clock,
        )
        if tracer is not None:
            ctx.tracer = tracer
            ctx.trace = tracer.start_trace(
                f"{service.name}.{member}", kind="client", ts=clock.now, service=service.name
            )
        try:
            bracket = self.chain.open(ctx)
        except Exception as error:  # noqa: BLE001 - rejection becomes the future's error
            future = InvocationFuture(member)
            future.submitted_at = clock.now
            future.completed_at = clock.now
            future._fail(error)
            if ctx.trace is not None:
                tracer.end_span(ctx.trace, ts=clock.now, error=type(error).__name__)
            return future
        try:
            future = self.inner.enqueue(member, args, kwargs, context=ctx.to_wire())
        except BaseException as error:
            # Synchronous dispatch failures (DirectPipe round trips, a full
            # window auto-flush failing) must still settle the bracket.
            bracket.fail(error)
            if ctx.trace is not None:
                tracer.end_span(ctx.trace, ts=clock.now, error=type(error).__name__)
            raise

        def _settle(done: InvocationFuture) -> None:
            # The future's attempt count is final by the time it settles;
            # expose it to end/abort hooks (1 for never-retried calls).
            ctx.attempt = max(1, done.attempts)
            if done.ok:
                bracket.close(done._value)
            else:
                bracket.fail(done._error)
            if ctx.trace is not None:
                if done.ok:
                    tracer.end_span(ctx.trace, ts=clock.now, attempts=ctx.attempt)
                else:
                    tracer.end_span(
                        ctx.trace,
                        ts=clock.now,
                        attempts=ctx.attempt,
                        error=type(done._error).__name__,
                    )

        future.add_done_callback(_settle)
        return future

    def flush(self) -> None:
        """Ship whatever the inner pipe has buffered."""
        self.inner.flush()

    def drain(self) -> None:
        """Drain the inner pipe (every settled future settles its bracket)."""
        self.inner.drain()

    def stop(self) -> None:
        """Retire the inner pipe; abandoned calls abort their brackets."""
        self.inner.stop()

    @property
    def pending(self) -> int:
        """Buffered calls awaiting a flush, per the inner pipe."""
        return self.inner.pending

    @property
    def scheduler(self) -> Optional[PipelineScheduler]:
        """The shared scheduler behind the inner pipe (``None`` if unpipelined)."""
        return getattr(self.inner, "scheduler", None)

    @property
    def batches_flushed(self) -> int:
        """Batch messages the inner pipe shipped (0 for non-batching pipes)."""
        return getattr(self.inner, "batches_flushed", 0)
