"""Call pipes: how a façade service turns method calls into network traffic.

A *pipe* is the strategy object behind one
:class:`~repro.api.service.Service`.  Every pipe speaks one tiny protocol —
``enqueue(member, args, kwargs) -> InvocationFuture``, ``flush()``,
``drain()`` — and every pipe is a view of one engine, a
:class:`~repro.runtime.pipelining.PipelineScheduler`, which alone buffers,
ships, retries, fails over and settles.  The policy only picks the
scheduler's shape:

* :class:`StreamPipe` — the session's *shared* scheduler for the policy's
  shape: sharded per node, up to ``pipeline_depth`` batches posted in flight,
  out-of-order completion.
* :class:`BatchPipe` — a scheduler private to the service with a window of
  one: calls buffer into windows of ``batch_window`` and ship inline, one
  message per window, in order.
* :class:`DirectPipe` — a private scheduler with a window *and* a batch size
  of one: every call ships at once as a single-call frame — or, when the call
  can neither retry nor fail over, straight through ``invoke_remote`` without
  touching the engine.

The composition order the old quickstart spelled out by hand — replication
under fault tolerance under batching under pipelining — is encoded once, in
the scheduler.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.api.middleware import CallContext, InterceptorChain
from repro.observability.tracing import SampleGate
from repro.runtime.pipelining import InvocationFuture, PipelineScheduler


class StreamPipe:
    """Dispatch through a scheduler — the one pipe the others specialise.

    Services whose pipelined policies agree on the scheduler-relevant knobs
    share one :class:`~repro.runtime.pipelining.PipelineScheduler`, so a
    submission stream touching several services (shards) is sharded per node,
    windowed, and completed out of order exactly like the hand-wired PR 2
    stack — with failover-aware requeues when the session replicates.
    """

    def __init__(self, service: Any, scheduler: PipelineScheduler) -> None:
        self._service = service
        #: The scheduler carrying this service's traffic.
        self.scheduler = scheduler

    def enqueue(
        self, member: str, args: tuple, kwargs: dict, context: Optional[dict] = None
    ) -> InvocationFuture:
        """Submit one call to the scheduler; returns its future."""
        self._service.session._ensure_open()
        return self.scheduler.submit_with_context(
            self._service.reference, member, tuple(args), dict(kwargs), context
        )

    def flush(self) -> None:
        """Ship every buffered sub-batch of the scheduler."""
        self.scheduler.flush()

    def drain(self) -> None:
        """Pump the event queue until the scheduler's stream is fully resolved."""
        self.scheduler.drain()

    def stop(self) -> None:
        """Nothing pipe-local to retire: the owning session stops every
        scheduler itself (a shared one carries other services' traffic too)."""


class BatchPipe(StreamPipe):
    """Buffered dispatch: windows of calls ship as single batch messages.

    A :class:`StreamPipe` over a scheduler of the service's own — two batched
    services never share a window — whose window of one ships each batch
    inline, so batches execute in order and ``flush()`` leaves nothing in
    flight.
    """

    def __init__(self, service: Any) -> None:
        super().__init__(
            service, service.session._scheduler_for(service.policy, owner=service.name)
        )


class DirectPipe(BatchPipe):
    """Synchronous per-call dispatch (no batching, no pipelining).

    Every enqueued call performs its round trip immediately; the returned
    future is already resolved (or failed).  When the service's policy asks
    for retries — or its session carries a replica manager — the call goes
    through the service's own scheduler (batch size and window of one), so
    transient drops retry and fatal failures of replicated targets chase the
    promoted replica.  A call that can do neither needs no engine.
    """

    def enqueue(
        self, member: str, args: tuple, kwargs: dict, context: Optional[dict] = None
    ) -> InvocationFuture:
        """Invoke now; return the (already completed) future."""
        service = self._service
        session = service.session
        if service.policy.retry is not None or session.replica_manager is not None:
            return super().enqueue(member, args, kwargs, context)
        session._ensure_open()
        future = InvocationFuture(member)
        clock = session.space.network.clock
        future.submitted_at = clock.now
        future.attempts = 1
        try:
            value = session.space.invoke_remote(
                service.reference,
                member,
                tuple(args),
                dict(kwargs),
                transport=service.policy.transport,
                context=context,
            )
        except Exception as error:  # noqa: BLE001 - carried by the future
            future.completed_at = clock.now
            future._fail(error)
        else:
            future.completed_at = clock.now
            future._resolve(value)
        return future


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
            # A programming error (unknown transport, marshalling) raised
            # as this call's window shipped must still settle the bracket.
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
    def scheduler(self) -> PipelineScheduler:
        """The scheduler behind the inner pipe."""
        return self.inner.scheduler
