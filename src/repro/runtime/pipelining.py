"""The shipping engine: future-based remote invocation with one fault policy.

:class:`PipelineScheduler` is the only code above the network that buffers
calls into windows, ships them, judges a failure, waits out a backoff,
re-resolves a failed-over reference and settles futures.  Every other
dispatch surface — the façade's pipes, :class:`~repro.runtime.batching.BatchingProxy`,
:class:`~repro.runtime.faulttolerance.FaultTolerantInvoker` — is a view that
submits to a scheduler and reads the outcome off the futures.

Two pieces:

* :class:`InvocationFuture` — the placeholder a submitted call returns
  immediately.  It resolves (or fails) when its window's outcome is known;
  ``result()`` drives the owning scheduler until then.
* :class:`PipelineScheduler` — buffers calls per destination node (sharding a
  stream of submissions across the cluster), ships each node's buffer as one
  batch, bounds the batches in flight by ``window``, and isolates a
  transport-level failure to its batch: those calls retry, fail over or fail
  while every other batch completes undisturbed.

The engine has two drivers, derived from ``window`` — the rule
:meth:`~repro.network.simnet.SimulatedNetwork.send_request` / ``post`` follow
one layer down.  A window wider than one **posts** its batches on the event
queue: they complete out of order as their response events fire, so a window
of in-flight batches pays roughly ``max`` rather than ``sum`` of its
round-trip delays, and a backoff is a scheduled event.  A window of one
**ships inline** and waits its backoff out in place, so a later window can
never overtake a retried one ("batches execute in order"); when ``max_batch``
is also one the call travels as a single-call frame, not a batch of one.  A
driver owns nothing but the waiting.

Usage — normally via the façade, which composes this module internally::

    policy = ServicePolicy(transport="rmi", batch_window=32, pipeline_depth=4)
    shards = [session.service(f"s{i}", policy, ...) for i in range(2)]
    futures = [
        shards[i % 2].future.submit(f"sku-{i}", 1, 10) for i in range(256)
    ]
    session.drain()                         # pump until every future resolves
    values = [f.result() for f in futures]  # per-call results, order preserved
    shards[0].scheduler.out_of_order_completions  # > 0 with uneven shards

Used as a context manager, a clean exit flushes the buffers and drains the
event queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro._errors import InvocationError, NetworkError
from repro.observability.tracing import trace_queue_waits
from repro.runtime.faulttolerance import (
    FATAL_FAILURES,
    MAX_FAILOVER_ATTEMPTS,
    NO_RETRY,
    REPLICATION_REFUSALS,
    FailureLog,
    FailureRecord,
    RetryPolicy,
)
from repro.runtime.remote_ref import RemoteRef, reference_of


@dataclass
class BatchResult:
    """The outcome of one call inside a batch, in request order."""

    index: int
    value: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        """The call's result; re-raises the call's error if it failed."""
        if self.error is not None:
            raise self.error
        return self.value


class InvocationFuture:
    """The placeholder for one asynchronously submitted remote call.

    A future starts *pending* and transitions exactly once to *resolved*
    (carrying the call's return value) or *failed* (carrying the exception).
    ``result()`` blocks in *simulated* time: it asks its owning
    :class:`PipelineScheduler` to make progress until the future is done,
    then returns the value or re-raises the error.

    Futures also carry the submission bookkeeping the scheduler and the
    benchmarks read: ``index`` (global submission sequence number),
    ``attempts`` (how many batches carried this call, > 1 after a retry) and
    the ``submitted_at`` / ``completed_at`` simulated timestamps.
    """

    _PENDING = "pending"
    _RESOLVED = "resolved"
    _FAILED = "failed"

    def __init__(
        self,
        member: str,
        *,
        index: int = -1,
        on_wait: Optional[Callable[["InvocationFuture"], None]] = None,
    ) -> None:
        self.member = member
        #: Global submission sequence number (``-1`` outside a scheduler).
        self.index = index
        #: Number of batches that carried this call so far (retries add one).
        self.attempts = 0
        #: Simulated timestamps, filled in by the owning scheduler.
        self.submitted_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._state = self._PENDING
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._on_wait = on_wait
        self._callbacks: List[Callable[["InvocationFuture"], None]] = []

    # -- state -----------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the future has resolved or failed."""
        return self._state is not self._PENDING

    @property
    def ok(self) -> bool:
        """True when the future resolved with a value (not an error)."""
        return self._state is self._RESOLVED

    def _resolve(self, value: Any) -> None:
        self._state = self._RESOLVED
        self._value = value
        self._fire_callbacks()

    def _fail(self, error: BaseException) -> None:
        self._state = self._FAILED
        self._error = error
        self._fire_callbacks()

    def _fire_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # -- results ---------------------------------------------------------------

    def result(self) -> Any:
        """The call's value; drives the owner until resolved, re-raises errors."""
        if not self.done and self._on_wait is not None:
            self._on_wait(self)
        if not self.done:
            raise InvocationError(
                f"future for {self.member!r} is unresolved and has no owner to wait on"
            )
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self) -> Optional[BaseException]:
        """The call's error (``None`` on success); waits like :meth:`result`.

        Unlike :meth:`result`, the call's own failure is *returned*, not
        raised — even when waiting surfaces it (shipping a window re-raises
        a programming error such as an unknown transport; if that failure
        settled this future, it is this call's outcome and comes back as the
        return value).  Only errors that leave the future pending (a stalled
        pipeline) propagate, and a future that cannot resolve at all raises
        :class:`~repro.api.errors.InvocationError` exactly like :meth:`result`.
        """
        if not self.done and self._on_wait is not None:
            try:
                self._on_wait(self)
            except BaseException:
                if not self.done:
                    raise
        if not self.done:
            raise InvocationError(
                f"future for {self.member!r} is unresolved and has no owner to wait on"
            )
        return self._error

    def add_done_callback(self, callback: Callable[["InvocationFuture"], None]) -> None:
        """Run ``callback(future)`` on completion (immediately if already done)."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self._state if self.done else "pending"
        return f"<{type(self).__name__} {self.member!r} #{self.index} {state}>"


def batch_results(futures: List[InvocationFuture]) -> List[BatchResult]:
    """One settled window's outcome in the synchronous batch shape.

    Application errors stay isolated in their :class:`BatchResult` slots; a
    :class:`~repro.api.errors.NetworkError` the engine could not recover is
    re-raised — the window failed in transit, atomically.
    """
    for future in futures:
        if isinstance(future._error, NetworkError):
            raise future._error
    return [
        BatchResult(index, future._value, future._error)
        for index, future in enumerate(futures)
    ]


@dataclass
class _ScheduledCall:
    """One submitted call travelling through the scheduler's buffers."""

    reference: RemoteRef
    member: str
    args: tuple
    kwargs: dict
    future: InvocationFuture = field(repr=False, default=None)  # type: ignore[assignment]
    #: Wire-context dict (call id, tenant, deadline); empty without
    #: middleware.  Retries reuse the same :class:`_ScheduledCall`, so the
    #: context — absolute deadline included — rides every re-ship unchanged.
    context: dict = field(default_factory=dict)
    #: When the call last entered a buffer (submission or requeue); traced
    #: calls bill the span up to ship time as client-side queueing.
    queued_at: Optional[float] = None


class PipelineScheduler:
    """Shards, batches and pipelines remote invocations over one address space.

    Calls submitted through :meth:`submit` are buffered per destination node;
    a node's buffer ships as one batch when it reaches ``max_batch`` (or on
    :meth:`flush`).  Up to ``window`` batches are kept in flight concurrently
    — submission past the window pumps the event queue until a slot frees,
    which bounds memory and models a TCP-like in-flight window.  Responses
    resolve futures strictly in *arrival* order, which is generally **not**
    submission order when shards answer at different speeds:
    :attr:`out_of_order_completions` exposes the reordering to tests and
    benchmarks.

    ``window`` also picks the driver (module docstring): wider than one posts
    batches on the event queue; exactly one ships inline — the synchronous
    engine behind batched and direct services.

    Fault tolerance is batch-aware: when an in-flight batch fails at the
    transport level, each of its calls is retried per ``retry_policy``
    (requeued and re-shipped after the policy's simulated-time backoff) while
    the other in-flight batches are untouched; calls whose attempts are
    exhausted — and all calls on a fatal failure such as a partition — fail
    with the network error.  Failures are recorded per call in
    ``failure_log``.

    Failover-awareness: constructed with a ``replica_manager``
    (:class:`~repro.runtime.replication.ReplicaManager`), a fatal failure of
    a batch whose targets are replicated is no longer final — the calls are
    requeued with the manager's suggested backoff (one heartbeat interval)
    and, as every reference is resolved through the cluster's forward table
    at ship time, once the detector promotes a backup the retried traffic
    lands on the new primary.
    :data:`~repro.runtime.faulttolerance.MAX_FAILOVER_ATTEMPTS` bounds how
    many re-ships a call may spend riding out detection plus promotion before
    the fatal error is surfaced after all.
    """

    def __init__(
        self,
        space: Any,
        *,
        max_batch: int = 32,
        window: int = 4,
        transport: Optional[str] = None,
        retry_policy: RetryPolicy = NO_RETRY,
        failure_log: Optional[FailureLog] = None,
        replica_manager=None,
    ) -> None:
        if max_batch < 1:
            raise InvocationError("max_batch must be at least 1")
        if window < 1:
            raise InvocationError("window must be at least 1")
        self.space = space
        self.max_batch = max_batch
        self.window = window
        self.transport = transport
        self.retry_policy = retry_policy
        self.failure_log = failure_log if failure_log is not None else FailureLog()
        self.replica_manager = replica_manager
        self._events = space.network.events
        self._clock = space.network.clock
        self._buffers: Dict[str, List[_ScheduledCall]] = {}
        self._next_index = 0
        self._in_flight = 0
        self._outstanding = 0
        #: Futures that completed after one with a higher submission index.
        self.out_of_order_completions = 0
        self._highest_completed = -1
        #: Logical calls submitted through this scheduler.
        self.calls_submitted = 0
        #: Batch messages shipped (including retry re-ships).
        self.batches_shipped = 0
        #: Calls requeued after a transient transport failure.
        self.calls_retried = 0
        #: Call-requeues taken to ride out a failover (fatal error, replicated
        #: target): the re-ship resolves its forward and lands on the promotion.
        self.calls_redirected = 0
        #: High-water mark of concurrently in-flight batches.
        self.max_in_flight = 0
        #: Sum of in-flight depths sampled at every batch ship (the measured
        #: counterpart of the configured ``window``).
        self._depth_sample_sum = 0.0
        #: Number of depth samples taken (one per shipped batch).
        self.depth_samples = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, target: Any, member: str, *args: Any, **kwargs: Any) -> InvocationFuture:
        """Queue one invocation; returns its future immediately.

        ``target`` may be a :class:`~repro.runtime.remote_ref.RemoteRef`, a
        generated proxy, or a handle bound to one — anything
        :func:`~repro.runtime.remote_ref.reference_of` can resolve.  The
        call lands in the buffer of the reference's node; buffers for
        different nodes ship independently, so one submission stream fans
        out (shards) across the cluster.
        """
        return self.submit_with_context(target, member, args, kwargs)

    def submit_with_context(
        self,
        target: Any,
        member: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        context: Optional[dict] = None,
    ) -> InvocationFuture:
        """Queue one invocation carrying a wire-context dict.

        The middleware-aware entry point behind :meth:`submit`: ``context``
        (call id, tenant, deadline — see
        :class:`~repro.core.interception.CallContext`) ships inside the call's
        batch message and — because retries and failover re-ships reuse the
        same scheduled-call record — rides every re-ship unchanged, so a
        promoted replica sees the call's *remaining* deadline budget.
        """
        if self._stopped:
            # Mirror the _ship guard: accepting the call would strand its
            # future silently, violating stop()'s no-pending guarantee.
            raise InvocationError("pipeline scheduler is stopped; no new submissions")
        reference = target if isinstance(target, RemoteRef) else reference_of(target)
        if reference is None:
            raise InvocationError(
                "PipelineScheduler needs a remote reference: pass a RemoteRef, "
                "a proxy, or a handle bound to one"
            )
        future = InvocationFuture(member, index=self._next_index, on_wait=self._wait_for)
        future.submitted_at = self._clock.now
        self._next_index += 1
        self.calls_submitted += 1
        self._outstanding += 1
        buffer = self._buffers.setdefault(reference.node_id, [])
        buffer.append(
            _ScheduledCall(
                reference, member, tuple(args), dict(kwargs or {}), future,
                dict(context or {}), queued_at=self._clock.now,
            )
        )
        if len(buffer) >= self.max_batch:
            self._ship(self._buffers.pop(reference.node_id))
        return future

    def flush(self) -> None:
        """Ship every non-empty node buffer as one batch.

        A buffer whose ship raises (a dispatch error: its calls are failed
        first) does not keep the others from shipping; the first such error
        is raised once every buffer has shipped.
        """
        buffers, self._buffers = self._buffers, {}
        first = None
        for calls in buffers.values():
            try:
                self._ship(calls)
            except Exception as error:  # noqa: BLE001 - raised below, after the rest ship
                first = first or error
        if first is not None:
            raise first

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Number of submitted futures not yet resolved or failed."""
        return self._outstanding

    @property
    def observed_pipeline_depth(self) -> float:
        """The in-flight window depth the pipeline has actually achieved.

        The mean number of concurrently in-flight batches, sampled at every
        batch ship.  This is the *measured* counterpart of the configured
        ``window``: a stream too small (or too skewed) to fill the window
        reports a lower value.  Before any batch has shipped it falls back to
        ``1.0`` (no overlap observed yet).  The wall-clock ledger reports it
        as ``runtime.pipeline.depth_observed``.
        """
        if self.depth_samples == 0:
            return 1.0
        return max(1.0, self._depth_sample_sum / self.depth_samples)

    def stop(self) -> None:
        """Retire the scheduler: nothing ships after this (idempotent).

        Backoff re-ships already scheduled on the event queue become no-ops
        that *fail* their calls instead of shipping them — a retired
        scheduler (typically one whose owning session closed without
        draining) must never invoke services when some later party pumps the
        shared event queue.  Buffered, never-shipped calls fail the same
        way, so no future is left silently pending.
        """
        if self._stopped:
            return
        self._stopped = True
        buffers, self._buffers = self._buffers, {}
        for calls in buffers.values():
            self._fail_unshipped(calls)

    def _fail_unshipped(self, calls: List[_ScheduledCall]) -> None:
        error = InvocationError("pipeline scheduler stopped before this call shipped")
        for call in calls:
            if not call.future.done:
                call.future._fail(error)
                self._complete(call.future)

    def drain(self) -> None:
        """Flush the buffers and pump events until every future is done."""
        self.flush()
        while self._outstanding > 0:
            if not self._events.run_next():
                raise InvocationError(
                    f"pipeline stalled: {self._outstanding} unresolved future(s) "
                    "with an idle event queue"
                )

    def _wait_for(self, future: InvocationFuture) -> None:
        """Make progress until one specific future completes (its wait hook)."""
        self.flush()
        while not future.done:
            if not self._events.run_next():
                raise InvocationError(
                    f"pipeline stalled waiting for {future.member!r} "
                    "with an idle event queue"
                )

    # ------------------------------------------------------------------
    # shipping and fault tolerance
    # ------------------------------------------------------------------

    def _ship(self, calls: List[_ScheduledCall]) -> None:
        """Ship a sub-batch, re-routing through the forward table first.

        Every call's reference is resolved at ship time, so a call to an
        object that moved — or a batch requeued while its target's node was
        dying — lands where the object is now.  Forwards can split one
        sub-batch across nodes (objects moved or promoted to different
        hosts); each destination then ships as its own batch.
        """
        if not calls:
            return
        if self._stopped:
            self._fail_unshipped(calls)
            return
        naming = self.space.naming
        if not naming.forwards:
            self._ship_bucket(calls)
            return
        buckets: Dict[str, List[_ScheduledCall]] = {}
        for call in calls:
            call.reference = naming.forwarded(call.reference) or call.reference
            buckets.setdefault(call.reference.node_id, []).append(call)
        for bucket in buckets.values():
            self._ship_bucket(bucket)

    def _ship_bucket(self, calls: List[_ScheduledCall]) -> None:
        """Ship one single-destination sub-batch, waiting for a window slot.

        A window wider than one posts the batch and returns; a window of one
        sends it inline and settles it before returning — retries included:
        :meth:`_reship_after_backoff` recurses here once per attempt, bounded
        by the retry and failover budgets.
        """
        # Only a posted batch frees its slot from the event queue; an inline one
        # still in flight is an outer frame of this call stack (a handler
        # calling back through this scheduler) and must not be waited for.
        while self.window > 1 and self._in_flight >= self.window:
            if not self._events.run_next():
                # Nothing can complete: proceed rather than deadlock (only
                # reachable if completion callbacks were lost to a bug).
                break
        for call in calls:
            call.future.attempts += 1
        self._in_flight += 1
        self.batches_shipped += 1
        self.max_in_flight = max(self.max_in_flight, self._in_flight)
        # Sample the depth the pipeline actually achieves: the mean of these
        # samples is the measured counterpart of the configured window
        # (which traffic may never fill).
        self._depth_sample_sum += self._in_flight
        self.depth_samples += 1
        trace_queue_waits(
            self.space.network, "pipeline-queue", calls, node=calls[0].reference.node_id
        )
        batch = [
            (call.reference, call.member, call.args, call.kwargs, call.context)
            for call in calls
        ]
        try:
            if self.window > 1:
                self.space.invoke_remote_many_async(
                    batch,
                    on_results=lambda results: self._on_results(calls, results),
                    on_error=lambda error: self._on_error(calls, error),
                    transport=self.transport,
                )
                return
            outcome = self._send_inline(batch)
        except Exception as error:  # noqa: BLE001 - release the slot, fail the futures
            # A synchronous dispatch failure (unknown transport, marshalling
            # error) must not leak the window slot or strand the futures:
            # route it through the normal failure path, then surface it to
            # the caller — it is a programming error, not network weather.
            self._on_error(calls, error)
            raise
        if isinstance(outcome, NetworkError):
            self._on_error(calls, outcome)
        else:
            self._on_results(calls, outcome)

    def _send_inline(self, batch: List[tuple]) -> Any:
        """One synchronous round trip on the inline driver.

        Returns the ordered result slots — or the :class:`NetworkError` that
        cost the whole message, for :meth:`_on_error` to judge exactly as it
        judges a posted batch's.  A scheduler that never batches sends a
        single-call frame, whose outcome is its one slot.  Whatever fails
        before a frame is sent raises, as it does from a posted batch.
        """
        try:
            if self.max_batch > 1:
                return self.space.invoke_remote_many(batch, transport=self.transport)
            reference, member, args, kwargs, context = batch[0]
            result = self.space.invoke_remote_result(
                reference, member, args, kwargs, self.transport, context)
        except NetworkError as error:
            return error
        # A single frame's call refused by the network (a throttle, say) cost
        # the whole message, as a lost frame does.
        return result.error if isinstance(result.error, NetworkError) else [result]

    def _reship_after_backoff(self, calls: List[_ScheduledCall], failing_over: bool) -> None:
        """Re-ship requeued ``calls`` once their backoff has passed.

        The wait is the retry policy's backoff for the most-tried call — at
        least the replica manager's suggestion (one detector interval) when
        the calls are riding out a failover.  The posting driver schedules
        the re-ship; the inline driver waits in place (events due meanwhile
        fire on time) — scheduling would free its only slot and let a later
        window execute before the retried one.
        """
        backoff = self.retry_policy.backoff_for_attempt(
            max(call.future.attempts for call in calls)
        )
        if failing_over:
            backoff = max(backoff, self.replica_manager.suggested_backoff())
        if self.window > 1:
            self._events.schedule(backoff, lambda: self._ship(calls))
        else:
            self._events.run_until(self._clock.now + backoff)
            self._ship(calls)

    def _record_failure(
        self, call: _ScheduledCall, error: BaseException, retry: bool, failover: bool
    ) -> None:
        """Log one call's failure; count and trace it when it will re-ship."""
        self.failure_log.record(
            FailureRecord(
                member=call.member,
                error_type=type(error).__name__,
                attempt=call.future.attempts,
                recovered=retry or failover,
                simulated_time=self._clock.now,
            )
        )
        # The two recovery paths stay separately countable.
        if failover:
            self.calls_redirected += 1
            self._trace_requeue(call, "failover-reship", error=type(error).__name__)
        elif retry:
            self.calls_retried += 1
            self._trace_requeue(call, "retry-requeued", error=type(error).__name__)

    def _can_fail_over(self, call: _ScheduledCall) -> bool:
        """Whether a re-ship of ``call`` could land on a promoted replica."""
        return (
            self.replica_manager is not None
            and call.future.attempts <= MAX_FAILOVER_ATTEMPTS
            and self.replica_manager.can_fail_over(call.reference)
        )

    def _trace_requeue(self, call: _ScheduledCall, reason: str, **attrs) -> None:
        """Stamp a requeue on the traced call's still-open client span."""
        call.queued_at = self._clock.now
        trace_id = call.context.get("x")
        tracer = getattr(self.space.network, "tracer", None)
        if trace_id is None or tracer is None:
            return
        tracer.annotate(
            trace_id,
            call.context.get("p"),
            reason,
            ts=self._clock.now,
            attempt=call.future.attempts,
            **attrs,
        )

    def _complete(self, future: InvocationFuture) -> None:
        future.completed_at = self._clock.now
        if future.index < self._highest_completed:
            self.out_of_order_completions += 1
        else:
            self._highest_completed = future.index
        self._outstanding -= 1

    def _on_results(self, calls: List[_ScheduledCall], results: List[Any]) -> None:
        """Resolve one batch's futures from its ordered per-call results."""
        self._in_flight -= 1
        requeued: List[_ScheduledCall] = []
        for call, result in zip(calls, results):
            if result.ok:
                call.future._resolve(result.value)
            elif isinstance(result.error, REPLICATION_REFUSALS) and self._can_fail_over(call):
                # A fenced or quorum-less primary refused this slot.  Unlike
                # ordinary application errors it is worth requeueing: ship
                # time re-resolves the reference, so the retry lands on the
                # current epoch's primary instead of the refusing one.
                self._record_failure(call, result.error, retry=False, failover=True)
                requeued.append(call)
                continue
            else:
                # Application errors inside a successful batch stay isolated
                # per slot.
                call.future._fail(result.error)
            self._complete(call.future)
        if requeued:
            self._reship_after_backoff(requeued, failing_over=True)

    def _on_error(self, calls: List[_ScheduledCall], error: Exception) -> None:
        """Handle a transport-level failure of one in-flight batch.

        Each call is judged individually against the retry policy (calls
        that have been requeued before carry higher attempt counts), so a
        re-grouped batch can simultaneously retry some calls and surface the
        error on others.  Fatal failures of replicated targets take the
        failover path instead: the call is requeued (bounded by
        ``MAX_FAILOVER_ATTEMPTS``) with the replica manager's suggested
        backoff, riding out failure detection until the re-resolved
        reference points at the promoted replica.
        """
        self._in_flight -= 1
        requeued: List[_ScheduledCall] = []
        failing_over = False
        for call in calls:
            retry = self.retry_policy.should_retry(error, call.future.attempts)
            failover = (
                not retry
                and isinstance(error, FATAL_FAILURES + REPLICATION_REFUSALS)
                and self._can_fail_over(call)
            )
            self._record_failure(call, error, retry, failover)
            if retry or failover:
                failing_over = failing_over or failover
                requeued.append(call)
            else:
                call.future._fail(error)
                self._complete(call.future)
        if requeued:
            self._reship_after_backoff(requeued, failing_over)

    # ------------------------------------------------------------------
    # context manager
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PipelineScheduler in_flight={self._in_flight}/{self.window} "
            f"outstanding={self._outstanding} max_batch={self.max_batch}>"
        )
