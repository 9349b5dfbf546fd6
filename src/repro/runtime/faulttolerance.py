"""Fault tolerance for remote invocations.

Changing applications to span address-space boundaries introduces network
failure problems, which makes it impossible to guarantee full preservation of
the original application semantics (paper §4).  The paper leaves the
behaviour of practical applications under failure as future work restricted
to a LAN; this module names the *policy* such applications need — what
counts as transient, how often to retry, what was observed — and hands the
*mechanism* (retry, backoff, failover chase, settlement) to the one engine
that implements it, :class:`~repro.runtime.pipelining.PipelineScheduler`:

* :class:`RetryPolicy` — bounded retries with (simulated-time) backoff for
  idempotent operations;
* :class:`FaultTolerantInvoker` — a synchronous view of the engine: a retry
  policy, a failure log and an optional replica manager, with
  :meth:`~FaultTolerantInvoker.invoke` / :meth:`~FaultTolerantInvoker.invoke_many`
  submitting to window-of-one schedulers that carry them;
* :class:`guard_handle` — installs fault tolerance on a rebindable handle, so
  transient message loss is retried and permanent partition failures surface
  as :class:`~repro.api.errors.NetworkError` to the application;
* :class:`FailureLog` — a record of every failure observed, for tests,
  reports and the benchmarks that study behaviour under failure injection.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro._errors import (
    AdmissionError,
    FencedError,
    MessageDroppedError,
    NodeUnreachableError,
    PartitionError,
    QuorumLostError,
    RedistributionError,
)
from repro.core.metaobject import Metaobject, Proxy, metaobject_of

#: Replication refusals that re-route instead of retrying blindly: the
#: target either fenced itself (a newer epoch holds the primaryship) or
#: could not gather a write quorum.  Both re-resolve against the current
#: epoch's primary — a blind retry at the same reference would re-execute
#: the write on a superseded or quorum-less primary.
REPLICATION_REFUSALS = (FencedError, QuorumLostError)

#: Failure classes considered *transient*: a retry may succeed.  Admission
#: rejections are transient by construction — the destination's service pool
#: was momentarily full, and a backoff gives it time to drain.
TRANSIENT_FAILURES = (MessageDroppedError, AdmissionError)

#: Failure classes considered *fatal* for the current topology: retrying
#: without operator/adaptation intervention will not help.
FATAL_FAILURES = (PartitionError, NodeUnreachableError)

#: Re-ships a call may spend riding out failure detection plus promotion
#: before a fatal failure of a replicated target surfaces after all.
MAX_FAILOVER_ATTEMPTS = 12


@dataclass(frozen=True)
class RetryPolicy:
    """How a fault-tolerant invoker reacts to transient failures.

    Only transient failures are retried, with a backoff that doubles after
    every failed attempt.  Fatal ones (partitions, crashed nodes) have one
    handler, failover to a promoted replica, and surface otherwise.
    """

    max_attempts: int = 3
    #: Simulated seconds waited before the first retry.
    initial_backoff: float = 0.001

    def backoff_for_attempt(self, attempt: int) -> float:
        """Backoff charged before retry number ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        return self.initial_backoff * (2.0 ** (attempt - 1))

    def should_retry(self, error: Exception, attempt: int) -> bool:
        return attempt < self.max_attempts and isinstance(error, TRANSIENT_FAILURES)


#: A retry policy that never retries: failures surface immediately.
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass
class FailureRecord:
    """One observed remote-invocation failure."""

    member: str
    error_type: str
    attempt: int
    recovered: bool
    simulated_time: float


@dataclass
class FailureLog:
    """Accumulates failure records across invocations."""

    records: list[FailureRecord] = field(default_factory=list)

    def record(self, record: FailureRecord) -> None:
        self.records.append(record)

    @property
    def total_failures(self) -> int:
        return len(self.records)


class FaultTolerantInvoker:
    """Synchronous remote invocation with retries, backoff and failure accounting.

    A view of :class:`~repro.runtime.pipelining.PipelineScheduler`: calls are
    submitted to a scheduler with a window of one that carries this
    invoker's ``policy``, ``log`` and ``replica_manager``, so transient
    failures retry, every failure is recorded, and — with a
    :class:`~repro.runtime.replication.ReplicaManager` — fatal failures and
    fenced/quorum-less refusals of replicated targets are re-shipped to the
    promoted replica (at most :data:`MAX_FAILOVER_ATTEMPTS` times per call)
    instead of surfacing to the application.
    """

    def __init__(
        self,
        space,
        policy: RetryPolicy = RetryPolicy(),
        log: Optional[FailureLog] = None,
        *,
        replica_manager=None,
    ) -> None:
        self.space = space
        self.policy = policy
        self.log = log if log is not None else FailureLog()
        self.replica_manager = replica_manager
        self._schedulers: Dict[tuple, Any] = {}

    def scheduler(self, space, *, max_batch: int, transport: Optional[str] = None):
        """A new window-of-one scheduler carrying this invoker's policy, log
        and replica manager, issuing its calls from ``space``."""
        from repro.runtime.pipelining import PipelineScheduler

        return PipelineScheduler(
            space,
            max_batch=max_batch,
            window=1,
            transport=transport,
            retry_policy=self.policy,
            failure_log=self.log,
            replica_manager=self.replica_manager,
        )

    def _scheduler_for(self, space, transport: Optional[str], max_batch: int):
        """The invoker's own scheduler for one (space, transport, batch size)."""
        key = (space if space is not None else self.space, transport, max_batch)
        scheduler = self._schedulers.get(key)
        if scheduler is None:
            scheduler = self._schedulers[key] = self.scheduler(
                key[0], max_batch=max_batch, transport=transport
            )
        return scheduler

    def invoke(
        self,
        reference,
        member: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        transport: Optional[str] = None,
        space=None,
        context: Optional[dict] = None,
    ) -> Any:
        """Invoke ``member`` with retries according to the policy.

        ``space`` selects which address space issues the call (so traffic is
        attributed to the node the calling code actually runs on); it defaults
        to the space the invoker was constructed with.  ``context`` is the
        call's wire-context dict (call id, tenant, deadline); the *same*
        dict rides every retry and failover re-ship, so a promoted replica
        sees the call's remaining deadline budget, not a fresh one.
        """
        # A batch size of one ships on submission, as a single-call frame.
        return (
            self._scheduler_for(space, transport, 1)
            .submit_with_context(reference, member, args, kwargs, context)
            .result()
        )

    def invoke_many(
        self,
        calls,
        transport: Optional[str] = None,
        space=None,
    ):
        """Invoke a batch of calls with retries according to the policy.

        The whole batch is one wire message, so a transport-level failure
        hits every call in it and the whole batch is re-shipped on retry.
        Like the single-call path this gives *at-least-once* semantics — a
        lost **request** was never executed, but a lost **response** means
        the server already ran the batch and the retry runs it again;
        restrict retries to idempotent operations.  Failures are recorded
        per call, so the log reflects how many logical invocations each
        network incident touched.  Application errors inside a successful
        batch stay isolated in their
        :class:`~repro.runtime.pipelining.BatchResult` slots and are **not**
        retried — they are deterministic outcomes, not network weather; a
        network error the policy could not recover is raised.

        ``calls`` uses the ``(reference, member, args, kwargs[, context])``
        shape of
        :meth:`~repro.runtime.address_space.AddressSpace.invoke_remote_many`.
        Calls to different nodes (or redirected apart by a failover) ship as
        one batch per node.
        """
        from repro.runtime.pipelining import batch_results

        # An unbounded batch size never ships on submission: the flush sends
        # each destination's calls as one batch frame, whatever their number,
        # and — the window being one — returns with every future settled.
        scheduler = self._scheduler_for(space, transport, sys.maxsize)
        futures = [
            scheduler.submit_with_context(reference, member, args, kwargs, *context)
            for reference, member, args, kwargs, *context in calls
        ]
        scheduler.flush()
        return batch_results(futures)


def guard_handle(
    handle: Any,
    *,
    policy: RetryPolicy = RetryPolicy(),
    log: Optional[FailureLog] = None,
) -> FailureLog:
    """Install retry-based fault tolerance on a rebindable remote handle.

    The handle must currently be bound to a remote proxy (fault tolerance is
    meaningless for a purely local object).  The invoker goes into the one slot
    on the handle's remote leg, the metaobject's ``remote_invoker``: every call
    through the handle that leaves its node is retried under ``policy``, and a
    :class:`~repro.runtime.batching.BatchingProxy` wrapped around the guarded
    handle finds the invoker there and ships its windows under the same policy
    and log.  The guard is the handle's, not the binding's: it survives
    ``move`` / ``set_transport`` / ``make_local``, idle while the object is
    local.  Returns the failure log used, so callers can inspect what happened.
    """

    meta: Optional[Metaobject] = metaobject_of(handle)
    if meta is None:
        raise RedistributionError("fault tolerance requires a rebindable handle")
    if not isinstance(meta.target, Proxy):
        raise RedistributionError(
            "the handle is not bound to a remote proxy; guard it after making it remote"
        )
    meta.remote_invoker = FaultTolerantInvoker(meta.target._space, policy=policy, log=log)
    return meta.remote_invoker.log

