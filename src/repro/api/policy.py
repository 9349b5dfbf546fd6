"""Declarative service policies for the :mod:`repro.api` façade.

A :class:`ServicePolicy` names *what* a service should get — a batch window,
a pipeline depth, a retry policy, a replication factor, a transport — and the
façade (:class:`~repro.api.session.Session` /
:class:`~repro.api.service.Service`) derives *how*: which runtime components
to build and in which composition order.  The policy is an immutable value
object; the fluent ``with_*`` builder methods return modified copies, so a
base policy can be specialised per service::

    base = ServicePolicy(transport="rmi").with_batching(32)
    fast = base.with_pipelining(8)                       # + in-flight window
    safe = (fast.with_replication(2, quorum=1)           # + a live backup
            .with_retry(max_attempts=3))

Field-by-field, a policy replaces the hand-wired stack of PR 1-3:

============================  ==================================================
policy field                  replaces
============================  ==================================================
``transport``                 the ``transport=`` threaded through every layer
``batch_window``              ``BatchingProxy(max_batch=...)``
``pipeline_depth``            ``PipelineScheduler(window=...)``
``retry``                     ``FaultTolerantInvoker(policy=...)`` wiring
``replication_factor``        ``ReplicaManager`` + ``backup_nodes`` counting
``quorum``                    ``replicate(quorum=...)``; fencing is ``quorum > 1``
``sync`` / ``readonly``       ``replicate(sync=..., readonly=...)``
============================  ==================================================

What failover needs besides that is fixed, not configured: the session's one
:class:`~repro.network.heartbeat.HeartbeatDetector` runs at its defaults, and
a call re-ships at most
:data:`~repro.runtime.faulttolerance.MAX_FAILOVER_ATTEMPTS` times while a
backup is promoted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

from repro._errors import PolicyError
from repro.runtime.caching import CachePolicy
from repro.runtime.faulttolerance import RetryPolicy
from repro.runtime.replication import SYNC_MODES


@dataclass(frozen=True)
class ServicePolicy:
    """Everything a service needs to know about its distribution machinery.

    Every knob has a neutral default, so ``ServicePolicy()`` describes a
    plain synchronous, unreplicated service; turning a knob up composes the
    corresponding subsystem in behind the same façade.
    """

    #: Transport for every message this service sends (``None`` = the calling
    #: address space's default).
    transport: Optional[str] = None
    #: Calls buffered per batch message; ``1`` disables batching.
    batch_window: int = 1
    #: Concurrently in-flight batches; ``1`` keeps dispatch synchronous,
    #: larger values stream batches through a shared pipeline scheduler.
    pipeline_depth: int = 1
    #: Retry policy for transient transport failures (``None`` = no retries).
    retry: Optional[RetryPolicy] = None
    #: Total copies of the service object (primary + backups); ``1`` means
    #: unreplicated, ``R`` keeps ``R - 1`` backups on distinct nodes.
    replication_factor: int = 1
    #: Acks (counting the primary's local apply) a write needs before it is
    #: acknowledged to the client; ``1`` is primary-only acks.  More than one
    #: also fences the group: epochs are enforced on replication frames, a
    #: stale primary's frames are rejected with ``FencedError`` and promotion
    #: requires a majority of reachable voters (split-brain prevention).
    quorum: int = 1
    #: Replica synchronization mode (``"eager"`` or ``"interval"``).
    sync: str = "eager"
    #: Members that never mutate state (not forwarded to backups).
    readonly: Tuple[str, ...] = ()
    #: Client-side result caching for the service's ``@cacheable`` members
    #: (``None`` = every read pays its round trip).  See
    #: :class:`~repro.runtime.caching.CachePolicy` for the knobs.
    cache: Optional[CachePolicy] = None
    #: Client-side interceptors (:class:`~repro.api.middleware.Interceptor`)
    #: bracketing every call this service enqueues, in registration order.
    #: Empty = the pipes run bare, byte-identical to the pre-middleware path.
    middleware: Tuple = ()
    #: Server-side interceptors installed on the hosting address space(s) at
    #: deploy time, bracketing every dispatched call before/after the target
    #: method.  Only meaningful when the session deploys an implementation.
    server_middleware: Tuple = ()
    #: Tenant label stamped into every call's wire context (rate limiters
    #: key their buckets on it).  ``None`` = untagged traffic.
    tenant: Optional[str] = None
    #: Whether deployment runs the distribution-safety rules
    #: (:mod:`repro.analysis`) against the implementation's source and
    #: refuses to deploy on error-severity findings.  The policy itself
    #: sharpens the rules: under quorum replication, nondeterministic
    #: writes (DS101) escalate from warning to deploy-blocking error.
    static_checks: bool = False
    #: Distributed-tracing sample rate in ``[0, 1]`` (``None`` = tracing
    #: off entirely; ``0.0`` keeps the machinery armed but samples no
    #: call, which must stay wire-identical to ``None``).
    tracing: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cache is not None and not isinstance(self.cache, CachePolicy):
            raise PolicyError(
                "cache must be a repro.runtime.caching.CachePolicy (or None)"
            )
        if self.batch_window < 1:
            raise PolicyError("batch_window must be at least 1")
        if self.pipeline_depth < 1:
            raise PolicyError("pipeline_depth must be at least 1")
        if self.replication_factor < 1:
            raise PolicyError("replication_factor must be at least 1")
        if self.quorum < 1:
            raise PolicyError("quorum must be at least 1")
        if self.quorum > self.replication_factor:
            raise PolicyError(
                f"quorum {self.quorum} exceeds the {self.replication_factor} "
                "replica(s) that could acknowledge it"
            )
        if self.quorum > 1 and self.sync != "eager":
            raise PolicyError(
                "quorum commit requires sync='eager' (interval snapshots "
                "cannot acknowledge writes against a majority)"
            )
        if self.sync not in SYNC_MODES:
            raise PolicyError(f"unknown sync mode {self.sync!r} (use one of {SYNC_MODES})")
        if self.tracing is not None and not 0.0 <= self.tracing <= 1.0:
            raise PolicyError(
                f"tracing sample rate must be within [0, 1], got {self.tracing!r}"
            )
        if not isinstance(self.readonly, tuple):
            object.__setattr__(self, "readonly", tuple(self.readonly))
        if not isinstance(self.middleware, tuple):
            object.__setattr__(self, "middleware", tuple(self.middleware))
        if not isinstance(self.server_middleware, tuple):
            object.__setattr__(self, "server_middleware", tuple(self.server_middleware))

    # ------------------------------------------------------------------
    # fluent builder
    # ------------------------------------------------------------------

    def with_transport(self, transport: Optional[str]) -> "ServicePolicy":
        """A copy of this policy speaking ``transport``."""
        return replace(self, transport=transport)

    def with_batching(self, window: int) -> "ServicePolicy":
        """A copy buffering ``window`` calls per batch message."""
        return replace(self, batch_window=window)

    def with_pipelining(self, depth: int) -> "ServicePolicy":
        """A copy keeping ``depth`` batches in flight concurrently."""
        return replace(self, pipeline_depth=depth)

    def with_retry(
        self, policy: Optional[RetryPolicy] = None, *, max_attempts: Optional[int] = None
    ) -> "ServicePolicy":
        """A copy retrying transient failures.

        Pass a full :class:`~repro.runtime.faulttolerance.RetryPolicy`, or
        just ``max_attempts`` for the default backoff shape.
        """
        if policy is not None and max_attempts is not None:
            raise PolicyError("pass either a RetryPolicy or max_attempts, not both")
        if policy is None:
            if max_attempts is not None and max_attempts < 1:
                raise PolicyError("max_attempts must be at least 1")
            policy = (
                RetryPolicy(max_attempts=max_attempts)
                if max_attempts is not None
                else RetryPolicy()
            )
        return replace(self, retry=policy)

    def with_replication(
        self,
        replicas: Optional[int] = None,
        quorum: Optional[Union[int, str]] = None,
        *,
        sync: Optional[str] = None,
        readonly: Optional[Sequence[str]] = None,
    ) -> "ServicePolicy":
        """A copy replicating the service across ``replicas`` copies.

        The commit rule is always named explicitly::

            policy.with_replication(3, quorum="majority")

        ``quorum`` is the number of replicas (counting the primary) that
        must apply a write before it is acknowledged to the client — a
        write on its own ships to each backup as one ``apply_op``, a
        dispatched batch's writes as one ``apply_ops`` whose acks are
        counted once for all of them.  ``"majority"`` resolves to
        ``replicas // 2 + 1``, an int is used verbatim (``PolicyError`` when
        it exceeds ``replicas``); ``quorum=1`` is primary-only acks.  Either
        way failover promotes the backup with the highest acknowledged seq.
        A call that names neither spelling raises ``PolicyError``.
        ``quorum > 1`` also fences the group: every replication frame carries
        the group's epoch, stale primaries are rejected with
        :class:`~repro.api.errors.FencedError` and promotion requires a
        majority of reachable voters.
        """
        if replicas is None:
            replicas = 2
        if quorum == "majority":
            resolved_quorum = replicas // 2 + 1
        elif isinstance(quorum, int) and not isinstance(quorum, bool):
            resolved_quorum = quorum
        else:
            raise PolicyError(
                "with_replication needs an explicit commit rule: "
                'quorum="majority" (recommended) or quorum=<int> '
                f"(1 = primary-only acks), not {quorum!r}"
            )
        return replace(
            self,
            replication_factor=replicas,
            quorum=resolved_quorum,
            sync=sync if sync is not None else self.sync,
            readonly=tuple(readonly) if readonly is not None else self.readonly,
        )

    def with_caching(
        self,
        policy: Optional[CachePolicy] = None,
        *,
        max_entries: Optional[int] = None,
        lease_ms: Optional[float] = None,
        mode: Optional[str] = None,
        cacheable: Optional[Sequence[str]] = None,
    ) -> "ServicePolicy":
        """A copy caching the service's ``@cacheable`` reads client-side.

        Pass a full :class:`~repro.runtime.caching.CachePolicy`, or just the
        knobs to change on the default one (``max_entries``, ``lease_ms``,
        ``mode``, an explicit ``cacheable`` member list)::

            ServicePolicy(transport="rmi").with_caching(lease_ms=100)
        """
        if policy is not None and any(
            knob is not None for knob in (max_entries, lease_ms, mode, cacheable)
        ):
            raise PolicyError("pass either a CachePolicy or individual knobs, not both")
        if policy is None:
            base = CachePolicy()
            policy = CachePolicy(
                max_entries=max_entries if max_entries is not None else base.max_entries,
                lease_ms=lease_ms if lease_ms is not None else base.lease_ms,
                mode=mode if mode is not None else base.mode,
                cacheable=tuple(cacheable) if cacheable is not None else (),
            )
        return replace(self, cache=policy)

    def with_middleware(
        self, *interceptors, server: Optional[Sequence] = None
    ) -> "ServicePolicy":
        """A copy whose calls run through ``interceptors``, in order.

        Positional ``interceptors`` replace the client-side chain (each
        call's begin/end/abort brackets run around the enqueue → settle
        lifecycle); ``server=[...]`` additionally replaces the server-side
        chain installed on the hosting space at deploy time::

            policy.with_middleware(
                DeadlineInterceptor(0.5), MetricsInterceptor(),
                server=[RateLimitInterceptor(rate=200.0)],
            )
        """
        updated = replace(self, middleware=tuple(interceptors))
        if server is not None:
            updated = replace(updated, server_middleware=tuple(server))
        return updated

    def with_tenant(self, tenant: Optional[str]) -> "ServicePolicy":
        """A copy whose calls are stamped with ``tenant`` on the wire."""
        return replace(self, tenant=tenant)

    def with_tracing(self, sample_rate: float = 1.0) -> "ServicePolicy":
        """A copy whose sampled calls carry end-to-end trace spans.

        ``sample_rate`` picks what fraction of calls get a trace
        (deterministic counter sampling, no randomness): ``1.0`` traces
        everything, ``0.25`` every fourth call.  Sampled calls put two
        extra keys on the wire context; everything else stays
        byte-identical to an untraced policy.  Collected traces are read
        back through :meth:`~repro.api.session.Session.tracer`.
        """
        return replace(self, tracing=float(sample_rate))

    def with_static_checks(self, enabled: bool = True) -> "ServicePolicy":
        """A copy that lints the implementation at deploy time.

        With static checks on, :meth:`Session.service` runs the
        distribution-safety rules (``repro lint``'s DS101–DS105, DS107) against
        the source of the class being deployed, *before* any deployment
        side effect, and raises :class:`~repro.api.errors.PolicyError`
        naming each error-severity finding (rule id and ``path:line``).
        The check is policy-aware: the same implementation that deploys
        fine unreplicated can be refused under
        ``with_replication(3, quorum="majority")``, because replay
        determinism (DS101) is only load-bearing once a quorum group
        re-executes writes on backups.
        """
        return replace(self, static_checks=bool(enabled))

    # ------------------------------------------------------------------
    # derived views the façade consumes
    # ------------------------------------------------------------------

    @property
    def intercepted(self) -> bool:
        """Whether calls run through a client-side interceptor chain."""
        return bool(self.middleware)

    @property
    def traced(self) -> bool:
        """Whether the policy has tracing configured (even at rate 0)."""
        return self.tracing is not None

    @property
    def batched(self) -> bool:
        """Whether calls are buffered into batch messages."""
        return self.batch_window > 1

    @property
    def pipelined(self) -> bool:
        """Whether batches stream through an asynchronous in-flight window."""
        return self.pipeline_depth > 1

    @property
    def replicated(self) -> bool:
        """Whether the service object keeps backup copies."""
        return self.replication_factor > 1

    @property
    def quorum_replicated(self) -> bool:
        """Whether the group runs in quorum mode: more than one ack, fenced."""
        return self.replicated and self.quorum > 1

    @property
    def cached(self) -> bool:
        """Whether the service serves cacheable reads from a client cache."""
        return self.cache is not None

    @property
    def backup_count(self) -> int:
        """Backup copies implied by ``replication_factor``."""
        return self.replication_factor - 1

    def scheduler_key(self) -> tuple:
        """Hashable identity of the pipeline scheduler this policy needs.

        Services whose policies agree on every scheduler-relevant knob share
        one session-level scheduler, so one submission stream shards and
        pipelines across all of them.
        """
        return (
            self.transport,
            self.batch_window,
            self.pipeline_depth,
            self.retry,
        )
