"""Replicated objects with automatic failover across cluster nodes.

Primary/backup replication re-homes an object when its host dies:

* :class:`ReplicaManager` keeps a *replica group* per replicated object: one
  primary (the copy application traffic hits) plus backup copies on distinct
  nodes.  Every write the primary executes takes the next **seq** of the
  group's op log, and each backup's :class:`ReplicaRecord` remembers the seq
  it last acknowledged.  One catch-up step brings backups up to date **over
  the simulated network** (replication pays real message costs): the log's
  tail, a state snapshot when the log no longer holds what a backup misses,
  or a fresh copy plus a snapshot for a demoted backup.  Eager sync runs it
  after every write (once per dispatched batch inside one); interval sync
  runs it on a simulated-time timer and keeps no log.
* A :class:`~repro.network.heartbeat.HeartbeatDetector` (``detector=``)
  declares nodes down; every group whose primary lived there *fails over*:
  the backup that acknowledged the highest seq is promoted in place, the
  group's name is rebound in the :class:`~repro.runtime.naming.NamingService`
  and a redirect from the old :class:`~repro.runtime.remote_ref.RemoteRef` to
  the new one is published, which
  :class:`~repro.runtime.pipelining.PipelineScheduler` (``replica_manager=``)
  and :class:`~repro.runtime.faulttolerance.FaultTolerantInvoker` follow
  instead of surfacing a fatal network error.

Consistency model: *eager* mode gives per-object sequential consistency for
deterministic operations — a write reaches each live backup before its
response leaves, so a promoted backup has observed every acknowledged write.
*interval* mode trades that durability for write cost: a crash loses at most
one interval's (``SYNC_INTERVAL``) writes.  Mark non-mutating members
``readonly`` so reads are not logged at all.

A group has one switch, its ``quorum``.  ``quorum=1`` is primary-only acks.
``quorum > 1`` turns the group *fenced*, hardening eager replication against
asymmetric partitions:

* A write is acknowledged only after ``quorum`` replicas — a **majority**,
  typically — applied it (the primary's own apply counts); short of that
  the caller gets :class:`~repro.api.errors.QuorumLostError`; a dispatched
  batch's writes are counted once, at its commit, and refused together.
  Writes past the promoted backup's acknowledged seq are *divergent*:
  discarded, never replayed, when the superseded primary heals.
* Every replication frame carries the group **epoch**; a
  :class:`ReplicaEndpoint` that adopted a newer one rejects older frames with
  :class:`~repro.api.errors.FencedError`.
* Promotion is a **vote**: the failure monitor's node sends ``adopt_epoch`` to
  every backup and promotes only with a majority of the group's voters, so a
  monitor blinded by a partition cannot mint a second primary.
* A superseded primary *retires itself*: its wrapper raises ``FencedError`` on
  every call (reads included) instead of acking doomed writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro._errors import (
    FencedError,
    NetworkError,
    QuorumLostError,
    RemoteInvocationError,
    ReplicationError,
)
from repro.runtime.migration import apply_state, snapshot_state
from repro.runtime.remote_ref import RemoteRef

#: The two replica-synchronization modes.
SYNC_MODES = ("eager", "interval")

#: Simulated seconds between an interval group's snapshot ticks (and the
#: failover backoff of a manager without a heartbeat detector).
SYNC_INTERVAL = 0.05


class ReplicaEndpoint:
    """The backup-side service object hosted on each backup node.

    It wraps the backup copy and exposes the replication operations the
    primary invokes remotely: :meth:`apply_op` replays one logged write,
    :meth:`apply_ops` a batch's writes, and :meth:`apply_state` overwrites the
    copy's state with a shipped snapshot (interval ticks, seeding, re-sync).
    Because these arrive as ordinary remote invocations, replication traffic
    is charged, metered and failure-injected exactly like application
    traffic.

    Endpoints also track the group **epoch**.  A fenced group's frames
    carry the sender's epoch (an unfenced group's carry none, and pass
    unchecked): a frame claiming an older epoch than one already adopted is
    rejected with :class:`~repro.api.errors.FencedError`, and
    :meth:`adopt_epoch` doubles as the promotion *vote* — acknowledging it
    commits this replica to the new epoch, after which the superseded
    primary's frames bounce.
    """

    def __init__(self, impl: Any, application: Any = None, *, epoch: int = 0) -> None:
        self._impl = impl
        self._application = application
        #: Highest epoch this replica has adopted.
        self.epoch = epoch
        #: Mutating operations replayed onto this copy.
        self.ops_applied = 0
        #: State snapshots applied to this copy.
        self.snapshots_applied = 0
        #: Frames rejected for carrying a superseded epoch.
        self.fenced_rejections = 0

    def _check_epoch(self, epoch: Optional[int]) -> None:
        """Fence one incoming frame: adopt newer epochs, reject older ones."""
        if epoch is None:
            return
        if epoch < self.epoch:
            self.fenced_rejections += 1
            raise FencedError(
                f"frame from epoch {epoch} rejected: replica is at epoch {self.epoch}",
                stale_epoch=epoch,
                current_epoch=self.epoch,
            )
        self.epoch = epoch

    def adopt_epoch(self, epoch: int) -> int:
        """Vote for a promotion by committing this replica to ``epoch``.

        The acknowledgement *is* the vote: a promotion proceeds only when a
        majority of voters adopted the new epoch.  An epoch at or below the
        one already adopted is a superseded (or duplicate) promotion attempt
        and is rejected with :class:`~repro.api.errors.FencedError`.
        """
        if epoch <= self.epoch:
            self.fenced_rejections += 1
            raise FencedError(
                f"cannot adopt epoch {epoch}: replica already at epoch {self.epoch}",
                stale_epoch=epoch,
                current_epoch=self.epoch,
            )
        self.epoch = epoch
        return epoch

    def apply_op(
        self, member: str, args: list, kwargs: dict, epoch: Optional[int] = None
    ) -> Any:
        """Replay one operation on the backup copy; returns its result."""
        self._check_epoch(epoch)
        result = getattr(self._impl, member)(*args, **kwargs)
        self.ops_applied += 1
        return result

    def apply_ops(self, ops: list, epoch: Optional[int] = None) -> int:
        """Replay a list of ``(member, args, kwargs)`` operations in order.

        The batched form of :meth:`apply_op`: when the primary serves a
        dispatched batch of writes, the whole window's forwards travel to
        this backup as **one** message instead of one per write.  Returns the
        number of operations applied.
        """
        self._check_epoch(epoch)
        for member, args, kwargs in ops:
            getattr(self._impl, member)(*args, **kwargs)
            self.ops_applied += 1
        return len(ops)

    def apply_state(self, state: dict, epoch: Optional[int] = None) -> int:
        """Overwrite the copy's state with a snapshot; returns fields written."""
        self._check_epoch(epoch)
        written = apply_state(self._impl, state, self._application)
        self.snapshots_applied += 1
        return written


@dataclass
class ReplicaRecord:
    """One backup copy of a replica group."""

    node_id: str
    #: Reference of the node's :class:`ReplicaEndpoint`; ``None`` while the
    #: node is enrolled but not (re-)seeded — e.g. a crashed ex-primary.
    endpoint_ref: Optional[RemoteRef]
    #: The backup implementation object (held for local promotion).
    impl: Optional[Any]
    #: False once replication traffic to this copy failed or its node died.
    healthy: bool = True
    #: Seq of the last write this copy acknowledged (by log tail or snapshot).
    acked: int = 0


@dataclass
class StalePrimary:
    """A superseded primary a fenced failover could not reach to retire.

    Fenced failovers never reach across a partition to unexport the old
    primary (the partition is exactly why they cannot trust that path);
    instead the superseded wrapper is recorded here, left to fence itself on
    its next call, and reconciled — divergent unacknowledged ops discarded,
    export retired — when its node heals.
    """

    node_id: str
    ref: RemoteRef
    #: The epoch the wrapper was exported under (now superseded).
    epoch: int
    #: The superseded :class:`ReplicatedObject`.
    wrapper: Any
    #: Writes it executed past the promoted backup's acknowledged seq.
    divergent: int = 0
    #: True once the wrapper has rejected a call with ``FencedError``.
    retired: bool = False


@dataclass
class ReconciliationRecord:
    """What one partition-heal reconciliation of a fenced ex-primary did."""

    group_name: str
    node_id: str
    #: The superseded epoch the ex-primary was fenced at.
    epoch: int
    #: Divergent unacknowledged ops discarded (never replayed anywhere).
    ops_discarded: int
    simulated_time: float


@dataclass
class FailoverRecord:
    """What one completed failover did."""

    group_name: str
    from_node: str
    to_node: str
    old_reference: RemoteRef
    new_reference: RemoteRef
    epoch: int
    simulated_time: float
    #: Promotion votes gathered (fenced groups; 0 for primary-ack ones).
    votes: int = 0


@dataclass(eq=False)  # hashed by identity: a group keys the batch commit its writes join
class ReplicaGroup:
    """One replicated object: its primary, backups and replication counters."""

    name: str
    class_name: str
    primary_node: str
    primary_ref: RemoteRef
    primary_impl: Any
    sync: str
    readonly: FrozenSet[str]
    #: Transport of the group's replication frames (``None`` = space default).
    transport: Optional[str] = None
    backups: Dict[str, ReplicaRecord] = field(default_factory=dict)
    #: Incremented on every failover; lets observers order promotions.
    epoch: int = 0
    #: Seq of the last write the primary executed.
    seq: int = 0
    #: The op log: ``(member, args, kwargs)`` of the writes ``seq - len(log)
    #: + 1`` to ``seq`` not yet shipped.  Eager sync empties it after every
    #: write (after every dispatched batch inside one); interval sync keeps
    #: nothing, so its backups catch up by snapshot.
    log: List[tuple] = field(default_factory=list)
    #: Writes shipped to backups in log tails (one per write per backup).
    writes_propagated: int = 0
    #: State snapshots shipped to backups (interval mode, seeding, re-sync).
    snapshots_shipped: int = 0
    #: Log tails actually sent (eager mode, quorum groups included): one per
    #: backup per write outside a batch, one per backup per *dispatched
    #: batch* inside one.
    forward_messages: int = 0
    #: Zero-argument constructor used to build (re-)seeded backup copies.
    factory: Optional[Callable[[], Any]] = None
    #: Acks (primary's local apply included) required before a write is
    #: acknowledged; 1 is primary-only acks, more makes the group fenced.
    quorum: int = 1
    #: The currently exported :class:`ReplicatedObject` wrapper.
    primary_wrapper: Optional[Any] = None
    #: Superseded primaries awaiting partition-heal reconciliation.
    stale_primaries: List[StalePrimary] = field(default_factory=list)
    #: Writes acknowledged with their full quorum of acks (eager mode).
    acked_writes: int = 0
    #: Writes refused an ack because the quorum could not be gathered.
    quorum_failures: int = 0
    #: Calls rejected by a superseded wrapper fencing itself.
    fenced_calls: int = 0
    #: Promotions vetoed for lack of a majority of adoption votes.
    promotions_vetoed: int = 0
    #: Divergent unacknowledged ops discarded at reconciliation.
    ops_discarded: int = 0

    @property
    def fenced(self) -> bool:
        """Whether frames are epoch-stamped, promotion is voted and stale
        primaries self-retire: every group that needs more than one ack."""
        return self.quorum > 1

    @property
    def dirty(self) -> bool:
        """True while a healthy backup has not acknowledged every write."""
        return any(record.acked != self.seq for record in self.healthy_backups())

    def healthy_backups(self) -> List[ReplicaRecord]:
        """The backup records currently believed usable for promotion."""
        return [
            record
            for record in self.backups.values()
            if record.healthy and record.endpoint_ref is not None
        ]


class ReplicatedObject:
    """The primary-side wrapper exported in place of the implementation.

    Application calls dispatch through it transparently: the member runs on
    the primary implementation first, and — unless the member is declared
    ``readonly`` — the write then takes the group's next seq and the manager
    decides when backups catch up on it (see :meth:`ReplicaManager._after_write`).

    In fenced groups the wrapper remembers the epoch it was exported under
    and compares it against the group's current epoch on **every** call:
    once a promotion has superseded it, it raises
    :class:`~repro.api.errors.FencedError` instead of dispatching — reads
    included, so a stale primary can never serve a cache fill.
    """

    def __init__(self, manager: "ReplicaManager", group: ReplicaGroup) -> None:
        self._manager = manager
        self._group = group
        #: The group epoch at export time; fencing compares it per call.
        self._epoch = group.epoch

    @property
    def _repro_cache_target(self) -> Any:
        """The real implementation, for cacheability metadata lookups.

        The owning address space reads ``@cacheable`` markers off this
        instead of the wrapper type, so reads of a replicated object do not
        spuriously invalidate subscriber caches.
        """
        return self._group.primary_impl

    def __getattr__(self, member: str) -> Callable:
        if member.startswith("_"):
            raise AttributeError(member)

        def call(*args: Any, **kwargs: Any) -> Any:
            group = self._group
            if group.fenced and self._epoch < group.epoch:
                # Superseded: retire instead of acking doomed writes (or
                # serving reads another epoch may have invalidated).
                self._manager._reject_fenced(group, self)
            result = getattr(group.primary_impl, member)(*args, **kwargs)
            if member not in group.readonly:
                self._manager._after_write(group, member, args, kwargs)
            return result

        call.__name__ = member
        return call


class ReplicaManager:
    """Creates, synchronizes and fails over primary/backup replica groups.

    The control plane of the replication subsystem: it places backup copies
    on distinct nodes, catches them up from each group's op log, listens to a
    heartbeat ``detector`` (optional) and promotes backups when primaries die
    — rebinding names and publishing :class:`~repro.runtime.remote_ref.RemoteRef`
    redirects that the retry layers follow.  ``application`` (optional) lets
    state capture use a transformed class's accessors, and re-create backup
    copies from a transformed class's local class.
    """

    def __init__(self, cluster, *, application: Any = None, detector: Any = None) -> None:
        self.cluster = cluster
        self.application = application
        self.detector = detector
        self.running = True
        self._groups: Dict[str, ReplicaGroup] = {}
        self._redirects: Dict[RemoteRef, RemoteRef] = {}
        #: Every completed failover, in promotion order.
        self.failovers: List[FailoverRecord] = []
        #: Every partition-heal reconciliation of a fenced ex-primary.
        self.reconciliations: List[ReconciliationRecord] = []
        if detector is not None:
            detector.on_failure(self.handle_node_down)
            detector.on_recovery(self.handle_node_recovered)

    def replicate(
        self,
        impl: Any,
        *,
        name: str,
        primary_node: str,
        backup_nodes: Sequence[str],
        readonly: Sequence[str] = (),
        sync: str = "eager",
        quorum: int = 1,
        transport: Optional[str] = None,
    ) -> ReplicaGroup:
        """Create a replica group for ``impl`` and return it.

        The implementation is exported from ``primary_node`` behind a
        :class:`ReplicatedObject` wrapper and bound to ``name`` in the
        cluster's naming service.  One backup copy (the implementation's
        class, or a transformed class's local class, built with no
        arguments) is seeded on each of ``backup_nodes`` by shipping a state
        snapshot over the network.  ``readonly`` names members that never
        mutate state and are therefore never logged.  ``sync`` is the
        group's mode: ``"eager"`` ships the log after every write,
        ``"interval"`` ships snapshots every ``SYNC_INTERVAL`` simulated
        seconds.  ``transport`` carries the group's replication frames and
        promotion votes (``None`` = the sending space's default).

        ``quorum`` is the number of replica acks (the primary's local apply
        included) a write needs before it is acknowledged.  ``quorum > 1``
        requires eager sync and makes the group fenced: every replication
        frame carries the group epoch, promotion needs a majority of
        adoption votes, and superseded primaries retire themselves.
        """
        if name in self._groups:
            raise ReplicationError(f"replica group {name!r} already exists")
        if sync not in SYNC_MODES:
            raise ReplicationError(f"unknown sync mode {sync!r} (use one of {SYNC_MODES})")
        backup_nodes = list(backup_nodes)
        if not backup_nodes:
            raise ReplicationError(f"replica group {name!r} needs at least one backup node")
        if primary_node in backup_nodes:
            raise ReplicationError("backups must live on nodes distinct from the primary")
        if len(set(backup_nodes)) != len(backup_nodes):
            raise ReplicationError("backup nodes must be distinct")
        if quorum < 1:
            raise ReplicationError("quorum must be at least 1")
        if quorum > 1 + len(backup_nodes):
            raise ReplicationError(
                f"quorum {quorum} exceeds the group's {1 + len(backup_nodes)} replicas"
            )
        if quorum > 1 and sync != "eager":
            raise ReplicationError("quorum replication requires eager sync")

        primary_space = self.cluster.space(primary_node)
        interface_name = getattr(type(impl), "_repro_interface_name", type(impl).__name__)
        group = ReplicaGroup(
            name=name,
            class_name=type(impl).__name__,
            primary_node=primary_node,
            primary_ref=None,  # type: ignore[arg-type] - set right below
            primary_impl=impl,
            sync=sync,
            readonly=frozenset(readonly),
            transport=transport,
            quorum=quorum,
            factory=self._default_factory(impl),
        )
        group.primary_wrapper = ReplicatedObject(self, group)
        group.primary_ref = primary_space.export(
            group.primary_wrapper, interface_name=interface_name
        )
        # Unseeded slots: the catch-up gives each a fresh copy and a snapshot.
        group.backups = {
            node_id: ReplicaRecord(node_id, endpoint_ref=None, impl=None, healthy=False)
            for node_id in backup_nodes
        }
        self._catch_up(group, list(group.backups.values()))

        self._groups[name] = group
        self.cluster.naming.rebind(name, group.primary_ref)
        if sync == "interval":
            self._schedule_sync(group)
        return group

    def _default_factory(self, impl: Any) -> Callable[[], Any]:
        """A zero-argument constructor for backup copies of ``impl``."""
        class_name = getattr(type(impl), "_repro_class_name", None)
        if (
            self.application is not None
            and class_name is not None
            and class_name in self.application.registry.class_names()
        ):
            return self.application.artifacts(class_name).local_cls
        return type(impl)

    def _fresh_copy(self, group: ReplicaGroup, node_id: str) -> ReplicaRecord:
        """Build and export one empty backup copy on ``node_id`` (not yet seeded)."""
        copy = group.factory()
        endpoint = ReplicaEndpoint(copy, self.application, epoch=group.epoch)
        endpoint_ref = self.cluster.space(node_id).export(
            endpoint, interface_name=f"{group.class_name}.replica"
        )
        return ReplicaRecord(node_id=node_id, endpoint_ref=endpoint_ref, impl=copy)

    def group(self, name: str) -> ReplicaGroup:
        """The replica group bound to ``name``."""
        try:
            return self._groups[name]
        except KeyError as exc:
            raise ReplicationError(f"no replica group named {name!r}") from exc

    def groups(self) -> List[ReplicaGroup]:
        """Every replica group this manager maintains."""
        return list(self._groups.values())

    def current_ref(self, reference: RemoteRef) -> RemoteRef:
        """Resolve ``reference`` through the published failover redirects.

        Returns the reference of the most recently promoted primary when the
        given one has been superseded (following chains across repeated
        failovers), or the reference unchanged when no redirect applies.
        """
        seen = set()
        while reference in self._redirects and reference not in seen:
            seen.add(reference)
            reference = self._redirects[reference]
        return reference

    def can_fail_over(self, reference: RemoteRef) -> bool:
        """Whether traffic to ``reference`` can survive its node's death.

        True when a redirect is already published for it, or when it is the
        primary of a group that still has a promotable backup — the signal
        the retry layers use to keep trying instead of surfacing a fatal
        network error.
        """
        if self.current_ref(reference) != reference:
            return True
        return any(
            group.primary_ref == reference and self._promotable(group)
            for group in self._groups.values()
        )

    def suggested_backoff(self) -> float:
        """Simulated seconds a retrier should wait between failover probes."""
        if self.detector is not None:
            return self.detector.interval
        return SYNC_INTERVAL

    def _reject_fenced(self, group: ReplicaGroup, wrapper: ReplicatedObject) -> None:
        """Retire a superseded primary wrapper: count, mark, and raise."""
        group.fenced_calls += 1
        for stale in group.stale_primaries:
            if stale.wrapper is wrapper:
                stale.retired = True
        raise FencedError(
            f"replica group {group.name!r} primary from epoch {wrapper._epoch} "
            f"was superseded by epoch {group.epoch}",
            stale_epoch=wrapper._epoch,
            current_epoch=group.epoch,
        )

    def _after_write(self, group: ReplicaGroup, member: str, args: tuple, kwargs: dict) -> None:
        """Log one mutating call on the primary and join it to its group's commit.

        The write takes the group's next seq.  Interval groups stop there:
        they log nothing, and their sync tick ships snapshots.  Eager groups
        append the write to the log and make its call wait for
        :meth:`_commit`: at once for a lone write, once per dispatched batch
        for all of the batch's writes into the group (see
        :meth:`~repro.runtime.address_space.AddressSpace.on_batch_commit`),
        so the window's writes travel as one ``apply_ops`` message per backup
        and none is acknowledged before the commit.
        """
        group.seq += 1
        if group.sync != "eager":
            return
        group.log.append((member, list(args), dict(kwargs)))
        self._primary_space(group).on_batch_commit(group, self._commit)

    def _commit(self, group: ReplicaGroup, batched: bool) -> None:
        """Ship the logged writes and count their acks: the one ack/refuse step.

        Short of ``group.quorum`` acks (the primary's own apply counts as
        one) it raises :class:`~repro.api.errors.QuorumLostError`, refusing
        every write it covers: a lone write's caller, or every call of the
        batch that wrote into the group.
        """
        space = self._primary_space(group)
        start, ops = space.network.clock.now, len(group.log)
        attrs = {"ops": ops} if batched else {"op": group.log[-1][0]}
        acks = 1 + self._catch_up(group, batch=batched)
        name = "replicate-batch" if batched else "replicate"
        if group.quorum > 1:
            name, attrs["acks"] = "quorum-write", acks
        self._trace_forwards(space, name, start, group=group.name, **attrs)
        if acks < group.quorum:
            group.quorum_failures += ops
            what = f"{ops} batched writes" if batched else f"write {attrs['op']!r}"
            raise QuorumLostError(
                f"{what} on replica group {group.name!r} gathered "
                f"{acks} of the {group.quorum} acknowledgements required"
            )
        group.acked_writes += ops

    def _catch_up(
        self,
        group: ReplicaGroup,
        records: Optional[List[ReplicaRecord]] = None,
        *,
        batch: bool = False,
    ) -> int:
        """Ship ``records`` what they miss; the one sender of replication frames.

        ``records`` defaults to every healthy backup, and such a run empties
        the log: each backup ends current or demoted.  A healthy backup is
        sent nothing when it acknowledged ``group.seq``; the log's tail when
        the log still holds every write it misses — one write as
        ``apply_op``, a batch commit's writes (even one) as ``apply_ops``; and
        a snapshot of the primary as ``apply_state`` otherwise.  An unhealthy
        record (demoted, or a slot never seeded) gets a fresh copy plus a
        snapshot, and is replaced only once that snapshot landed: a failed
        reseed keeps the stale copy, which a vote can still elect, rather
        than an empty husk that would lose every acknowledged write.

        A lost frame — or a replay that failed on the backup, or a
        :class:`~repro.api.errors.FencedError` from one that adopted a newer
        epoch — demotes that backup alone and schedules its reseed; it never
        fails the write the primary already executed, nor skips the other
        backups.  Returns how many of ``records`` hold ``group.seq`` after it.
        """
        space = self._primary_space(group)
        seq, log = group.seq, group.log
        base = seq - len(log)
        if records is None:
            records = group.healthy_backups()
            group.log = []
        state = None
        acks = 0
        for record in records:
            target = record
            if not record.healthy:
                target = self._fresh_copy(group, record.node_id)
            elif record.acked == seq:
                acks += 1
                continue
            ops: Optional[list] = None
            if target is record and base <= record.acked:
                ops = log[record.acked - base:]
                if batch or len(ops) > 1:
                    member, args = "apply_ops", ([list(op) for op in ops],)
                else:
                    member, args = "apply_op", ops[0]
            else:
                if state is None:
                    state = snapshot_state(group.primary_impl, self.application)
                member, args = "apply_state", (state,)
            if group.fenced:
                # The epoch rides every frame of a fenced group, so a
                # replica that adopted a newer one rejects the sender.
                args += (group.epoch,)
            try:
                space.invoke_remote(target.endpoint_ref, member, args, transport=group.transport)
            except (NetworkError, RemoteInvocationError, FencedError):
                if target is record:
                    record.healthy = False
                    self._schedule_reseed(group, record.node_id)
                elif record.endpoint_ref is not None:
                    self.cluster.space(record.node_id).unexport(target.endpoint_ref)
                else:
                    target.healthy = False
                    group.backups[record.node_id] = target
                continue
            if ops is None:
                group.snapshots_shipped += 1
            else:
                group.forward_messages += 1
                group.writes_propagated += len(ops)
            target.acked = seq
            if target is not record:
                if record.endpoint_ref is not None:
                    # Retire the stale endpoint so crash/recover cycles do not
                    # leak exports (or leave an out-of-date copy answering).
                    self.cluster.space(record.node_id).unexport(record.endpoint_ref)
                group.backups[record.node_id] = target
            acks += 1
        return acks

    def _trace_forwards(self, space, name: str, start: float, **attrs) -> None:
        """Record one replication span per trace the triggering message carried.

        The primary's address space accumulates ``(trace_id, parent_id)``
        refs while dispatching a message; a forward loop that ran between
        ``start`` and now is billed to each of those traces.  Zero-width
        intervals (no backup reachable, clock never advanced) are skipped —
        they would add noise without latency.
        """
        tracer = getattr(space.network, "tracer", None)
        if tracer is None:
            return
        end = space.network.clock.now
        if end <= start:
            return
        for trace_id, parent_id in getattr(space, "_message_trace_refs", ()):
            tracer.record_span(
                name,
                trace_id=trace_id,
                parent_id=parent_id,
                kind="replication",
                start=start,
                end=end,
                **attrs,
            )

    def _schedule_sync(self, group: ReplicaGroup) -> None:
        """Run the interval-mode sync loop for ``group`` on the event queue."""

        def tick() -> None:
            if not self.running or self._groups.get(group.name) is not group:
                return
            if not self._node_down(group.primary_node):
                self._catch_up(group)
            self.cluster.network.events.schedule(SYNC_INTERVAL, tick)

        self.cluster.network.events.schedule(SYNC_INTERVAL, tick)

    def _schedule_reseed(
        self, group: ReplicaGroup, node_id: str, attempt: int = 1, max_attempts: int = 8
    ) -> None:
        """Restore a backup demoted by lost replication traffic.

        A *transient* loss (a dropped forward) demotes the copy even though
        its host node is alive — without this loop the group would silently
        run unprotected forever.  A reseed is retried with linear backoff; a
        retry finding either side down only waits (the detector's recovery
        declarations also reseed, see :meth:`handle_node_recovered`).
        """

        def tick() -> None:
            if not self.running or self._groups.get(group.name) is not group:
                return
            record = group.backups.get(node_id)
            if record is None or record.healthy or group.primary_node == node_id:
                return
            if not (self._node_down(node_id) or self._node_down(group.primary_node)):
                self._catch_up(group, [record])
            if not group.backups[node_id].healthy and attempt < max_attempts:
                self._schedule_reseed(group, node_id, attempt + 1, max_attempts)

        self.cluster.network.events.schedule(self.suggested_backoff() * attempt, tick)

    def handle_node_down(self, node_id: str, at_time: float = 0.0) -> None:
        """React to a node being declared dead (heartbeat listener).

        Backups hosted there become unusable; every group whose primary
        lived there is failed over (groups with no promotable backup are left
        as they are until the node recovers).  Fenced groups do not demote
        backups on a declaration alone — a monitor blinded by an asymmetric
        partition would poison a healthy data plane; their primary demotes
        backups from its own failed frames.
        """
        for group in self._groups.values():
            if not group.fenced and node_id in group.backups:
                group.backups[node_id].healthy = False
        for group in list(self._groups.values()):
            if group.primary_node == node_id and self._promotable(group):
                # A vetoed promotion (no majority of adoption votes — e.g.
                # the monitor is the partitioned party) is a normal outcome,
                # not an event-pump crash: the group simply stays unpromoted
                # until the view changes.
                try:
                    self.failover(group)
                except ReplicationError:
                    continue

    def handle_node_recovered(self, node_id: str, at_time: float = 0.0) -> None:
        """React to a declared-dead node answering again (heartbeat listener).

        The node's copies are stale (it missed writes while unreachable), so
        every group with a replica slot there is re-seeded — a fresh copy
        plus a snapshot of the current primary, by :meth:`_catch_up` — which
        restores redundancy after a failover and makes fail-*back* possible
        on the next crash.
        """
        for group in self._groups.values():
            if group.primary_node == node_id:
                # The primary itself is back (it never failed over, e.g. its
                # backups were down too): restore the redundancy it lost.
                self._catch_up(group, [
                    record
                    for other, record in group.backups.items()
                    if not record.healthy and not self._node_down(other)
                ])
                continue
            record = group.backups.get(node_id)
            if record is None or record.healthy:
                continue
            if self._node_down(group.primary_node):
                # Cannot seed from a dead primary; the primary's own recovery
                # (branch above) re-enlists this slot when it returns.
                continue
            self._reconcile_stale_primary(group, node_id)
            self._catch_up(group, [record])
            if not group.backups[node_id].healthy:
                self._schedule_reseed(group, node_id)

    def _reconcile_stale_primary(self, group: ReplicaGroup, node_id: str) -> None:
        """Reconcile a healed node that was a fenced primary of ``group``.

        The superseded wrapper's divergent ops — the writes it executed past
        the promoted backup's acknowledged seq — are **discarded**, not
        replayed: the promoted history is canonical.  The stale export is
        then retired (the heal makes the node reachable again, so the
        retirement that the partition blocked at failover time can finally
        happen) before :meth:`_catch_up` re-seeds the node from the current
        primary's state.
        """
        for stale in [stale for stale in group.stale_primaries if stale.node_id == node_id]:
            group.stale_primaries.remove(stale)
            group.ops_discarded += stale.divergent
            if node_id in self.cluster:
                self.cluster.space(node_id).unexport(stale.ref)
            self.reconciliations.append(ReconciliationRecord(
                group.name, node_id, stale.epoch, stale.divergent, self.cluster.network.clock.now
            ))

    def _majority(self, group: ReplicaGroup) -> int:
        """Votes a promotion needs: a majority of the group's voters.

        Voters are every replica slot — the (presumed-dead) primary plus all
        enrolled backups — so the threshold stays fixed at ``N // 2 + 1`` of
        the group's size even while some slots are unreachable.
        """
        return (1 + len(group.backups)) // 2 + 1

    def _collect_promotion_votes(
        self, group: ReplicaGroup, new_epoch: int
    ) -> Tuple[int, List[str]]:
        """Ask every backup endpoint to adopt ``new_epoch``; returns the acks.

        Votes are solicited **from the failure monitor's node** (else from
        the first healthy candidate's, else the first one's): the monitor
        claims the primary is dead, so its own connectivity is what the vote
        tests — a monitor blinded by an asymmetric partition collects no acks
        and cannot mint a second primary.  Each ack also fences the voter
        against the superseded primary's frames.  Returns the vote count and
        the node ids that voted, which :meth:`failover` prefers among equally
        fresh candidates.
        """
        monitor_node = getattr(self.detector, "monitor_node", None)
        if monitor_node is not None and monitor_node in self.cluster:
            vote_space = self.cluster.space(monitor_node)
        else:
            candidates = self._promotable(group)
            voter = next((record for record in candidates if record.healthy), candidates[0])
            vote_space = self.cluster.space(voter.node_id)
        if self.detector is not None and hasattr(self.detector, "quorum_view"):
            # Cheap precheck on the monitor's own view: if it cannot even
            # *see* a majority of voters, skip the doomed vote round.
            voters = [group.primary_node, *group.backups]
            if self.detector.quorum_view(voters) < self._majority(group):
                return 0, []
        votes = 0
        voted: List[str] = []
        for record in group.backups.values():
            if record.endpoint_ref is None:
                continue
            try:
                vote_space.invoke_remote(
                    record.endpoint_ref, "adopt_epoch", (new_epoch,), transport=group.transport
                )
                votes += 1
                voted.append(record.node_id)
            except (NetworkError, RemoteInvocationError, FencedError):
                continue
        return votes, voted

    def failover(self, group: ReplicaGroup) -> FailoverRecord:
        """Promote the backup of ``group`` that holds every acknowledged write.

        The candidate that acknowledged the highest seq wins; being a voter,
        then healthy, then enrolled first only break ties.  Its copy becomes
        the primary behind a new :class:`ReplicatedObject` export, the name is
        rebound and a redirect ``old ref → new ref`` is published; the dead
        ex-primary's node stays enrolled as an unhealthy slot for a later
        reseed.  Raises :class:`~repro.api.errors.ReplicationError` when no
        backup is promotable.

        Fenced groups promote by **vote**: without a majority of the voters
        acknowledging ``adopt_epoch`` the promotion is vetoed with
        :class:`~repro.api.errors.QuorumLostError`.  They never reach across
        the partition to retire the old primary's export: the superseded
        wrapper is recorded as a :class:`StalePrimary`, fences itself on its
        next call, and is reconciled when its node heals.
        """
        candidates = self._promotable(group)
        if not candidates:
            raise ReplicationError(f"replica group {group.name!r} has no promotable backup")
        votes = 0
        voted: List[str] = []
        if group.fenced:
            new_epoch = group.epoch + 1
            votes, voted = self._collect_promotion_votes(group, new_epoch)
            needed = self._majority(group)
            if votes < needed:
                group.promotions_vetoed += 1
                raise QuorumLostError(
                    f"promotion of replica group {group.name!r} to epoch "
                    f"{new_epoch} gathered {votes} of the {needed} adoption "
                    f"votes required"
                )
        # A voter is proven reachable and already committed to the new epoch.
        promoted = min(
            candidates,
            key=lambda record: (-record.acked, record.node_id not in voted, not record.healthy),
        )
        old_node, old_ref = group.primary_node, group.primary_ref
        old_wrapper, old_epoch = group.primary_wrapper, group.epoch
        new_space = self.cluster.space(promoted.node_id)
        # The promoted history is canonical: writes past its acknowledged seq
        # are divergent, and a backup holding any of them needs a reseed.
        divergent, group.seq, group.log = group.seq - promoted.acked, promoted.acked, []
        for record in group.backups.values():
            if record.acked > group.seq:
                record.healthy, record.acked = False, group.seq

        # The endpoint retires; its copy becomes the primary implementation.
        new_space.unexport(promoted.endpoint_ref)
        group.primary_impl = promoted.impl
        group.primary_node = promoted.node_id
        group.epoch += 1
        group.primary_wrapper = ReplicatedObject(self, group)
        group.primary_ref = new_space.export(
            group.primary_wrapper, interface_name=old_ref.interface_name
        )
        del group.backups[promoted.node_id]
        stale_subscribers: Dict[str, Optional[float]] = {}
        if group.fenced:
            # The old node may be alive and merely unreachable from the
            # monitor: its space cannot be trusted (or, in a real deployment,
            # reached) to hand over state, so its wrapper waits for the heal.
            group.stale_primaries.append(
                StalePrimary(old_node, old_ref, old_epoch, old_wrapper, divergent)
            )
        elif old_node in self.cluster:
            # Take the subscribers BEFORE retiring the export (unexport purges
            # them) so the promoted node can flush their leases below; should
            # the dead node come back, its stale wrapper must not answer.
            stale_subscribers = self.cluster.space(old_node).take_cache_subscribers(
                old_ref.object_id
            )
            self.cluster.space(old_node).unexport(old_ref)
        # Keep the dead node enrolled so recovery can re-enlist it.
        group.backups[old_node] = ReplicaRecord(
            old_node, endpoint_ref=None, impl=None, healthy=False
        )

        self._redirects[old_ref] = group.primary_ref
        self.cluster.naming.rebind(group.name, group.primary_ref)
        if group.fenced:
            # Without the old node's subscriber table, flush the old
            # reference from *every* peer at the new epoch: leases drop now,
            # and a later ``!inv`` the fenced ex-primary mints is rejected.
            peers = [node for node in self.cluster.node_ids() if node != group.primary_node]
            new_space.send_cache_invalidations([old_ref.object_id], peers, epoch=group.epoch)
        elif stale_subscribers:
            # The demoted primary can no longer invalidate anyone, so the
            # promoted node flushes the leases held against the old reference
            # (new reads miss anyway: the promoted primary is a fresh export).
            new_space.send_cache_invalidations([old_ref.object_id], list(stale_subscribers))

        record = FailoverRecord(
            group_name=group.name,
            from_node=old_node,
            to_node=group.primary_node,
            old_reference=old_ref,
            new_reference=group.primary_ref,
            epoch=group.epoch,
            simulated_time=self.cluster.network.clock.now,
            votes=votes,
        )
        self.failovers.append(record)
        return record

    def dismantle(self, group: ReplicaGroup) -> None:
        """Tear one replica group fully down (the reverse of :meth:`replicate`).

        The primary wrapper and every backup endpoint are unexported and the
        group is forgotten (redirect chains into it included) — dismantling a
        session must leave no exports or manager state behind.  The group's
        well-known name is the caller's to unbind (the manager does not know
        whether anyone else rebound it).  Idempotent per group.
        """
        if self._groups.get(group.name) is not group:
            return
        if group.primary_node in self.cluster:
            self.cluster.space(group.primary_node).unexport(group.primary_ref)
        for record in group.backups.values():
            if record.endpoint_ref is not None and record.node_id in self.cluster:
                self.cluster.space(record.node_id).unexport(record.endpoint_ref)
        for stale in group.stale_primaries:
            # Fenced ex-primaries that never healed still hold their export.
            if stale.node_id in self.cluster:
                self.cluster.space(stale.node_id).unexport(stale.ref)
        group.stale_primaries = []
        del self._groups[group.name]
        # Drop every hop leading into the group: a reference it superseded
        # must stop counting as one that can fail over.
        self._redirects = {
            old: new
            for old, new in self._redirects.items()
            if self.current_ref(old) != group.primary_ref
        }

    def stop(self) -> None:
        """Stop the interval sync loops (pending ticks become no-ops)."""
        self.running = False

    def detach(self) -> None:
        """Unsubscribe this manager's listeners from its heartbeat detector.

        Detector instances can outlive the manager (and the session that
        created it); without detaching, every discarded manager would keep
        reacting — and keep being referenced — forever.  Idempotent, and a
        no-op for managers built without a detector.
        """
        if self.detector is not None:
            self.detector.off_failure(self.handle_node_down)
            self.detector.off_recovery(self.handle_node_recovered)

    def _primary_space(self, group: ReplicaGroup):
        return self.cluster.space(group.primary_node)

    def _promotable(self, group: ReplicaGroup) -> List[ReplicaRecord]:
        """Backups :meth:`failover` would actually promote.

        The single source of truth for "can this group fail over", which
        the heartbeat listener checks before calling :meth:`failover`.
        Unfenced groups require ``record.healthy``; fenced groups do **not**:
        a partitioned primary demotes every backup it lost sight of — the
        very replicas the promotion must choose from — so any seeded,
        non-crashed slot is a candidate and the vote tests reachability.
        """
        return [
            record
            for record in group.backups.values()
            if (record.healthy or group.fenced)
            and record.endpoint_ref is not None
            and not self._node_down(record.node_id)
        ]

    def _node_down(self, node_id: str) -> bool:
        return self.cluster.network.failures.is_node_down(node_id)
