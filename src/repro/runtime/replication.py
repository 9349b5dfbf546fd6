"""Replicated objects with automatic failover across cluster nodes.

A crashed node used to take its objects down with it: the failure model can
kill a node (:meth:`~repro.network.failures.FailureModel.crash_node`) and the
migration layer can copy state (:func:`~repro.runtime.migration.snapshot_state`),
but nothing re-homed objects when their host died.  This module closes that
gap with primary/backup replication:

* :class:`ReplicaManager` keeps a *replica group* per replicated object: one
  primary (the copy application traffic hits) plus backup copies hosted on
  distinct nodes.  Backups are seeded and kept in sync **over the simulated
  network** — replication traffic pays real message costs — either eagerly
  (every mutating call is forwarded to each backup as it happens) or on a
  configurable interval of simulated time (state snapshots shipped from the
  event queue).
* A :class:`~repro.network.heartbeat.HeartbeatDetector` (registered via
  ``detector=``) declares nodes down; the manager reacts by *failing over*
  every group whose primary lived there: the freshest backup is promoted in
  place, the group's well-known name is rebound in the
  :class:`~repro.runtime.naming.NamingService`, and a redirect from the old
  :class:`~repro.runtime.remote_ref.RemoteRef` to the new one is published so
  in-flight traffic can re-route.
* The shipping engine consumes those redirects:
  :class:`~repro.runtime.pipelining.PipelineScheduler` (built with
  ``replica_manager=``, as is every scheduler behind a
  :class:`~repro.runtime.faulttolerance.FaultTolerantInvoker` that has one)
  requeues the failed sub-batch instead of surfacing
  :class:`~repro.api.errors.PartitionError`/:class:`~repro.api.errors.NodeUnreachableError`
  as fatal, and re-resolves every reference at ship time.

Consistency model: *eager* mode gives per-object sequential consistency for
deterministic operations — the primary executes a call, then forwards the
same call to each live backup before the response leaves, so a promoted
backup has observed every acknowledged write.  *interval* mode trades that
durability for write cost: a crash loses at most one interval's writes on the
backup.  Operations must be deterministic (same call, same state change) for
operation-shipping to keep replicas equal; mark non-mutating members
``readonly`` so reads are not forwarded at all.

Quorum mode (``quorum > 1`` with ``fencing=True``) hardens eager replication
against asymmetric partitions:

* A write is acknowledged only after a **majority** of replicas applied it
  (the primary's local apply counts as one vote); short of quorum the caller
  gets :class:`~repro.api.errors.QuorumLostError` and the write is recorded
  as *divergent* — it is discarded, not replayed, if the primary is later
  fenced.
* Every replication frame (``apply_op``/``apply_ops``/``apply_state``)
  carries the group **epoch**; a :class:`ReplicaEndpoint` that has adopted a
  newer epoch rejects older frames with
  :class:`~repro.api.errors.FencedError`.
* Promotion is a **vote**: the failure monitor's node sends ``adopt_epoch``
  to every backup endpoint and may promote only when a majority of the
  group's voters acknowledged the new epoch — a monitor blinded by a
  partition collects no votes and cannot mint a second primary.
* A superseded primary *retires itself*: its wrapper compares the epoch it
  was exported under against the group's current epoch on every call and
  raises :class:`~repro.api.errors.FencedError` (reads included, so a stale
  primary can never serve a cache fill) instead of acking doomed writes.
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


class ReplicaEndpoint:
    """The backup-side service object hosted on each backup node.

    It wraps the backup copy and exposes the two replication operations the
    primary invokes remotely: :meth:`apply_op` replays one mutating call
    (eager mode) and :meth:`apply_state` overwrites the copy's state with a
    shipped snapshot (interval mode, initial seeding, and recovery re-sync).
    Because these arrive as ordinary remote invocations, replication traffic
    is charged, metered and failure-injected exactly like application
    traffic.

    Fencing endpoints additionally track the group **epoch**: every
    replication frame carries the sender's epoch, a frame claiming an older
    epoch than one already adopted is rejected with
    :class:`~repro.api.errors.FencedError`, and :meth:`adopt_epoch` doubles
    as the promotion *vote* — acknowledging it commits this replica to the
    new epoch, after which the superseded primary's frames bounce.
    """

    def __init__(
        self,
        impl: Any,
        application: Any = None,
        *,
        fencing: bool = False,
        epoch: int = 0,
    ) -> None:
        self._impl = impl
        self._application = application
        #: Whether frames are epoch-checked (quorum/fencing groups).
        self.fencing = fencing
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
        if epoch is None or not self.fencing:
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
        if self.fencing and epoch <= self.epoch:
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

    def implementation(self) -> Any:
        """The backup copy itself (used locally during promotion)."""
        return self._impl


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


@dataclass
class StalePrimary:
    """A superseded primary a fencing failover could not reach to retire.

    Fencing failovers never reach across a partition to unexport the old
    primary (the partition is exactly why they cannot trust that path);
    instead the superseded wrapper is recorded here, left to fence itself on
    its next call, and reconciled — divergent unacknowledged ops discarded,
    export retired — when its node heals.
    """

    node_id: str
    ref: RemoteRef
    #: The epoch the wrapper was exported under (now superseded).
    epoch: int
    #: The superseded :class:`ReplicatedObject` (holds the divergent ops).
    wrapper: Any
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
    #: Promotion votes gathered (fencing groups; 0 for legacy promotion).
    votes: int = 0


@dataclass
class ReplicaGroup:
    """One replicated object: its primary, backups and replication counters."""

    name: str
    class_name: str
    primary_node: str
    primary_ref: RemoteRef
    primary_impl: Any
    sync: str
    readonly: FrozenSet[str]
    backups: Dict[str, ReplicaRecord] = field(default_factory=dict)
    #: Incremented on every failover; lets observers order promotions.
    epoch: int = 0
    #: True when interval mode has unsynchronized writes.
    dirty: bool = False
    #: Mutating operations forwarded to backups (eager mode).
    writes_propagated: int = 0
    #: State snapshots shipped to backups (interval mode, seeding, re-sync).
    snapshots_shipped: int = 0
    #: Forward messages actually sent (eager mode): one per backup per write
    #: outside a batch, one per backup per *dispatched batch* inside one.
    forward_messages: int = 0
    #: Writes deferred during the current batch dispatch (eager mode).
    pending_ops: List[tuple] = field(default_factory=list)
    #: True while a commit hook is registered for the current batch.  Kept
    #: separate from ``pending_ops`` so a hook that never ran (or failed)
    #: cannot wedge the deferral machinery: the next batch re-arms.
    commit_armed: bool = False
    #: Zero-argument constructor used to build (re-)seeded backup copies.
    factory: Optional[Callable[[], Any]] = None
    #: Acks (primary's local apply included) required before a write is
    #: acknowledged; 1 preserves the legacy fire-and-forget behaviour.
    quorum: int = 1
    #: Whether frames are epoch-stamped and stale primaries self-retire.
    fencing: bool = False
    #: The currently exported :class:`ReplicatedObject` wrapper.
    primary_wrapper: Optional[Any] = None
    #: Superseded primaries awaiting partition-heal reconciliation.
    stale_primaries: List[StalePrimary] = field(default_factory=list)
    #: Writes acknowledged with a full quorum of acks (quorum mode).
    acked_writes: int = 0
    #: Writes refused an ack because the quorum could not be gathered.
    quorum_failures: int = 0
    #: Calls rejected by a superseded wrapper fencing itself.
    fenced_calls: int = 0
    #: Promotions vetoed for lack of a majority of adoption votes.
    promotions_vetoed: int = 0
    #: Divergent unacknowledged ops discarded at reconciliation.
    ops_discarded: int = 0

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
    the primary implementation first, and — when the group synchronizes
    eagerly and the member is not declared ``readonly`` — the same call is
    then forwarded to every live backup before the result is returned, so an
    acknowledged write is never lost by a failover.  In interval mode the
    group is merely marked dirty and the event-queue sync loop ships a state
    snapshot later.

    In fencing groups the wrapper remembers the epoch it was exported under
    and compares it against the group's current epoch on **every** call:
    once a promotion has superseded it, it raises
    :class:`~repro.api.errors.FencedError` instead of dispatching — reads
    included, so a stale primary can never serve a cache fill — and writes
    that executed locally but failed quorum are recorded as *divergent*, to
    be discarded (never replayed) when the node reconciles after a heal.
    """

    def __init__(self, manager: "ReplicaManager", group: ReplicaGroup) -> None:
        self._manager = manager
        self._group = group
        #: The group epoch at export time; fencing compares it per call.
        self._epoch = group.epoch
        #: Writes applied locally that never gathered a quorum of acks.
        self._divergent_ops: List[tuple] = []

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
            if group.fencing and self._epoch < group.epoch:
                # Superseded: retire instead of acking doomed writes (or
                # serving reads another epoch may have invalidated).
                self._manager._reject_fenced(group, self)
            result = getattr(group.primary_impl, member)(*args, **kwargs)
            if member not in group.readonly:
                try:
                    self._manager._after_write(group, member, args, kwargs)
                except QuorumLostError:
                    # Applied locally, never acknowledged: divergent until a
                    # reconciliation discards it (or a later quorum re-forms
                    # around this primary, making the local apply canonical).
                    self._divergent_ops.append((member, list(args), dict(kwargs)))
                    raise
            return result

        call.__name__ = member
        return call


class ReplicaManager:
    """Creates, synchronizes and fails over primary/backup replica groups.

    The manager is the control plane of the replication subsystem: it places
    backup copies on distinct nodes, keeps them in sync (eagerly or on a
    simulated-time interval), listens to a heartbeat detector, and promotes
    backups when primaries die — rebinding names and publishing
    :class:`~repro.runtime.remote_ref.RemoteRef` redirects that the
    fault-tolerance and pipelining layers use to re-route in-flight traffic.

    Parameters
    ----------
    cluster:
        The :class:`~repro.runtime.cluster.Cluster` hosting the replicas.
    application:
        Optional transformed application, enabling accessor-based state
        capture for transformed classes.
    detector:
        Optional :class:`~repro.network.heartbeat.HeartbeatDetector`; when
        given, the manager subscribes to its failure/recovery declarations.
    sync:
        Default synchronization mode for new groups: ``"eager"`` forwards
        every mutating call as it happens; ``"interval"`` ships state
        snapshots every ``sync_interval`` simulated seconds.
    sync_interval:
        Period of the interval-mode sync loop, in simulated seconds.
    transport:
        Transport used for replication traffic (``None`` = space default).
    """

    def __init__(
        self,
        cluster,
        *,
        application: Any = None,
        detector: Any = None,
        sync: str = "eager",
        sync_interval: float = 0.05,
        transport: Optional[str] = None,
    ) -> None:
        if sync not in SYNC_MODES:
            raise ReplicationError(f"unknown sync mode {sync!r} (use one of {SYNC_MODES})")
        if sync_interval <= 0:
            raise ReplicationError("sync_interval must be positive")
        self.cluster = cluster
        self.application = application
        self.detector = detector
        self.sync = sync
        self.sync_interval = sync_interval
        self.transport = transport
        self.running = True
        self._groups: Dict[str, ReplicaGroup] = {}
        self._by_primary_ref: Dict[RemoteRef, ReplicaGroup] = {}
        self._redirects: Dict[RemoteRef, RemoteRef] = {}
        #: Every completed failover, in promotion order.
        self.failovers: List[FailoverRecord] = []
        #: Every partition-heal reconciliation of a fenced ex-primary.
        self.reconciliations: List[ReconciliationRecord] = []
        if detector is not None:
            detector.on_failure(self.handle_node_down)
            detector.on_recovery(self.handle_node_recovered)

    # ------------------------------------------------------------------
    # group creation
    # ------------------------------------------------------------------

    def replicate(
        self,
        impl: Any,
        *,
        name: str,
        primary_node: str,
        backup_nodes: Sequence[str],
        readonly: Sequence[str] = (),
        sync: Optional[str] = None,
        factory: Optional[Callable[[], Any]] = None,
        quorum: int = 1,
        fencing: bool = False,
    ) -> ReplicaGroup:
        """Create a replica group for ``impl`` and return it.

        The implementation is exported from ``primary_node`` behind a
        :class:`ReplicatedObject` wrapper and bound to ``name`` in the
        cluster's naming service.  One backup copy (built by ``factory``,
        default: the implementation's class with no arguments) is seeded on
        each of ``backup_nodes`` by shipping a state snapshot over the
        network.  ``readonly`` names members that never mutate state and are
        therefore not forwarded to backups.

        ``quorum`` is the number of replica acks (the primary's local apply
        included) a write needs before it is acknowledged; ``quorum > 1``
        requires eager sync.  ``fencing`` stamps every replication frame
        with the group epoch, gates promotion on a majority of adoption
        votes, and makes superseded primaries retire themselves.
        """
        if name in self._groups:
            raise ReplicationError(f"replica group {name!r} already exists")
        mode = sync if sync is not None else self.sync
        if mode not in SYNC_MODES:
            raise ReplicationError(f"unknown sync mode {mode!r} (use one of {SYNC_MODES})")
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
        if quorum > 1 and mode != "eager":
            raise ReplicationError("quorum replication requires eager sync")

        primary_space = self.cluster.space(primary_node)
        interface_name = getattr(
            type(impl), "_repro_interface_name", type(impl).__name__
        )
        group = ReplicaGroup(
            name=name,
            class_name=type(impl).__name__,
            primary_node=primary_node,
            primary_ref=None,  # type: ignore[arg-type] - set right below
            primary_impl=impl,
            sync=mode,
            readonly=frozenset(readonly),
            quorum=quorum,
            fencing=fencing,
        )
        wrapper = ReplicatedObject(self, group)
        group.primary_wrapper = wrapper
        group.primary_ref = primary_space.export(wrapper, interface_name=interface_name)
        group.factory = factory if factory is not None else self._default_factory(impl)

        state = snapshot_state(impl, self.application)
        for node_id in backup_nodes:
            record = self._seed_backup(group, node_id, group.factory, state)
            group.backups[node_id] = record

        self._groups[name] = group
        self._by_primary_ref[group.primary_ref] = group
        self.cluster.naming.rebind(name, group.primary_ref)
        if mode == "interval":
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

    def _seed_backup(
        self,
        group: ReplicaGroup,
        node_id: str,
        make_copy: Callable[[], Any],
        state: dict,
    ) -> ReplicaRecord:
        """Create, export and state-sync one backup copy on ``node_id``."""
        copy = make_copy()
        endpoint = ReplicaEndpoint(
            copy, self.application, fencing=group.fencing, epoch=group.epoch
        )
        endpoint_ref = self.cluster.space(node_id).export(
            endpoint, interface_name=f"{group.class_name}.replica"
        )
        record = ReplicaRecord(node_id=node_id, endpoint_ref=endpoint_ref, impl=copy)
        try:
            self._primary_space(group).invoke_remote(
                endpoint_ref,
                "apply_state",
                self._stamp(group, (dict(state),)),
                transport=self.transport,
            )
            group.snapshots_shipped += 1
        except (NetworkError, RemoteInvocationError):
            record.healthy = False
        return record

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

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

    def group_for_ref(self, reference: RemoteRef) -> Optional[ReplicaGroup]:
        """The replica group whose (current) primary is ``reference``, if any."""
        return self._by_primary_ref.get(self.current_ref(reference))

    def can_fail_over(self, reference: RemoteRef) -> bool:
        """Whether traffic to ``reference`` can survive its node's death.

        True when a redirect is already published for it, or when it is the
        primary of a group that still has a promotable backup — the signal
        the retry layers use to keep trying instead of surfacing a fatal
        network error.
        """
        if self.current_ref(reference) != reference:
            return True
        group = self._by_primary_ref.get(reference)
        return group is not None and bool(self._promotable(group))

    def suggested_backoff(self) -> float:
        """Simulated seconds a retrier should wait between failover probes."""
        if self.detector is not None:
            return self.detector.interval
        return self.sync_interval

    # ------------------------------------------------------------------
    # write synchronization
    # ------------------------------------------------------------------

    def _stamp(self, group: ReplicaGroup, args: tuple) -> tuple:
        """Append the group epoch to a replication frame's arguments.

        Fencing groups put the epoch on the wire with every frame so a
        replica that adopted a newer epoch rejects the sender; legacy groups
        keep the original frame shape.
        """
        if group.fencing:
            return args + (group.epoch,)
        return args

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
        """React to one mutating call on the primary (from the wrapper).

        Eager mode forwards the call to every backup — immediately for a
        single invocation, but *deferred and batched* while the primary's
        space is dispatching a batch message: the whole window's writes then
        travel as one ``apply_ops`` message per backup (committed before the
        batch response leaves), cutting the write amplification from one
        message per write to one per dispatched batch.

        Quorum groups instead commit each write individually — majority ack
        before the response leaves — bypassing the batch deferral: deferring
        past the batch response would acknowledge writes the quorum might
        yet refuse.
        """
        if group.sync != "eager":
            group.dirty = True
            return
        if group.quorum > 1:
            self._quorum_write(group, member, args, kwargs)
            return
        space = self._primary_space(group)
        if getattr(space, "in_batch_dispatch", False):
            if not group.commit_armed:
                group.commit_armed = True
                space.on_batch_commit(lambda: self._flush_pending_ops(group))
            group.pending_ops.append((member, list(args), dict(kwargs)))
        else:
            self._propagate_op(group, member, args, kwargs)

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

    def _forward(
        self, group: ReplicaGroup, member: str, args: tuple, *, fenced_demotes: bool = False
    ) -> int:
        """Send one replication frame to every healthy backup; returns the acks.

        A lost forward — or a replay that failed on the backup, whose state
        has then diverged — demotes that copy only: it is no promotion
        candidate until a snapshot re-seeds it.  It must not fail the write
        the primary already executed, escape the batch-commit hook or the
        interval tick on the event queue, nor skip the remaining backups.
        With ``fenced_demotes`` a backup answering
        :class:`~repro.api.errors.FencedError` (it adopted a newer epoch: a
        partial promotion attempt) is treated the same way.
        """
        space = self._primary_space(group)
        frame = self._stamp(group, args)
        lost = (NetworkError, RemoteInvocationError) + ((FencedError,) if fenced_demotes else ())
        acks = 0
        for record in group.healthy_backups():
            try:
                space.invoke_remote(record.endpoint_ref, member, frame, transport=self.transport)
                acks += 1
            except lost:
                record.healthy = False
                self._schedule_reseed(group, record.node_id)
        return acks

    def _propagate_op(self, group: ReplicaGroup, member: str, args: tuple, kwargs: dict) -> None:
        """Forward one mutating call to every live backup (eager mode)."""
        space = self._primary_space(group)
        t0 = space.network.clock.now
        acks = self._forward(group, "apply_op", (member, list(args), dict(kwargs)))
        group.writes_propagated += acks
        group.forward_messages += acks
        self._trace_forwards(space, "replicate", t0, group=group.name, op=member)

    def _quorum_write(self, group: ReplicaGroup, member: str, args: tuple, kwargs: dict) -> None:
        """Commit one quorum-mode write: majority ack or no client ack.

        The primary's local apply (already done by the wrapper) counts as
        one ack; the call is then forwarded — epoch-stamped — to every live
        backup, a fenced answer demoting the backup like a lost forward.
        When fewer than ``group.quorum`` acks are gathered the write is
        refused with :class:`~repro.api.errors.QuorumLostError` — the caller
        is not acknowledged, and the wrapper records the local apply as
        divergent.
        """
        space = self._primary_space(group)
        t0 = space.network.clock.now
        forwarded = self._forward(
            group, "apply_op", (member, list(args), dict(kwargs)), fenced_demotes=True
        )
        group.writes_propagated += forwarded
        group.forward_messages += forwarded
        acks = 1 + forwarded  # the primary's own apply
        self._trace_forwards(
            space, "quorum-write", t0, group=group.name, op=member, acks=acks
        )
        if acks < group.quorum:
            group.quorum_failures += 1
            raise QuorumLostError(
                f"write {member!r} on replica group {group.name!r} gathered "
                f"{acks} of the {group.quorum} acknowledgements required"
            )
        group.acked_writes += 1

    def _flush_pending_ops(self, group: ReplicaGroup) -> None:
        """Ship the batch-deferred writes: one ``apply_ops`` per live backup."""
        # Disarm first: whatever happens below, the next batch must register
        # a fresh hook rather than silently appending to a dead buffer.
        group.commit_armed = False
        ops, group.pending_ops = group.pending_ops, []
        if not ops:
            return
        space = self._primary_space(group)
        t0 = space.network.clock.now
        acks = self._forward(group, "apply_ops", ([list(op) for op in ops],))
        group.writes_propagated += acks * len(ops)
        group.forward_messages += acks
        self._trace_forwards(
            space, "replicate-batch", t0, group=group.name, ops=len(ops)
        )

    def sync_now(self, group: ReplicaGroup) -> int:
        """Ship a state snapshot to every live backup; returns copies synced."""
        state = snapshot_state(group.primary_impl, self.application)
        synced = self._forward(group, "apply_state", (state,))
        group.snapshots_shipped += synced
        group.dirty = False
        return synced

    def _schedule_sync(self, group: ReplicaGroup) -> None:
        """Run the interval-mode sync loop for ``group`` on the event queue."""

        def tick() -> None:
            if not self.running or self._groups.get(group.name) is not group:
                return
            if group.dirty and not self._node_down(group.primary_node):
                self.sync_now(group)
            self.cluster.network.events.schedule(self.sync_interval, tick)

        self.cluster.network.events.schedule(self.sync_interval, tick)

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------

    def handle_node_down(self, node_id: str, at_time: float = 0.0) -> None:
        """React to a node being declared dead (heartbeat listener).

        Backups hosted there become unusable; every group whose primary
        lived there is failed over to its freshest backup (groups with no
        promotable backup are left as they are — traffic keeps failing until
        the node recovers).

        Fencing groups treat the monitor's view as advisory for *promotion*
        only: their backups are not demoted on a declaration alone, because
        a monitor blinded by an asymmetric partition would otherwise poison
        a perfectly healthy data plane — the primary demotes backups from
        its own failed forwards, which it can actually observe.
        """
        for group in self._groups.values():
            if group.fencing:
                continue
            record = group.backups.get(node_id)
            if record is not None:
                record.healthy = False
        for group in list(self._groups.values()):
            if group.primary_node == node_id and self._promotable(group):
                if group.fencing:
                    # A vetoed promotion (no majority of adoption votes —
                    # e.g. the monitor is the partitioned party) is a normal
                    # outcome, not an event-pump crash: the group simply
                    # stays unpromoted until the view changes.
                    try:
                        self.failover(group)
                    except ReplicationError:
                        continue
                else:
                    self.failover(group)

    def handle_node_recovered(self, node_id: str, at_time: float = 0.0) -> None:
        """React to a declared-dead node answering again (heartbeat listener).

        The node's copies are stale (it missed writes while unreachable), so
        every group with a replica slot there is re-seeded with a fresh
        snapshot of the current primary and re-enlisted as a healthy backup —
        which restores redundancy after a failover and makes fail-*back*
        possible on the next crash.
        """
        for group in self._groups.values():
            if group.primary_node == node_id:
                # The primary itself is back (it never failed over, e.g. its
                # backups were down too): restore the redundancy it lost.
                for other, record in list(group.backups.items()):
                    if not record.healthy and not self._node_down(other):
                        self._reenlist(group, other)
                continue
            record = group.backups.get(node_id)
            if record is None or record.healthy:
                continue
            if self._node_down(group.primary_node):
                # Cannot seed from a dead primary; the primary's own recovery
                # (branch above) re-enlists this slot when it returns.
                continue
            self._reconcile_stale_primary(group, node_id)
            self._reenlist(group, node_id)
            refreshed = group.backups.get(node_id)
            if refreshed is not None and not refreshed.healthy:
                self._schedule_reseed(group, node_id)

    def _reconcile_stale_primary(self, group: ReplicaGroup, node_id: str) -> None:
        """Reconcile a healed node that was a fenced primary of ``group``.

        The superseded wrapper's divergent ops — writes it applied locally
        that never gathered a quorum and were never acknowledged — are
        **discarded**, not replayed: the quorum that fenced this primary is
        the canonical history, and the client was told those writes failed.
        The stale export is then retired (the heal makes the node reachable
        again, so the retirement that the partition blocked at failover time
        can finally happen) before :meth:`_reenlist` re-seeds the node from
        the current primary's state.
        """
        remaining: List[StalePrimary] = []
        for stale in group.stale_primaries:
            if stale.node_id != node_id:
                remaining.append(stale)
                continue
            discarded = len(stale.wrapper._divergent_ops)
            stale.wrapper._divergent_ops.clear()
            group.ops_discarded += discarded
            if node_id in self.cluster:
                self.cluster.space(node_id).unexport(stale.ref)
            self.reconciliations.append(
                ReconciliationRecord(
                    group_name=group.name,
                    node_id=node_id,
                    epoch=stale.epoch,
                    ops_discarded=discarded,
                    simulated_time=self.cluster.network.clock.now,
                )
            )
        group.stale_primaries = remaining

    def _reenlist(self, group: ReplicaGroup, node_id: str) -> None:
        """Re-seed ``node_id`` as a healthy backup of ``group``.

        The existing record is replaced only once the fresh copy's seeding
        snapshot actually landed.  When it fails (the node may still be
        unreachable from the primary — e.g. mid-partition), the half-seeded
        export is retired and the old record kept: a stale copy that a
        fencing promotion can still elect by vote beats an empty husk that
        would lose every acknowledged write if promoted.
        """
        stale = group.backups.get(node_id)
        make_copy = group.factory or self._default_factory(group.primary_impl)
        state = snapshot_state(group.primary_impl, self.application)
        fresh = self._seed_backup(group, node_id, make_copy, state)
        if not fresh.healthy and stale is not None and stale.endpoint_ref is not None:
            self.cluster.space(node_id).unexport(fresh.endpoint_ref)
            return
        if stale is not None and stale.endpoint_ref is not None:
            # Retire the stale endpoint so crash/recover cycles do not leak
            # exports (or leave an out-of-date copy answering invocations).
            self.cluster.space(node_id).unexport(stale.endpoint_ref)
        group.backups[node_id] = fresh

    def _schedule_reseed(
        self, group: ReplicaGroup, node_id: str, attempt: int = 1, max_attempts: int = 8
    ) -> None:
        """Restore a backup demoted by lost replication traffic.

        A *transient* loss (a dropped forward) demotes the copy even though
        its host node is alive — without this loop the group would silently
        run unprotected forever.  A snapshot re-seed is retried with linear
        backoff while the host stays up; a host that is actually down is
        left to the detector's recovery path (:meth:`handle_node_recovered`).
        """

        def tick() -> None:
            if not self.running or self._groups.get(group.name) is not group:
                return
            record = group.backups.get(node_id)
            if record is None or record.healthy or group.primary_node == node_id:
                return
            if self._node_down(node_id) or self._node_down(group.primary_node):
                # Either side is down right now: keep the retry alive (the
                # detector's recovery declarations also re-enlist, but they
                # can race a seeding failure — see handle_node_recovered).
                if attempt < max_attempts:
                    self._schedule_reseed(group, node_id, attempt + 1, max_attempts)
                return
            self._reenlist(group, node_id)
            refreshed = group.backups.get(node_id)
            if (
                refreshed is not None
                and not refreshed.healthy
                and attempt < max_attempts
            ):
                self._schedule_reseed(group, node_id, attempt + 1, max_attempts)

        self.cluster.network.events.schedule(self.suggested_backoff() * attempt, tick)

    def _majority(self, group: ReplicaGroup) -> int:
        """Votes a promotion needs: a majority of the group's voters.

        Voters are every replica slot — the (presumed-dead) primary plus all
        enrolled backups — so the threshold stays fixed at ``N // 2 + 1`` of
        the group's size even while some slots are unreachable.
        """
        voters = 1 + len(group.backups)
        return voters // 2 + 1

    def _collect_promotion_votes(
        self, group: ReplicaGroup, new_epoch: int
    ) -> Tuple[int, List[str]]:
        """Ask every backup endpoint to adopt ``new_epoch``; returns the acks.

        Votes are solicited **from the failure monitor's node** (falling
        back to the first promotable candidate's): the monitor is the party
        claiming the primary is dead, so its own connectivity is what the
        vote tests.  A monitor blinded by an asymmetric partition collects
        no acks and the promotion is vetoed — it cannot mint a second
        primary no matter what its detector believes.  Each ack also fences
        the voter: having adopted ``new_epoch``, it will bounce every frame
        the superseded primary still sends.  Returns the vote count and the
        node ids that voted, so :meth:`failover` can prefer a voter — a
        replica proven reachable and already committed to the new epoch —
        as the promotion target.
        """
        monitor_node = getattr(self.detector, "monitor_node", None)
        if monitor_node is not None and monitor_node in self.cluster:
            vote_space = self.cluster.space(monitor_node)
        else:
            vote_space = self.cluster.space(self._promotable(group)[0].node_id)
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
                    record.endpoint_ref,
                    "adopt_epoch",
                    (new_epoch,),
                    transport=self.transport,
                )
                votes += 1
                voted.append(record.node_id)
            except (NetworkError, RemoteInvocationError, FencedError):
                continue
        return votes, voted

    def failover(self, group: ReplicaGroup) -> FailoverRecord:
        """Promote the freshest backup of ``group`` to primary.

        The backup copy becomes the new primary implementation behind a new
        :class:`ReplicatedObject` export on its node, the group's name is
        rebound in the naming service, and a redirect ``old ref → new ref``
        is published for the retry layers.  The dead ex-primary's node stays
        enrolled as an (unhealthy) backup slot so a later recovery re-seeds
        it.  Raises :class:`~repro.api.errors.ReplicationError` when no healthy
        backup exists.

        Fencing groups promote by **vote**: a majority of the group's voters
        must acknowledge ``adopt_epoch`` (collected from the failure
        monitor's node) or the promotion is vetoed with
        :class:`~repro.api.errors.QuorumLostError`.  They also never reach
        across the partition to retire the old primary's export — the
        superseded wrapper is recorded as a :class:`StalePrimary`, fences
        itself on its next call, and is reconciled when its node heals.
        """
        candidates = self._promotable(group)
        if not candidates:
            raise ReplicationError(
                f"replica group {group.name!r} has no promotable backup"
            )
        votes = 0
        voted: List[str] = []
        if group.fencing:
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
        # Prefer a candidate that voted: it is proven reachable and already
        # committed to the new epoch (pure preference — a majority elsewhere
        # still fences the old primary even if no candidate voted).
        promoted = next(
            (record for record in candidates if record.node_id in voted),
            candidates[0],
        )
        old_node, old_ref = group.primary_node, group.primary_ref
        old_wrapper, old_epoch = group.primary_wrapper, group.epoch
        new_space = self.cluster.space(promoted.node_id)

        # The endpoint retires; its copy becomes the primary implementation.
        new_space.unexport(promoted.endpoint_ref)
        group.primary_impl = promoted.impl
        group.primary_node = promoted.node_id
        group.epoch += 1
        wrapper = ReplicatedObject(self, group)
        group.primary_wrapper = wrapper
        group.primary_ref = new_space.export(
            wrapper, interface_name=old_ref.interface_name
        )
        del group.backups[promoted.node_id]
        stale_subscribers: Dict[str, Optional[float]] = {}
        if group.fencing:
            # Never reach across the partition: the old node may be alive
            # and merely unreachable from the monitor, in which case its
            # space cannot be trusted (or, in a real deployment, reached) to
            # hand over state.  Record the superseded wrapper instead; it
            # fences itself on its next call and the heal reconciles it.
            if old_wrapper is not None:
                group.stale_primaries.append(
                    StalePrimary(
                        node_id=old_node,
                        ref=old_ref,
                        epoch=old_epoch,
                        wrapper=old_wrapper,
                    )
                )
        elif old_node in self.cluster:
            # Capture the demoted primary's cache subscribers BEFORE
            # retiring its export (unexport purges the coherence
            # bookkeeping), so the promoted node can still flush their
            # leases below.
            stale_subscribers = self.cluster.space(old_node).take_cache_subscribers(
                old_ref.object_id
            )
            # Retire the superseded export: should the dead node come back,
            # its stale wrapper must not keep answering writes at the old
            # reference.
            self.cluster.space(old_node).unexport(old_ref)
        # Keep the dead node enrolled so recovery can re-enlist it.
        group.backups[old_node] = ReplicaRecord(
            node_id=old_node, endpoint_ref=None, impl=None, healthy=False
        )

        self._redirects[old_ref] = group.primary_ref
        self._by_primary_ref.pop(old_ref, None)
        self._by_primary_ref[group.primary_ref] = group
        self.cluster.naming.rebind(group.name, group.primary_ref)
        if group.fencing:
            # Without the old node's subscriber table (unreachable, above),
            # flush the old reference from *every* peer, stamped with the
            # new epoch: subscribers drop their leases immediately, the
            # epoch floor advances, and any later ``!inv`` the fenced
            # ex-primary mints at the old epoch is rejected on arrival.
            peers = [
                node for node in self.cluster.node_ids() if node != group.primary_node
            ]
            new_space.send_cache_invalidations(
                [old_ref.object_id], peers, epoch=group.epoch
            )
        elif stale_subscribers:
            # Flush cache leases held against the demoted primary: it can no
            # longer invalidate anyone, so the *promoted* node sends the
            # invalidation for the old reference — readers drop their entries
            # immediately rather than serving them until the lease runs out.
            # (Entry keys also re-home naturally: the promoted primary is a
            # fresh export, so post-failover reads miss and re-fill.)
            new_space.send_cache_invalidations(
                [old_ref.object_id], list(stale_subscribers)
            )

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

    # ------------------------------------------------------------------

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
        self._by_primary_ref.pop(group.primary_ref, None)
        self._redirects = {
            old: new
            for old, new in self._redirects.items()
            if new != group.primary_ref
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

        The single source of truth for "can this group fail over" — the
        heartbeat listener must apply exactly this filter before calling
        :meth:`failover`, or a group whose every backup host is also dead
        would raise out of the listener and crash the event pump.

        Legacy groups require ``record.healthy``; fencing groups do **not**:
        the healthy flag reflects the *primary's* failed forwards, and when
        the primary is the partitioned party it has demoted every backup it
        lost sight of — the very replicas the promotion must choose from.
        For them any seeded, non-crashed slot is a candidate (healthy ones
        preferred), and the adoption-vote round is what actually tests
        reachability and majority before the promotion commits.
        """
        if group.fencing:
            candidates = [
                record
                for record in group.backups.values()
                if record.endpoint_ref is not None
                and record.impl is not None
                and not self._node_down(record.node_id)
            ]
            candidates.sort(key=lambda record: not record.healthy)
            return candidates
        return [
            record
            for record in group.healthy_backups()
            if not self._node_down(record.node_id)
        ]

    def _node_down(self, node_id: str) -> bool:
        return self.cluster.network.failures.is_node_down(node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicaManager groups={sorted(self._groups)} "
            f"failovers={len(self.failovers)}>"
        )
