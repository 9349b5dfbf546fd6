"""Tests for majority-quorum replication, epoch fencing and reconciliation.

Covers the quorum write path (majority ack or a typed refusal, for a lone
write and for a batch's writes alike), the epoch
machinery on :class:`~repro.runtime.replication.ReplicaEndpoint` (frames
from superseded epochs bounce with ``FencedError``, ``adopt_epoch`` doubles
as the promotion vote), vote-gated promotion (a blinded monitor is vetoed;
a majority elects a new epoch), stale-primary self-fencing, the epoch floor
on ``!inv`` frames, and the quorum knobs on ``ServicePolicy``.
"""

from __future__ import annotations

import matrix
import pytest
from replication_invariants import check_replication_invariants, holds_order

from repro.api import ServicePolicy
from repro.api.errors import (
    FencedError,
    NetworkError,
    PartitionError,
    PolicyError,
    QuorumLostError,
    ReplicationError,
)
from repro.api.middleware import MetricsInterceptor
from repro.observability.tracing import Tracer
from repro.runtime.caching import CacheManager
from repro.runtime.cluster import Cluster
from repro.runtime.replication import ReplicaEndpoint, ReplicaManager
from repro.transports.base import frame_subscription
from repro.workloads.bulk_orders import INTAKE_READONLY, OrderIntake


@pytest.fixture
def cluster():
    return Cluster(("monitor", "client", "a", "b", "c"))


def _manager(cluster, monitor="monitor") -> ReplicaManager:
    return matrix.detected_manager(cluster, monitor)


def _quorum_group(manager, primary="a", backups=("b", "c"), transport=None):
    return manager.replicate(
        OrderIntake(),
        name="orders",
        primary_node=primary,
        backup_nodes=list(backups),
        readonly=INTAKE_READONLY,
        quorum=2,
        transport=transport,
    )


def _pump(cluster, seconds):
    cluster.network.events.run_until(cluster.network.clock.now + seconds)


class TestEndpointFencing:
    def test_frames_from_older_epochs_are_rejected(self):
        endpoint = ReplicaEndpoint(OrderIntake(), epoch=3)
        with pytest.raises(FencedError) as excinfo:
            endpoint.apply_op("submit", ["sku", 1, 10], {}, 2)
        assert excinfo.value.stale_epoch == 2
        assert excinfo.value.current_epoch == 3
        assert endpoint.fenced_rejections == 1
        assert endpoint.ops_applied == 0

    def test_newer_epoch_frames_are_adopted(self):
        endpoint = ReplicaEndpoint(OrderIntake(), epoch=1)
        endpoint.apply_op("submit", ["sku", 1, 10], {}, 4)
        assert endpoint.epoch == 4
        assert endpoint.ops_applied == 1

    def test_unstamped_frames_pass_for_compatibility(self):
        endpoint = ReplicaEndpoint(OrderIntake(), epoch=5)
        endpoint.apply_op("submit", ["sku", 1, 10], {})
        assert endpoint.ops_applied == 1

    def test_adopt_epoch_votes_once_per_epoch(self):
        endpoint = ReplicaEndpoint(OrderIntake(), epoch=0)
        assert endpoint.adopt_epoch(1) == 1
        # A duplicate (or superseded) promotion attempt is rejected: the
        # replica has already committed to this epoch.
        with pytest.raises(FencedError):
            endpoint.adopt_epoch(1)
        with pytest.raises(FencedError):
            endpoint.adopt_epoch(0)


class TestQuorumWrites:
    def test_majority_ack_commits_the_write(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        wrapper = group.primary_wrapper
        wrapper.submit("sku", 1, 10)
        assert group.acked_writes == 1
        assert group.quorum_failures == 0
        for record in group.backups.values():
            assert record.impl.accepted_count() == 1

    def test_lost_majority_refuses_with_quorum_lost(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        cluster.network.failures.partition(["a"], ["b", "c"])
        with pytest.raises(QuorumLostError):
            group.primary_wrapper.submit("sku", 1, 10)
        assert group.quorum_failures == 1
        # The local apply happened but was never acknowledged: the write
        # holds seq 1 of the log, and no backup acknowledged it.
        assert group.seq == 1
        assert [record.acked for record in group.backups.values()] == [0, 0]
        assert group.primary_impl.accepted_count() == 1

    def test_a_refusal_names_no_group(self):
        """The refusal a client reads carries no group name: two groups whose
        names differ in length refuse with responses of one length."""
        lengths = []
        for name in ("g#1", "g#1-under-a-much-longer-name"):
            cluster = Cluster(("monitor", "client", "a", "b", "c"))
            group = _manager(cluster).replicate(
                OrderIntake(), name=name, primary_node="a", backup_nodes=["b", "c"],
                readonly=INTAKE_READONLY, quorum=2,
            )
            cluster.network.failures.partition(["a"], ["b", "c"])
            responses, send = [], cluster.network.send_request
            cluster.network.send_request = lambda *call, **options: (
                responses.append(send(*call, **options)) or responses[-1])
            with pytest.raises(QuorumLostError) as refused:
                cluster.space("client").invoke_remote(
                    group.primary_ref, "submit", ("sku", 1, 10), transport="rmi")
            (response,) = responses
            assert name.encode() not in response and name not in str(refused.value)
            lengths.append(len(response))
        assert lengths[0] == lengths[1]

    def test_single_backup_loss_still_reaches_quorum(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        cluster.network.failures.partition(["a"], ["b"])
        group.primary_wrapper.submit("sku", 1, 10)
        assert group.acked_writes == 1
        # The unreachable backup was demoted, the reachable one acked.
        assert not group.backups["b"].healthy
        assert group.backups["c"].healthy

    def test_replicate_validates_quorum_bounds(self, cluster):
        manager = _manager(cluster)
        for bad in (0, 4):
            with pytest.raises(ReplicationError):
                manager.replicate(
                    OrderIntake(),
                    name=f"bad-{bad}",
                    primary_node="a",
                    backup_nodes=["b", "c"],
                    quorum=bad,
                )

    def test_quorum_requires_eager_sync(self, cluster):
        manager = _manager(cluster)
        with pytest.raises(ReplicationError):
            manager.replicate(
                OrderIntake(),
                name="interval-quorum",
                primary_node="a",
                backup_nodes=["b"],
                sync="interval",
                quorum=2,
            )


class TestVoteGatedPromotion:
    def test_majority_vote_promotes_and_bumps_epoch(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        cluster.network.failures.partition(["monitor"], ["a"])
        _pump(cluster, 0.02)
        assert len(manager.failovers) == 1
        record = manager.failovers[0]
        assert record.votes == 2
        assert record.epoch == 1
        assert group.epoch == 1
        assert group.primary_node in ("b", "c")
        check_replication_invariants(manager, group)

    def test_blinded_monitor_promotion_is_vetoed(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        cluster.network.failures.partition(["monitor"], ["a", "b", "c"])
        _pump(cluster, 0.02)
        assert manager.failovers == []
        assert group.promotions_vetoed >= 1
        assert group.epoch == 0
        # The data plane was never poisoned by the blinded monitor: writes
        # keep gathering their quorum.
        group.primary_wrapper.submit("sku", 1, 10)
        assert group.acked_writes == 1

    def test_direct_failover_call_is_also_vetoed(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        cluster.network.failures.partition(["monitor"], ["a", "b", "c"])
        _pump(cluster, 0.02)
        with pytest.raises(QuorumLostError):
            manager.failover(group)

    def test_isolated_primary_demotions_do_not_block_promotion(self, cluster):
        # The primary loses its backups first (demoting their records),
        # then the monitor declares it: promotion must still find the
        # backups promotable — their health flags reflect the dead
        # primary's view, and the vote round is what tests reachability.
        manager = _manager(cluster)
        group = _quorum_group(manager)
        cluster.network.failures.partition(["a"], ["monitor", "b", "c"])
        with pytest.raises(QuorumLostError):
            group.primary_wrapper.submit("sku", 1, 10)
        assert group.healthy_backups() == []
        _pump(cluster, 0.02)
        assert len(manager.failovers) == 1
        assert group.epoch == 1
        check_replication_invariants(manager, group)


class TestStalePrimaryFencing:
    def _promote_away_from_a(self, cluster, manager, group):
        cluster.network.failures.partition(["monitor"], ["a"])
        _pump(cluster, 0.02)
        assert group.epoch == 1
        return manager.failovers[0]

    def test_superseded_wrapper_fences_itself(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        old_wrapper = group.primary_wrapper
        self._promote_away_from_a(cluster, manager, group)
        with pytest.raises(FencedError):
            old_wrapper.submit("sku", 1, 10)
        assert group.fenced_calls == 1
        assert group.stale_primaries[0].retired is True

    def test_fenced_reads_are_rejected_too(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        old_wrapper = group.primary_wrapper
        self._promote_away_from_a(cluster, manager, group)
        with pytest.raises(FencedError):
            old_wrapper.accepted_count()

    def test_fenced_ex_primary_frames_bounce_off_voters(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        self._promote_away_from_a(cluster, manager, group)
        # A voter adopted epoch 1; a frame the old primary would send at
        # epoch 0 is rejected on arrival.
        surviving_backup = next(iter(group.backups.values()))
        if surviving_backup.endpoint_ref is not None:
            with pytest.raises((FencedError, Exception)):
                cluster.space("a").invoke_remote(
                    surviving_backup.endpoint_ref,
                    "apply_op",
                    ("submit", ["sku", 1, 10], {}, 0),
                )

    def test_heal_reconciles_divergence_and_reseeds(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        old_wrapper = group.primary_wrapper
        # Isolate the primary completely: a write diverges, the monitor
        # promotes by majority vote.
        cluster.network.failures.partition(["a"], ["monitor", "b", "c"])
        with pytest.raises(QuorumLostError):
            old_wrapper.submit("sku", 1, 10)
        _pump(cluster, 0.02)
        assert group.epoch == 1
        # The write past the promoted backup's acknowledged seq diverged.
        assert group.stale_primaries[0].divergent == 1
        # Heal: the recovery declaration reconciles the fenced ex-primary —
        # divergent ops discarded, node re-seeded from the quorum's state.
        cluster.network.failures.heal()
        _pump(cluster, 0.1)
        assert group.ops_discarded == 1
        assert len(manager.reconciliations) == 1
        assert manager.reconciliations[0].node_id == "a"
        assert group.stale_primaries == []
        record = group.backups["a"]
        assert record.healthy
        # Re-seeded from the current primary: the divergent write is gone.
        assert record.impl.accepted_count() == 0
        check_replication_invariants(manager, group)

    def test_quorum_writes_leave_the_log_empty(self, cluster):
        manager = _manager(cluster)
        group = _quorum_group(manager)
        client = cluster.space("client")
        for i in range(5):
            client.invoke_remote(group.primary_ref, "submit", (f"sku-{i}", 1, 10))
            assert group.log == []
        # Inside a batch the quorum writes commit together, before the
        # batch response is framed: one ``apply_ops`` per backup.
        forwards = group.forward_messages
        client.invoke_remote_many(
            [(group.primary_ref, "submit", (f"sku-{5 + i}", 1, 10), {}) for i in range(8)]
        )
        assert group.log == [] and group.seq == 13 and group.acked_writes == 13
        assert [record.acked for record in group.backups.values()] == [13, 13]
        assert group.forward_messages - forwards == 2


#: Partitions in place before the eight writes of an outcome-oracle row.
OUTCOME_CELLS = {
    "healthy": (),
    "one backup cut off": ((["a"], ["b"]),),
    "both backups cut off": ((["a"], ["b", "c"]),),
    "primary partitioned from all": ((["a"], ["client", "b", "c"]),),
    "catch-up raises": (),
}


def _raising_catch_up(*args, **kwargs):
    raise RuntimeError("catch-up bug")


def _outcomes(cell, transport, batched, caller="client"):
    """Eight quorum writes from ``caller`` as one batch or as eight plain
    calls; what each call answered and what the group and the primary's
    server chain counted."""
    cluster = Cluster(("client", "a", "b", "c"), default_transport=transport)
    manager = ReplicaManager(cluster)
    group = _quorum_group(manager, transport=transport)
    metrics = MetricsInterceptor()
    cluster.space("a").use_middleware([metrics])
    for left, right in OUTCOME_CELLS[cell]:
        cluster.network.failures.partition(left, right)
    if cell == "catch-up raises":
        manager._catch_up = _raising_catch_up
    client = cluster.space(caller)
    calls = [(group.primary_ref, "submit", (f"sku-{i}", 1, 10), {}) for i in range(8)]
    if batched:
        try:
            results = client.invoke_remote_many(calls, transport=transport)
            answers = [matrix.outcome(result.unwrap) for result in results]
        except NetworkError as error:
            answers = [matrix.raised(error)] * len(calls)
    else:
        answers = [
            matrix.outcome(client.invoke_remote, reference, member, args, transport=transport)
            for reference, member, args, _kwargs in calls
        ]
    acked = [f"sku-{i}" for i, answer in enumerate(answers) if isinstance(answer, matrix.Value)]
    check_replication_invariants(manager, group, acked=acked)
    return {
        "answers": answers,
        "acked_writes": group.acked_writes,
        "quorum_failures": group.quorum_failures,
        "acked": {node: record.acked for node, record in group.backups.items()},
        "server_errors": sum(row["errors"] for row in metrics.snapshot().values()),
    }


#: Eight writes acknowledged, each answering its order's id, and eight
#: refused alike.
ACKED = [matrix.Value(i) for i in range(8)]
QUORUM_LOST = [matrix.Raised(QuorumLostError)] * 8


class TestBatchedQuorumOutcomes:
    """A batch's quorum writes commit once and are refused together: the
    batch answers every call as eight plain calls would have been answered,
    and the group and the primary's server chain count the same.  A commit
    that raises unexpectedly refuses the writes too; it never lets them be
    acknowledged."""

    #: The answers to the eight calls, by cell, for a caller on ``client``
    #: and one co-located with the primary on ``a`` (no wire, no server
    #: chain: a local error is its own class, not a remote one).
    EXPECTED_ANSWERS = {
        "healthy": (ACKED, ACKED),
        "one backup cut off": (ACKED, ACKED),
        "both backups cut off": (QUORUM_LOST, QUORUM_LOST),
        "primary partitioned from all": ([matrix.Raised(PartitionError)] * 8, QUORUM_LOST),
        "catch-up raises": (
            [matrix.remote("RuntimeError")] * 8, [matrix.Raised(RuntimeError)] * 8,
        ),
    }

    @pytest.mark.parametrize("caller", ["client", "a"])
    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    @pytest.mark.parametrize("cell", list(OUTCOME_CELLS))
    def test_a_batch_is_answered_like_its_plain_calls(self, cell, transport, caller):
        batched = _outcomes(cell, transport, True, caller)
        assert batched == _outcomes(cell, transport, False, caller)
        assert batched["answers"] == self.EXPECTED_ANSWERS[cell][caller == "a"]



class TestPromotionKeepsAckedWrites:
    """Promotion picks the backup that acknowledged the highest seq.

    The probe: primary ``a``, backups ``b`` and ``c``, quorum 2.  One backup
    is cut off from ``a`` and misses W1, which ``a`` and the other backup
    acknowledge; then the other backup is cut off too, so W2 is refused; then
    ``a`` crashes.  Both backups are unhealthy in ``a``'s eyes and both vote,
    so only the acknowledged seq tells them apart: the one holding W1 must
    win, whichever was enrolled first.
    """

    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    @pytest.mark.parametrize("missed", ["b", "c"], ids=["first-enrolled-missed-W1",
                                                       "second-enrolled-missed-W1"])
    def test_the_backup_holding_w1_is_promoted(self, transport, missed):
        holder = {"b": "c", "c": "b"}[missed]
        cluster = Cluster(("monitor", "client", "a", "b", "c"), default_transport=transport)
        manager = _manager(cluster)
        group = _quorum_group(manager, transport=transport)
        client, failures = cluster.space("client"), cluster.network.failures

        failures.partition(["a"], [missed])
        client.invoke_remote(group.primary_ref, "submit", ("W1", 1, 10))
        failures.partition(["a"], [holder])
        with pytest.raises(QuorumLostError):
            client.invoke_remote(group.primary_ref, "submit", ("W2", 1, 10))
        failures.crash_node("a")
        _pump(cluster, 0.02)

        assert [record.to_node for record in manager.failovers] == [holder]
        check_replication_invariants(manager, group, acked=("W1",))

        failures.heal()
        failures.recover_node("a")
        _pump(cluster, 0.1)
        replicas = [group.primary_impl] + [record.impl for record in group.backups.values()]
        assert all(record.healthy for record in group.backups.values())
        assert [holds_order(impl, "W1") for impl in replicas] == [True] * 3
        assert [holds_order(impl, "W2") for impl in replicas] == [False] * 3
        assert group.ops_discarded == 1
        check_replication_invariants(manager, group, acked=("W1",))

    def test_a_backup_ahead_of_the_promoted_one_is_reseeded(self):
        """Below a majority quorum an acked write can sit on a crashed backup
        only; the promotion then starts a history without it, so that backup
        is demoted instead of passing for current once the new seq catches
        up with its stale one.  Quorum 2 of 5 replicas is below the majority
        of 3, and fenced like every quorum above one."""
        cluster = Cluster(("a", "b", "c", "d", "e"))
        manager = ReplicaManager(cluster)
        group = manager.replicate(
            OrderIntake(), name="orders", primary_node="a", backup_nodes=["b", "c", "d", "e"],
            readonly=INTAKE_READONLY, quorum=2,
        )
        failures = cluster.network.failures
        failures.partition(["a"], ["b", "d", "e"])
        group.primary_wrapper.submit("W1", 1, 10)  # acked by a and c only
        failures.crash_node("c")
        manager.failover(group)
        assert group.primary_node == "b" and group.seq == 0
        assert not group.backups["c"].healthy
        assert group.stale_primaries[0].divergent == 1
        failures.heal()
        # W1's lost frames demoted d and e; their reseed ticks give W2 its
        # second ack.
        _pump(cluster, 0.1)
        assert group.backups["d"].healthy and group.backups["e"].healthy
        group.primary_wrapper.submit("W2", 1, 10)
        failures.recover_node("c")
        manager.handle_node_recovered("c")
        copy = group.backups["c"]
        assert copy.healthy and copy.acked == group.seq == 1
        assert holds_order(copy.impl, "W2") and not holds_order(copy.impl, "W1")


class TestInvalidationEpochFloor:
    def test_stale_epoch_invalidations_are_rejected(self, cluster):
        space_a, space_b = cluster.space("a"), cluster.space("b")
        ref = space_a.export(OrderIntake())
        space_a.coherence.send_cache_invalidations([ref.object_id], ["b"], epoch=2)
        assert space_b.coherence.stale_invalidations_rejected == 0
        space_a.coherence.send_cache_invalidations([ref.object_id], ["b"], epoch=1)
        assert space_b.coherence.stale_invalidations_rejected == 1

    def test_equal_and_newer_epochs_advance_the_floor(self, cluster):
        space_a, space_b = cluster.space("a"), cluster.space("b")
        ref = space_a.export(OrderIntake())
        space_a.coherence.send_cache_invalidations([ref.object_id], ["b"], epoch=1)
        space_a.coherence.send_cache_invalidations([ref.object_id], ["b"], epoch=1)
        space_a.coherence.send_cache_invalidations([ref.object_id], ["b"], epoch=3)
        assert space_b.coherence.stale_invalidations_rejected == 0

    def test_unstamped_invalidations_always_apply(self, cluster):
        space_a, space_b = cluster.space("a"), cluster.space("b")
        ref = space_a.export(OrderIntake())
        space_a.coherence.send_cache_invalidations([ref.object_id], ["b"], epoch=4)
        space_a.coherence.send_cache_invalidations([ref.object_id], ["b"])
        assert space_b.coherence.stale_invalidations_rejected == 0
        assert space_b.coherence.invalidations_received >= 2


class TestPolicyQuorumKnobs:
    def test_majority_quorum_is_computed_from_replicas(self):
        policy = ServicePolicy().with_replication(3, quorum="majority")
        assert policy.replication_factor == 3
        assert policy.quorum == 2
        assert policy.quorum_replicated

    def test_explicit_integer_quorum(self):
        policy = ServicePolicy().with_replication(5, quorum=3)
        assert policy.quorum == 3
        assert policy.quorum_replicated  # fenced, as every quorum above one

    def test_quorum_above_factor_rejected(self):
        with pytest.raises(PolicyError):
            ServicePolicy().with_replication(2, quorum=3)

    def test_quorum_requires_eager_sync(self):
        with pytest.raises(PolicyError):
            ServicePolicy().with_replication(3, quorum=2, sync="interval")

    def test_bare_call_is_refused_naming_both_spellings(self):
        for bare in (
            lambda: ServicePolicy().with_replication(2),
            lambda: ServicePolicy().with_replication(),
        ):
            with pytest.raises(PolicyError, match=r'quorum="majority".*quorum=<int>'):
                bare()

    def test_primary_ack_mode_is_spelled_quorum_one(self):
        policy = ServicePolicy().with_replication(2, quorum=1)
        assert policy.replication_factor == 2
        assert policy.quorum == 1
        assert not policy.quorum_replicated

    def test_explicit_quorum_call_is_warning_free(self, recwarn):
        ServicePolicy().with_replication(3, quorum="majority")
        assert not [
            warning
            for warning in recwarn.list
            if issubclass(warning.category, DeprecationWarning)
        ]


class TestFencingFollowsQuorum:
    """A group's one switch is its quorum: above one it is fenced."""

    @pytest.mark.parametrize("quorum", [1, 2, 3])
    def test_a_group_is_fenced_exactly_when_its_quorum_exceeds_one(self, cluster, quorum):
        group = ReplicaManager(cluster).replicate(
            OrderIntake(), name="orders", primary_node="a", backup_nodes=["b", "c"],
            readonly=INTAKE_READONLY, quorum=quorum,
        )
        assert group.fenced is (quorum > 1)

    @pytest.mark.parametrize("quorum", [1, 2])
    def test_only_fenced_frames_carry_the_epoch(self, cluster, quorum):
        """A backup that adopted a newer epoch bounces a fenced primary's
        frames; an unfenced primary's frames carry no epoch and still land."""
        group = ReplicaManager(cluster).replicate(
            OrderIntake(), name="orders", primary_node="a", backup_nodes=["b", "c"],
            readonly=INTAKE_READONLY, quorum=quorum,
        )
        endpoint_ref = group.backups["b"].endpoint_ref
        cluster.space("b").lookup_local_object(endpoint_ref.object_id).adopt_epoch(5)
        group.primary_wrapper.submit("W1", 1, 10)
        assert group.backups["b"].healthy is (quorum == 1)
        assert holds_order(group.backups["b"].impl, "W1") is (quorum == 1)


class TestErrorFacadeShim:
    def test_old_import_path_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.errors  # noqa: F401

class _Relay:
    """On ``d``: makes one plain write to the replicated primary, then reports
    what the backups and the op log held when that write came back."""

    def __init__(self, space, group, context=None):
        self.space, self.group, self.context = space, group, context

    def send(self, sku):
        self.space.invoke_remote(
            self.group.primary_ref, "submit", (sku, 1, 10), context=self.context
        )
        group = self.group
        return [record.impl.accepted_count() for record in group.backups.values()] + [
            len(group.log)
        ]


class _Front:
    """On the primary's node ``a``: each call waits on one relay call to ``d``,
    after writing to the group itself when asked to (a co-located call)."""

    def __init__(self, space, relay_ref, group):
        self.space, self.relay_ref, self.group = space, relay_ref, group

    def go(self, sku, direct=False):
        if direct:
            self.space.invoke_remote(self.group.primary_ref, "submit", (f"{sku}-a", 1, 10))
        return self.space.invoke_remote(self.relay_ref, "send", (sku,))


def _probe(quorum, relay_context=None):
    """Primary ``a`` with backups ``b`` and ``c``; a front on ``a``, a relay on ``d``
    whose write carries ``relay_context`` (a call's wire context)."""
    cluster = Cluster(("client", "a", "b", "c", "d"))
    manager = ReplicaManager(cluster)
    group = manager.replicate(
        OrderIntake(), name="orders", primary_node="a", backup_nodes=["b", "c"],
        readonly=INTAKE_READONLY, quorum=quorum,
    )
    relay_ref = cluster.space("d").export(_Relay(cluster.space("d"), group, relay_context))
    front_ref = cluster.space("a").export(_Front(cluster.space("a"), relay_ref, group))
    return cluster, group, front_ref


class TestBatchScopeIsPerMessage:
    """A batch's commit scope covers the calls of that batch message only.

    The probe: a batch of two ``Front.go`` calls is served on ``a``, the
    replicated primary's node.  Each call has ``d`` make one *plain* write back
    to the primary.  That write is its own message, so it commits on its own:
    when it has returned to ``d``, both backups hold it and the log is empty.
    """

    @pytest.mark.parametrize("quorum", [1, 2])
    def test_a_plain_write_served_inside_a_batch_commits_on_its_own(self, quorum):
        cluster, group, front_ref = _probe(quorum)
        results = cluster.space("client").invoke_remote_many(
            [(front_ref, "go", (f"sku-{i}",), {}) for i in range(2)]
        )
        assert [result.unwrap() for result in results] == [[1, 1, 0], [2, 2, 0]]
        assert group.log == [] and group.forward_messages == 4

    def test_batch_writes_a_nested_commit_shipped_are_acknowledged(self):
        """Each batch call writes the group, then waits on the plain write:
        that write's commit ships both, so the batch's commit finds every
        backup current — all acks, nothing refused, nothing counted twice."""
        cluster, group, front_ref = _probe(2)
        results = cluster.space("client").invoke_remote_many(
            [(front_ref, "go", (f"sku-{i}", True), {}) for i in range(2)]
        )
        assert [result.unwrap() for result in results] == [[2, 2, 0], [4, 4, 0]]
        assert group.acked_writes == 4 and group.quorum_failures == 0

    @pytest.mark.parametrize("quorum", [1, 2])
    def test_a_plain_message_served_inside_a_batch_keeps_to_its_own_trace_refs(self, quorum):
        """The batch on ``a`` carries trace ``outer`` (two calls); the plain
        write ``d`` sends back to ``a`` carries trace ``inner``.  The plain
        write's commit is billed to ``inner`` alone, and the batch's commit
        to the batch's two calls alone."""
        cluster, group, front_ref = _probe(quorum, {"x": "inner", "p": "ci"})
        tracer = cluster.network.tracer = Tracer(clock=cluster.clock)
        results = cluster.space("client").invoke_remote_many([
            (front_ref, "go", ("sku-0",), {}, {"x": "outer", "p": "c0"}),
            (group.primary_ref, "submit", ("sku-1", 1, 10), {}, {"x": "outer", "p": "c1"}),
        ])
        assert [result.ok for result in results] == [True, True]
        forwards = {
            trace: sorted(
                span.parent_id
                for span in tracer.collector.spans(trace)
                if span.kind == "replication"
            )
            for trace in ("outer", "inner")
        }
        assert forwards == {"outer": ["c0", "c1"], "inner": ["ci"]}
        assert group.acked_writes == 2


class _Writer:
    """On ``d``: writes one object of ``a`` with a plain message."""

    def __init__(self, space, target_ref):
        self.space, self.target_ref = space, target_ref

    def send(self):
        self.space.invoke_remote(self.target_ref, "submit", ("inner", 1, 10))


class _Fan:
    """On ``a``: waits on one ``_Writer.send`` on ``d``, then reports ``a``'s
    invalidation counters as that write came back."""

    def __init__(self, space, writer_ref):
        self.space, self.writer_ref = space, writer_ref

    def go(self):
        self.space.invoke_remote(self.writer_ref, "send")
        return [self.space.invalidations_sent, self.space.invalidations_piggybacked]


class TestPendingInvalidationsArePerMessage:
    """A write's invalidations belong to the message that carried it.

    The probe: ``client`` subscribes to two objects on ``a``.  One batch from
    ``client`` first writes ``outer``, then waits on ``d``, which writes
    ``inner`` in a plain message of its own.  That plain message invalidates
    ``inner`` with a ``!inv`` frame before it returns to ``d``, and leaves
    ``outer`` to the batch, whose response carries it back to ``client``."""

    def test_a_plain_message_served_inside_a_batch_keeps_to_its_own_writes(self):
        cluster = Cluster(("client", "a", "d"))
        server = cluster.space("a")
        outer_ref = server.export(OrderIntake())
        inner_ref = server.export(OrderIntake())
        writer_ref = cluster.space("d").export(_Writer(cluster.space("d"), inner_ref))
        fan_ref = server.export(_Fan(server, writer_ref))
        manager = CacheManager(cluster.space("client"))
        for reference in (outer_ref, inner_ref):
            cluster.network.send_request(
                "client", "a", frame_subscription(reference.object_id, "client", 1.0)
            )
        results = cluster.space("client").invoke_remote_many([
            (outer_ref, "submit", ("outer", 1, 10), {}),
            (fan_ref, "go", (), {}),
        ])
        # When the plain write came back, its own !inv had gone out and the
        # batch's had not.
        assert results[1].unwrap() == [1, 0]
        assert (server.invalidations_sent, server.invalidations_piggybacked) == (1, 1)
        assert manager.invalidations_received == 2


class TestARefusedBatchStillInvalidates:
    def test_a_batch_refused_by_its_quorum_commit_invalidates_the_subscribers(self):
        """The writes ran on the primary before the commit refused them, so
        the subscribers' entries drop anyway: conservative, never stale."""
        cluster = Cluster(("client", "reader", "a", "b", "c"))
        group = ReplicaManager(cluster).replicate(
            OrderIntake(), name="orders", primary_node="a", backup_nodes=["b", "c"],
            readonly=INTAKE_READONLY, quorum=2,
        )
        manager = CacheManager(cluster.space("reader"))
        cluster.network.send_request(
            "reader", "a", frame_subscription(group.primary_ref.object_id, "reader", 1.0)
        )
        cluster.network.failures.crash_node("b")
        cluster.network.failures.crash_node("c")
        results = cluster.space("client").invoke_remote_many(
            [(group.primary_ref, "submit", (f"sku-{i}", 1, 10), {}) for i in range(3)]
        )
        assert [result.ok for result in results] == [False] * 3
        assert {type(result.error) for result in results} == {QuorumLostError}
        assert group.quorum_failures == 3
        assert cluster.space("a").invalidations_sent == 1
        assert manager.invalidations_received == 1
