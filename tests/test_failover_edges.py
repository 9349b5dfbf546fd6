"""Edge cases of the failure model and naming service exercised by failover.

Failover leans on corners the original tests never reached: healing every
partition a single node participates in (a node rejoining after a split),
nodes that crash, recover and crash again (fail-back), rebinding a
well-known name while other nodes are actively looking it up, and the
partition-heal reconciliation of a fenced ex-primary (divergent
unacknowledged ops discarded, the node re-seeded from the quorum's state).
"""

from __future__ import annotations

import matrix
import pytest
from replication_invariants import check_replication_invariants

from repro.api.errors import (
    NamingError,
    NodeUnreachableError,
    PartitionError,
    QuorumLostError,
)
from repro.network.failures import FailureModel
from repro.network.simnet import SimulatedNetwork
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import OrderIntake


def _network(failures: FailureModel) -> SimulatedNetwork:
    network = SimulatedNetwork(failures=failures)
    for node in ("a", "b", "c"):
        network.register(node, lambda source, payload: b"ok:" + payload)
    return network


class TestHealSingleNode:
    def test_heals_every_partition_the_node_participates_in(self):
        failures = FailureModel()
        failures.partition(["a"], ["b", "c"])
        failures.partition(["b"], ["c"])
        failures.heal("a")
        assert not failures.is_partitioned("a", "b")
        assert not failures.is_partitioned("c", "a")
        # Partitions not involving the healed node are untouched.
        assert failures.is_partitioned("b", "c")

    def test_single_node_heal_restores_traffic_both_directions(self):
        failures = FailureModel()
        network = _network(failures)
        failures.partition(["a"], ["b"])
        with pytest.raises(PartitionError):
            network.send_request("a", "b", b"x")
        failures.heal("b")
        assert network.send_request("a", "b", b"x") == b"ok:x"
        assert network.send_request("b", "a", b"x") == b"ok:x"

    def test_heal_of_uninvolved_node_changes_nothing(self):
        failures = FailureModel()
        failures.partition(["a"], ["b"])
        failures.heal("c")
        assert failures.is_partitioned("a", "b")

    def test_bare_heal_still_clears_everything(self):
        failures = FailureModel()
        failures.partition(["a"], ["b", "c"])
        failures.heal()
        assert not failures.is_partitioned("a", "b")
        assert not failures.is_partitioned("a", "c")


class TestCrashRecoverCycles:
    def test_crash_recover_crash_cycle_tracks_liveness(self):
        failures = FailureModel()
        for _ in range(3):
            failures.crash_node("a")
            assert failures.is_node_down("a")
            failures.recover_node("a")
            assert not failures.is_node_down("a")

    def test_traffic_follows_each_cycle(self):
        failures = FailureModel()
        network = _network(failures)
        for _ in range(2):
            failures.crash_node("b")
            with pytest.raises(NodeUnreachableError):
                network.send_request("a", "b", b"x")
            failures.recover_node("b")
            assert network.send_request("a", "b", b"x") == b"ok:x"

    def test_crash_is_idempotent_and_recovery_of_healthy_node_is_a_noop(self):
        failures = FailureModel()
        failures.crash_node("a")
        failures.crash_node("a")
        assert failures.is_node_down("a")
        failures.recover_node("a")
        failures.recover_node("a")
        assert not failures.is_node_down("a")


class TestRebindVisibility:
    def test_rebind_is_visible_from_every_node(self):
        cluster = Cluster(("a", "b", "c"))
        first = cluster.space("a").export(OrderIntake())
        cluster.naming.rebind("orders", first)
        second = cluster.space("b").export(OrderIntake())
        cluster.naming.rebind("orders", second)
        # One shared service: a lookup from any space sees the new binding
        # immediately, and invoking through it reaches the new host.
        for node in ("a", "b", "c"):
            resolved = cluster.naming.lookup("orders")
            assert resolved == second
            assert cluster.space(node).invoke_remote(resolved, "accepted_count") == 0

    def test_rebind_fires_listeners_with_old_and_new(self):
        cluster = Cluster(("a", "b"))
        events = []
        cluster.naming.on_rebind(lambda name, old, new: events.append((name, old, new)))
        first = cluster.space("a").export(OrderIntake())
        cluster.naming.rebind("orders", first)
        second = cluster.space("b").export(OrderIntake())
        cluster.naming.rebind("orders", second)
        assert events == [("orders", None, first), ("orders", first, second)]

    def test_rebind_to_same_reference_is_silent(self):
        cluster = Cluster(("a",))
        events = []
        cluster.naming.on_rebind(lambda *args: events.append(args))
        reference = cluster.space("a").export(OrderIntake())
        cluster.naming.rebind("orders", reference)
        cluster.naming.rebind("orders", reference)
        assert len(events) == 1

    def test_unbind_of_a_missing_name_is_refused(self):
        cluster = Cluster(("a",))
        with pytest.raises(NamingError):
            cluster.naming.unbind("nothing")


class TestPartitionHealReconciliation:
    """A fenced ex-primary's heal: divergence discarded, state re-seeded."""

    def _quorum_cluster(self):
        cluster = Cluster(("monitor", "a", "b", "c"))
        manager = matrix.detected_manager(cluster)
        group = manager.replicate(
            OrderIntake(),
            name="orders",
            primary_node="a",
            backup_nodes=["b", "c"],
            readonly=("accepted_count", "rejected_count", "total_units", "revenue"),
            quorum=2,
        )
        return cluster, manager, group

    def _pump(self, cluster, seconds):
        cluster.network.events.run_until(cluster.network.clock.now + seconds)

    def _isolate_primary_and_promote(self, cluster, manager, group):
        old_wrapper = group.primary_wrapper
        cluster.network.failures.partition(["a"], ["monitor", "b", "c"])
        # Quorum-acked state before the split: one committed order.
        # (Committed *before* the partition: both backups hold it.)
        return old_wrapper

    def test_divergent_unacked_ops_are_discarded_on_reenlist(self):
        cluster, manager, group = self._quorum_cluster()
        group.primary_wrapper.submit("committed", 1, 10)
        old_wrapper = self._isolate_primary_and_promote(cluster, manager, group)
        # Two writes applied locally on the isolated primary, never acked.
        for attempt in range(2):
            with pytest.raises(QuorumLostError):
                old_wrapper.submit(f"divergent-{attempt}", 1, 10)
        assert group.quorum_failures == 2
        assert old_wrapper._group.primary_impl.accepted_count() == 3
        self._pump(cluster, 0.02)
        assert group.epoch == 1  # the majority elected a new primary
        assert group.stale_primaries[0].divergent == 2
        cluster.network.failures.heal()
        self._pump(cluster, 0.1)
        # The re-enlisted node was re-seeded from the quorum's state: the
        # committed write survives, the divergent ones are gone everywhere.
        assert group.ops_discarded == 2
        assert group.backups["a"].healthy
        assert group.backups["a"].impl.accepted_count() == 1
        assert group.primary_impl.accepted_count() == 1
        check_replication_invariants(manager, group, acked=("committed",))

    def test_reconciliation_is_recorded_with_the_superseded_epoch(self):
        cluster, manager, group = self._quorum_cluster()
        old_wrapper = self._isolate_primary_and_promote(cluster, manager, group)
        with pytest.raises(QuorumLostError):
            old_wrapper.submit("divergent", 1, 10)
        self._pump(cluster, 0.02)
        cluster.network.failures.heal()
        self._pump(cluster, 0.1)
        assert len(manager.reconciliations) == 1
        record = manager.reconciliations[0]
        assert record.node_id == "a"
        assert record.epoch == 0  # the epoch the ex-primary was fenced at
        assert record.ops_discarded == 1
        assert group.stale_primaries == []
        check_replication_invariants(manager, group)

    def test_heal_without_divergence_still_reconciles_cleanly(self):
        cluster, manager, group = self._quorum_cluster()
        group.primary_wrapper.submit("committed", 1, 10)
        # The monitor only loses the primary; no write ever diverges.
        cluster.network.failures.partition(["monitor"], ["a"])
        self._pump(cluster, 0.02)
        assert group.epoch == 1
        cluster.network.failures.heal()
        self._pump(cluster, 0.1)
        assert group.ops_discarded == 0
        assert group.stale_primaries == []
        assert group.backups["a"].healthy
        assert group.backups["a"].impl.accepted_count() == 1
        check_replication_invariants(manager, group, acked=("committed",))

    def test_acked_writes_survive_the_full_cycle(self):
        cluster, manager, group = self._quorum_cluster()
        group.primary_wrapper.submit("before", 1, 10)
        old_wrapper = self._isolate_primary_and_promote(cluster, manager, group)
        with pytest.raises(QuorumLostError):
            old_wrapper.submit("never-acked", 1, 10)
        self._pump(cluster, 0.02)
        # Post-promotion writes commit against the new primary.
        group.primary_wrapper.submit("after", 1, 10)
        cluster.network.failures.heal()
        self._pump(cluster, 0.1)
        assert group.primary_impl.accepted_count() == 2
        assert group.acked_writes == 2
        for record in group.backups.values():
            assert record.impl.accepted_count() == 2
        check_replication_invariants(manager, group, acked=("before", "after"))
