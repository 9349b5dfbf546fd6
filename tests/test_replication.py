"""Tests for replica groups, state sync, failover and the retry integrations.

The replication subsystem must keep backups equal to their primary (eagerly
per write, or per interval snapshot), promote a backup when the heartbeat
detector declares the primary's node dead, rebind the group's name, publish
reference redirects — and the fault-tolerance and pipelining layers must
ride those redirects so a crashed shard costs latency, never lost calls.
"""

from __future__ import annotations

import pytest
from replication_invariants import check_replication_invariants

from repro.api.errors import NodeUnreachableError, ReplicationError
from repro.network.heartbeat import HeartbeatDetector
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import FaultTolerantInvoker, RetryPolicy
from repro.runtime.pipelining import PipelineScheduler
from repro.runtime.replication import (
    SYNC_INTERVAL,
    ReplicaManager,
    apply_state,
    snapshot_state,
)
from repro.workloads.bulk_orders import OrderIntake
from repro.workloads.replicated_orders import (
    INTAKE_READONLY,
    run_replicated_order_scenario,
)

READONLY = INTAKE_READONLY


@pytest.fixture
def cluster():
    return Cluster(("client", "a", "b", "c"))


def _manager(cluster, **kwargs) -> ReplicaManager:
    detector = HeartbeatDetector(
        cluster.network, "client", interval=0.002, miss_threshold=2
    )
    for node in ("a", "b", "c"):
        detector.watch(node)
    manager = ReplicaManager(cluster, detector=detector, **kwargs)
    detector.start()
    return manager


def _replicated_intake(manager, primary="a", backups=("b",), **kwargs):
    return manager.replicate(
        OrderIntake(),
        name="orders",
        primary_node=primary,
        backup_nodes=list(backups),
        readonly=READONLY,
        **kwargs,
    )


class TestStateCapture:
    def test_snapshot_and_apply_roundtrip_plain_object(self):
        source = OrderIntake()
        source.submit("sku-1", 2, 10)
        target = OrderIntake()
        written = apply_state(target, snapshot_state(source))
        assert written >= 2
        assert target.accepted_count() == 1
        assert target.revenue() == 20

    def test_snapshot_skips_private_attributes(self):
        source = OrderIntake()
        source._scratch = "not replicable"
        assert "_scratch" not in snapshot_state(source)


class TestReplicaGroups:
    def test_eager_writes_reach_the_backup(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        invoker = FaultTolerantInvoker(cluster.space("client"))
        invoker.invoke(group.primary_ref, "submit", ("sku-1", 2, 10))
        backup = group.backups["b"].impl
        assert backup.accepted_count() == 1
        assert backup.revenue() == 20
        assert group.writes_propagated == 1

    def test_readonly_members_are_not_propagated(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        invoker = FaultTolerantInvoker(cluster.space("client"))
        invoker.invoke(group.primary_ref, "submit", ("sku-1", 1, 10))
        before = group.writes_propagated
        assert invoker.invoke(group.primary_ref, "accepted_count") == 1
        assert group.writes_propagated == before

    def test_replication_traffic_is_charged_to_the_network(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        before = cluster.metrics.messages_between("a", "b")
        FaultTolerantInvoker(cluster.space("client")).invoke(
            group.primary_ref, "submit", ("sku-1", 1, 10)
        )
        assert cluster.metrics.messages_between("a", "b") > before

    def test_interval_sync_ships_snapshots_from_the_event_queue(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager, sync="interval")
        FaultTolerantInvoker(cluster.space("client")).invoke(
            group.primary_ref, "submit", ("sku-1", 3, 10)
        )
        backup = group.backups["b"].impl
        assert backup.accepted_count() == 0  # not synced yet
        assert group.dirty
        cluster.network.events.run_until(cluster.clock.now + SYNC_INTERVAL)
        assert backup.accepted_count() == 1
        assert not group.dirty
        manager.stop()

    def test_dropped_forward_demotes_then_reseeds_the_backup(self, cluster):
        """A lost replication forward must not silently strip failover
        protection forever: the copy is demoted (stale copies are never
        promoted) and then re-seeded with a snapshot while its host is up."""
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        invoker = FaultTolerantInvoker(cluster.space("client"))
        # Drop exactly the next message: the apply_op forward to the backup.
        original = cluster.network.failures.should_drop
        drops = {"left": 1}

        def drop_next(source, destination):
            if drops["left"] > 0 and (source, destination) == ("a", "b"):
                drops["left"] -= 1
                return True
            return original(source, destination)

        cluster.network.failures.should_drop = drop_next
        invoker.invoke(group.primary_ref, "submit", ("sku-1", 1, 10))
        assert not group.backups["b"].healthy  # stale: not promotable
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        record = group.backups["b"]
        assert record.healthy  # re-seeded with a fresh snapshot
        assert record.impl.accepted_count() == 1  # the dropped write is back
        # And the failover path is protected again.
        cluster.network.failures.crash_node("a")
        failover_aware = FaultTolerantInvoker(
            cluster.space("client"), replica_manager=manager
        )
        assert failover_aware.invoke(group.primary_ref, "submit", ("sku-2", 1, 10)) == 1
        check_replication_invariants(manager, group, acked=("sku-1", "sku-2"))

    def test_failover_and_reenlist_do_not_leak_exports(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        invoker = FaultTolerantInvoker(cluster.space("client"), replica_manager=manager)
        baseline = {
            node: cluster.space(node).object_count() for node in ("a", "b")
        }
        for _ in range(2):  # two full crash → failover → recover cycles
            primary = group.primary_node
            cluster.network.failures.crash_node(primary)
            invoker.invoke(group.primary_ref, "submit", ("sku", 1, 10))
            cluster.network.failures.recover_node(primary)
            cluster.network.events.run_until(cluster.clock.now + 0.05)
        # One primary export and one backup endpoint, whichever side hosts
        # them: the totals must not grow with the number of cycles.
        assert sum(
            cluster.space(node).object_count() for node in ("a", "b")
        ) == sum(baseline.values())

    def test_replicate_validates_topology(self, cluster):
        manager = _manager(cluster)
        with pytest.raises(ReplicationError):
            manager.replicate(
                OrderIntake(), name="x", primary_node="a", backup_nodes=[]
            )
        with pytest.raises(ReplicationError):
            manager.replicate(
                OrderIntake(), name="x", primary_node="a", backup_nodes=["a"]
            )
        with pytest.raises(ReplicationError):
            manager.replicate(
                OrderIntake(), name="x", primary_node="a", backup_nodes=["b", "b"]
            )

    def test_duplicate_group_name_rejected(self, cluster):
        manager = _manager(cluster)
        _replicated_intake(manager)
        with pytest.raises(ReplicationError):
            _replicated_intake(manager)

    def test_name_is_bound_at_creation(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        assert cluster.naming.lookup("orders") == group.primary_ref


class TestFailover:
    def test_promotes_backup_rebinds_name_and_redirects(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        old_ref = group.primary_ref
        FaultTolerantInvoker(cluster.space("client")).invoke(
            old_ref, "submit", ("sku-1", 2, 10)
        )
        cluster.network.failures.crash_node("a")
        record = manager.failover(group)
        assert record.from_node == "a" and record.to_node == "b"
        assert group.primary_node == "b"
        assert group.epoch == 1
        assert manager.current_ref(old_ref) == group.primary_ref
        assert cluster.naming.lookup("orders") == group.primary_ref
        # The promoted copy carries every acknowledged write.
        assert group.primary_impl.accepted_count() == 1
        check_replication_invariants(manager, group, acked=("sku-1",))

    def test_failover_without_backup_raises(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        group.backups["b"].healthy = False
        with pytest.raises(ReplicationError):
            manager.failover(group)

    def test_detector_declaration_triggers_failover(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        cluster.network.failures.crash_node("a")
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        assert len(manager.failovers) == 1
        assert group.primary_node == "b"
        check_replication_invariants(manager, group)

    def test_recovered_node_is_reenlisted_and_failback_works(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        invoker = FaultTolerantInvoker(cluster.space("client"), replica_manager=manager)
        invoker.invoke(group.primary_ref, "submit", ("sku-1", 1, 10))
        cluster.network.failures.crash_node("a")
        invoker.invoke(group.primary_ref, "submit", ("sku-2", 1, 10))
        assert group.primary_node == "b"
        cluster.network.failures.recover_node("a")
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        assert group.backups["a"].healthy
        cluster.network.failures.crash_node("b")
        invoker.invoke(group.primary_ref, "submit", ("sku-3", 1, 10))
        assert group.primary_node == "a"
        assert group.epoch == 2
        assert group.primary_impl.accepted_count() == 3
        check_replication_invariants(manager, group, acked=("sku-1", "sku-2", "sku-3"))

    def test_primary_and_backup_both_dead_does_not_crash_the_event_pump(self, cluster):
        """A detector declaration for a group with no live backup host must
        be a no-op, not a ReplicationError escaping through the heartbeat
        listener into whoever pumps the event queue."""
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        cluster.network.failures.crash_node("a")
        cluster.network.failures.crash_node("b")
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        assert manager.failovers == []
        assert group.primary_node == "a"  # nothing promotable: group stays put
        # Both nodes return: the next crash can fail over again.
        cluster.network.failures.recover_node("a")
        cluster.network.failures.recover_node("b")
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        cluster.network.failures.crash_node("a")
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        assert len(manager.failovers) == 1
        assert group.primary_node == "b"
        check_replication_invariants(manager, group)

    def test_backup_recovering_before_the_primary_is_still_reenlisted(self, cluster):
        """Backup B recovers while primary A is still down: the immediate
        re-seed cannot work (no live primary to snapshot), but redundancy
        must be restored once A returns — not silently lost forever."""
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        cluster.network.failures.crash_node("a")
        cluster.network.failures.crash_node("b")
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        cluster.network.failures.recover_node("b")
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        assert not group.backups["b"].healthy  # primary still dead: stale
        cluster.network.failures.recover_node("a")
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        assert group.backups["b"].healthy  # redundancy restored
        # And the group can fail over again.
        cluster.network.failures.crash_node("a")
        invoker = FaultTolerantInvoker(cluster.space("client"), replica_manager=manager)
        assert invoker.invoke(group.primary_ref, "submit", ("sku", 1, 10)) == 0
        assert group.primary_node == "b"
        check_replication_invariants(manager, group, acked=("sku",))

    def test_chained_redirects_resolve_to_latest_primary(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager, backups=("b", "c"))
        first = group.primary_ref
        cluster.network.failures.crash_node("a")
        manager.failover(group)
        second = group.primary_ref
        cluster.network.failures.crash_node(group.primary_node)
        manager.failover(group)
        assert manager.current_ref(first) == group.primary_ref
        assert manager.current_ref(second) == group.primary_ref
        assert group.epoch == 2
        check_replication_invariants(manager, group)

    def test_dismantle_drops_every_redirect_hop(self, cluster):
        """After two failovers (r0 -> r1 -> r2) nothing of the group is left:
        a caller still holding r0 must fail at once, not retry a ghost."""
        manager = _manager(cluster)
        group = _replicated_intake(manager, backups=("b", "c"))
        first = group.primary_ref
        cluster.network.failures.crash_node("a")
        manager.failover(group)
        second = group.primary_ref
        cluster.network.failures.crash_node(group.primary_node)
        manager.failover(group)
        manager.dismantle(group)
        for reference in (first, second, group.primary_ref):
            assert manager.current_ref(reference) == reference
            assert not manager.can_fail_over(reference)


class TestInvokerFailover:
    def test_fatal_error_retries_against_promoted_replica(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        invoker = FaultTolerantInvoker(cluster.space("client"), replica_manager=manager)
        cluster.network.failures.crash_node("a")
        assert invoker.invoke(group.primary_ref, "submit", ("sku-1", 1, 10)) == 0
        assert group.primary_node == "b"
        assert invoker.log.total_failures >= 1
        assert all(record.recovered for record in invoker.log.records)

    def test_unreplicated_reference_still_fails_fatally(self, cluster):
        manager = _manager(cluster)
        plain = OrderIntake()
        reference = cluster.space("a").export(plain)
        invoker = FaultTolerantInvoker(cluster.space("client"), replica_manager=manager)
        cluster.network.failures.crash_node("a")
        with pytest.raises(NodeUnreachableError):
            invoker.invoke(reference, "submit", ("sku-1", 1, 10))

    def test_no_promotable_backup_surfaces_the_error(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        group.backups["b"].healthy = False
        invoker = FaultTolerantInvoker(cluster.space("client"), replica_manager=manager)
        cluster.network.failures.crash_node("a")
        with pytest.raises(NodeUnreachableError):
            invoker.invoke(group.primary_ref, "submit", ("sku-1", 1, 10))

    def test_batch_path_redirects_after_failover(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        invoker = FaultTolerantInvoker(cluster.space("client"), replica_manager=manager)
        cluster.network.failures.crash_node("a")
        results = invoker.invoke_many(
            [
                (group.primary_ref, "submit", (f"sku-{i}", 1, 10), {})
                for i in range(4)
            ]
        )
        assert [result.unwrap() for result in results] == [0, 1, 2, 3]
        assert group.primary_node == "b"

    def test_batch_split_across_promotions(self, cluster):
        manager = _manager(cluster)
        group_one = _replicated_intake(manager)
        group_two = manager.replicate(
            OrderIntake(),
            name="orders-2",
            primary_node="a",
            backup_nodes=["c"],
            readonly=READONLY,
        )
        invoker = FaultTolerantInvoker(cluster.space("client"), replica_manager=manager)
        cluster.network.failures.crash_node("a")
        results = invoker.invoke_many(
            [
                (group_one.primary_ref, "submit", ("sku-1", 1, 10), {}),
                (group_two.primary_ref, "submit", ("sku-2", 1, 10), {}),
            ]
        )
        # One failed batch, two groups promoted to different nodes: the retry
        # splits per destination and merges results in submission order.
        assert [result.unwrap() for result in results] == [0, 0]
        assert group_one.primary_node == "b"
        assert group_two.primary_node == "c"


class TestSchedulerFailover:
    def test_in_flight_batches_survive_a_shard_kill(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        scheduler = PipelineScheduler(
            cluster.space("client"),
            max_batch=4,
            window=2,
            replica_manager=manager,
        )
        futures = [
            scheduler.submit(group.primary_ref, "submit", f"sku-{i}", 1, 10)
            for i in range(8)
        ]
        cluster.network.failures.crash_node("a")
        futures += [
            scheduler.submit(group.primary_ref, "submit", f"sku-{8 + i}", 1, 10)
            for i in range(8)
        ]
        scheduler.drain()
        assert sorted(future.result() for future in futures) == list(range(16))
        assert all(future.ok for future in futures)
        assert scheduler.calls_redirected > 0
        assert group.primary_node == "b"
        assert group.primary_impl.accepted_count() == 16
        check_replication_invariants(manager, group, acked=[f"sku-{i}" for i in range(16)])

    def test_without_manager_fatal_errors_still_fail(self, cluster):
        plain = OrderIntake()
        reference = cluster.space("a").export(plain)
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=4, window=2)
        cluster.network.failures.crash_node("a")
        future = scheduler.submit(reference, "submit", "sku", 1, 10)
        scheduler.drain()
        assert not future.ok
        assert isinstance(future.exception(), NodeUnreachableError)

    def test_transient_retry_policy_still_composes(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        scheduler = PipelineScheduler(
            cluster.space("client"),
            max_batch=4,
            window=2,
            retry_policy=RetryPolicy(max_attempts=3),
            replica_manager=manager,
        )
        futures = [
            scheduler.submit(group.primary_ref, "submit", f"sku-{i}", 1, 10)
            for i in range(4)
        ]
        scheduler.drain()
        assert [future.result() for future in futures] == [0, 1, 2, 3]


class TestBatchedEagerForwards:
    """Eager replication amortises its forwards per dispatched batch.

    A batch of N writes executing on the primary used to fan out as N
    ``apply_op`` messages per backup; the batch-dispatch scope now defers
    them and ships ONE ``apply_ops`` message per backup, committed before
    the batch response is framed on the primary.
    """

    def test_one_forward_message_per_batch_per_backup(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        backup = group.backups["b"]
        before = cluster.metrics.total_messages
        results = cluster.space("client").invoke_remote_many(
            [
                (group.primary_ref, "submit", (f"sku-{i}", 1, 10), {})
                for i in range(16)
            ],
            transport="rmi",
        )
        assert all(result.ok for result in results)
        # The batch was acknowledged only after the backup observed every
        # write (the commit hook runs before the response is framed).
        endpoint = cluster.space("b").lookup_local_object(
            backup.endpoint_ref.object_id
        )
        assert endpoint.ops_applied == 16
        assert group.writes_propagated == 16
        # One batch request + response, one apply_ops request + response:
        # 4 messages instead of 2 + 2*16 with per-write forwarding.
        assert cluster.metrics.total_messages - before == 4
        assert group.forward_messages == 1

    def test_per_write_forwarding_outside_a_batch_is_unchanged(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        before = cluster.metrics.total_messages
        for i in range(4):
            cluster.space("client").invoke_remote(
                group.primary_ref, "submit", (f"sku-{i}", 1, 10), transport="rmi"
            )
        # Each write: 1 request + 1 response + 1 forward + 1 forward response.
        assert cluster.metrics.total_messages - before == 16
        assert group.forward_messages == 4

    def test_batched_forwards_cut_messages_versus_per_write(self, cluster):
        """The reduction claim, measured: batched << per-write amplification."""
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        calls = [
            (group.primary_ref, "submit", (f"sku-{i}", 1, 10), {}) for i in range(32)
        ]
        before = cluster.metrics.total_messages
        cluster.space("client").invoke_remote_many(calls, transport="rmi")
        batched_messages = cluster.metrics.total_messages - before
        per_write_messages = 2 + 2 * 32  # what PR 3's per-write forwarding cost
        assert batched_messages == 4
        assert batched_messages < per_write_messages / 10

    def test_multi_backup_batch_ships_one_message_each(self, cluster):
        manager = _manager(cluster)
        group = _replicated_intake(manager, backups=("b", "c"))
        before = cluster.metrics.total_messages
        cluster.space("client").invoke_remote_many(
            [(group.primary_ref, "submit", (f"sku-{i}", 1, 10), {}) for i in range(8)],
            transport="rmi",
        )
        # Batch round trip + one apply_ops round trip per backup.
        assert cluster.metrics.total_messages - before == 6
        assert group.forward_messages == 2
        for node in ("b", "c"):
            endpoint = cluster.space(node).lookup_local_object(
                group.backups[node].endpoint_ref.object_id
            )
            assert endpoint.ops_applied == 8

    def test_forwarding_survives_a_raising_commit(self, cluster, monkeypatch):
        """A batch commit that raises refuses the batch's writes instead of
        acknowledging them, and does not wedge the commits of later batches."""
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        client = cluster.space("client")
        catch_up = manager._catch_up

        def broken_catch_up(*args, **kwargs):
            monkeypatch.setattr(manager, "_catch_up", catch_up)  # raises once
            raise RuntimeError("catch-up bug")

        monkeypatch.setattr(manager, "_catch_up", broken_catch_up)
        refused = client.invoke_remote_many(
            [(group.primary_ref, "submit", (f"sku-{i}", 1, 10), {}) for i in range(4)],
            transport="rmi",
        )
        assert [str(result.error) for result in refused] == [
            "remote RuntimeError: catch-up bug"
        ] * 4
        assert group.writes_propagated == 0 and group.backups["b"].acked == 0
        # The next batch's commit ships both batches' writes in one frame.
        results = client.invoke_remote_many(
            [(group.primary_ref, "submit", (f"sku-{4 + i}", 1, 10), {}) for i in range(4)],
            transport="rmi",
        )
        assert all(result.ok for result in results)
        assert group.writes_propagated == 8
        assert group.forward_messages == 1
        assert group.log == [] and not group.dirty

    def test_promoted_backup_observed_the_batched_writes(self, cluster):
        """A failover right after an acknowledged batch loses none of it."""
        manager = _manager(cluster)
        group = _replicated_intake(manager)
        cluster.space("client").invoke_remote_many(
            [(group.primary_ref, "submit", (f"sku-{i}", 1, 10), {}) for i in range(12)],
            transport="rmi",
        )
        cluster.network.failures.crash_node("a")
        cluster.network.events.run_until(cluster.clock.now + 0.05)
        assert manager.failovers, "the crash must have promoted the backup"
        assert group.primary_impl.accepted_count() == 12
        check_replication_invariants(manager, group, acked=[f"sku-{i}" for i in range(12)])

    def test_the_log_holds_at_most_the_current_batch(self, cluster):
        """Writes outside a batch leave the op log empty; inside one it holds
        only that batch's writes, until the batch commits."""
        manager = _manager(cluster)
        seen = []

        class WatchedIntake(OrderIntake):
            def submit(self, sku, quantity, unit_price):
                if self is group.primary_impl:  # not a backup's replay
                    seen.append(len(group.log))  # the batch's earlier writes
                return super().submit(sku, quantity, unit_price)

        group = manager.replicate(
            WatchedIntake(), name="orders", primary_node="a", backup_nodes=["b"],
            readonly=READONLY,
        )
        client = cluster.space("client")
        for i in range(5):
            client.invoke_remote(group.primary_ref, "submit", (f"sku-{i}", 1, 10))
            assert group.log == []
        assert seen == [0] * 5
        seen.clear()
        client.invoke_remote_many(
            [(group.primary_ref, "submit", (f"sku-{5 + i}", 1, 10), {}) for i in range(8)]
        )
        assert seen == list(range(8))
        assert group.log == [] and group.seq == 13
        assert group.backups["b"].acked == 13


class TestKillAShardWorkload:
    def test_zero_client_visible_failures_with_backup(self):
        cluster = Cluster(("client", "shard-0", "shard-1"))
        outcome = run_replicated_order_scenario(
            cluster, orders=64, kill="shard-0"
        )
        assert outcome["client_visible_failures"] == 0
        assert outcome["accepted"] == 64
        assert outcome["failovers"] == 1
        assert outcome["recovered_calls"] > 0
        assert len(outcome["values"]) == 64

    def test_unreplicated_baseline_loses_calls(self):
        cluster = Cluster(("client", "shard-0", "shard-1"))
        outcome = run_replicated_order_scenario(
            cluster, orders=64, kill="shard-0", replicate=False
        )
        assert outcome["client_visible_failures"] > 0
        assert outcome["failovers"] == 0

    def test_kill_after_one_still_kills_the_shard(self):
        """kill_after=1.0 crashes after the last submission, not never."""
        cluster = Cluster(("client", "shard-0", "shard-1"))
        outcome = run_replicated_order_scenario(
            cluster, orders=64, kill="shard-0", kill_after=1.0
        )
        assert outcome["failovers"] == 1
        assert outcome["failover_delay_seconds"] > 0.0
        assert outcome["client_visible_failures"] == 0
        assert outcome["accepted"] == 64

    def test_steady_state_has_no_failovers(self):
        cluster = Cluster(("client", "shard-0", "shard-1"))
        outcome = run_replicated_order_scenario(cluster, orders=32)
        assert outcome["client_visible_failures"] == 0
        assert outcome["failovers"] == 0
        assert outcome["writes_propagated"] == 32


ORACLE_TRANSPORTS = ("inproc", "rmi", "corba", "soap")


def _oracle_cluster(transport):
    """A detector-free cluster whose every message uses ``transport``."""
    cluster = Cluster(("client", "a", "b", "c"), default_transport=transport)
    return cluster, ReplicaManager(cluster)


def _oracle_write(cluster, group, transport, count):
    """``count`` client writes: one plain call, or one batch message."""
    client = cluster.space("client")
    if count == 1:
        client.invoke_remote(group.primary_ref, "submit", ("sku-0", 1, 10), transport=transport)
        return
    results = client.invoke_remote_many(
        [(group.primary_ref, "submit", (f"sku-{i}", 1, 10), {}) for i in range(count)],
        transport=transport,
    )
    assert all(result.ok for result in results)


def _oracle_scenario(row, transport):
    """Run one row of the replication traffic oracle; returns its counters."""
    quorum = {"quorum": 2} if row.startswith("quorum") else {}
    sync = {"sync": "interval"} if row == "interval tick" else {}
    cluster, manager = _oracle_cluster(transport)
    group = _replicated_intake(manager, backups=("b", "c"), transport=transport, **quorum, **sync)
    if row in ("eager single write", "quorum single write"):
        _oracle_write(cluster, group, transport, 1)
    elif row in ("eager batch of 8", "quorum batch of 8"):
        _oracle_write(cluster, group, transport, 8)
    elif row == "interval tick":
        _oracle_write(cluster, group, transport, 3)
        cluster.network.events.run_until(cluster.clock.now + 1.5 * SYNC_INTERVAL)
        manager.stop()
    elif row == "reseed after a dropped forward":
        original = cluster.network.failures.should_drop
        drops = {"left": 1}

        def drop_next(source, destination):
            if drops["left"] and (source, destination) == ("a", "b"):
                drops["left"] -= 1
                return True
            return original(source, destination)

        cluster.network.failures.should_drop = drop_next
        _oracle_write(cluster, group, transport, 1)
        cluster.network.events.run_until(cluster.clock.now + 0.2)
        assert group.backups["b"].healthy
    for node in ("b", "c"):
        assert group.backups[node].impl.accepted_count() == group.primary_impl.accepted_count()
    return (
        cluster.metrics.total_messages,
        cluster.metrics.total_bytes,
        group.forward_messages,
        group.writes_propagated,
        group.snapshots_shipped,
    )


#: (total_messages, total_bytes, forward_messages, writes_propagated,
#: snapshots_shipped) per row and transport, captured before replication
#: became one log; a refactor of the replication layer must not move them.
#: The quorum batch rows moved once, when a batch's quorum writes began to
#: commit together: from (38, 4552 | 6246 | 8040 | 15806, 16, 16, 2) to the
#: eager batch's shape, its bytes plus the epoch each frame carries (the
#: same 8 | 36 | 64 | 132 bytes that separate the two single-write rows).
REPLICATION_TRAFFIC_ORACLE = {
    ('eager single write', 'inproc'): (10, 934, 2, 2, 2),
    ('eager single write', 'rmi'): (10, 1253, 2, 2, 2),
    ('eager single write', 'corba'): (10, 1620, 2, 2, 2),
    ('eager single write', 'soap'): (10, 3294, 2, 2, 2),
    ('eager batch of 8', 'inproc'): (10, 3420, 2, 16, 2),
    ('eager batch of 8', 'rmi'): (10, 4720, 2, 16, 2),
    ('eager batch of 8', 'corba'): (10, 6000, 2, 16, 2),
    ('eager batch of 8', 'soap'): (10, 12362, 2, 16, 2),
    ('quorum single write', 'inproc'): (10, 942, 2, 2, 2),
    ('quorum single write', 'rmi'): (10, 1289, 2, 2, 2),
    ('quorum single write', 'corba'): (10, 1684, 2, 2, 2),
    ('quorum single write', 'soap'): (10, 3426, 2, 2, 2),
    ('quorum batch of 8', 'inproc'): (10, 3428, 2, 16, 2),
    ('quorum batch of 8', 'rmi'): (10, 4756, 2, 16, 2),
    ('quorum batch of 8', 'corba'): (10, 6064, 2, 16, 2),
    ('quorum batch of 8', 'soap'): (10, 12494, 2, 16, 2),
    ('interval tick', 'inproc'): (10, 1698, 0, 0, 4),
    ('interval tick', 'rmi'): (10, 2403, 0, 0, 4),
    ('interval tick', 'corba'): (10, 3120, 0, 0, 4),
    ('interval tick', 'soap'): (10, 6742, 0, 0, 4),
    ('initial seed', 'inproc'): (4, 416, 0, 0, 2),
    ('initial seed', 'rmi'): (4, 552, 0, 0, 2),
    ('initial seed', 'corba'): (4, 712, 0, 0, 2),
    ('initial seed', 'soap'): (4, 1450, 0, 0, 2),
    ('reseed after a dropped forward', 'inproc'): (10, 1024, 1, 1, 3),
    ('reseed after a dropped forward', 'rmi'): (10, 1396, 1, 1, 3),
    ('reseed after a dropped forward', 'corba'): (10, 1812, 1, 1, 3),
    ('reseed after a dropped forward', 'soap'): (10, 3777, 1, 1, 3),
}


class TestReplicationTrafficOracle:
    """Replication frames are pinned to the byte, per catch-up shape.

    Each row exercises one of the moments backups are brought up to date
    (an eager write, an eager batch commit, a quorum write on its own and
    inside a batch, an interval tick, the initial seed, a reseed after a
    lost forward) over every transport.
    """

    @pytest.mark.parametrize("transport", ORACLE_TRANSPORTS)
    @pytest.mark.parametrize("row", sorted({row for row, _ in REPLICATION_TRAFFIC_ORACLE}))
    def test_traffic_matches_the_oracle(self, row, transport):
        assert _oracle_scenario(row, transport) == REPLICATION_TRAFFIC_ORACLE[row, transport]
