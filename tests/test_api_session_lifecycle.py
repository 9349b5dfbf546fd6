"""Session lifecycle: close() must not leak callbacks or event-queue work.

Regression suite for the façade teardown path: a session registers a rebind
listener on the cluster's (long-lived, shared) naming service, and a
replicated session additionally schedules heartbeat rounds on the event
queue and subscribes its replica manager to the detector.  Opening and
closing many sessions in one process must leave no trace of any of it.
"""

from __future__ import annotations

import pytest

import sample_app
from repro.api import ServicePolicy, Session
from repro.api.errors import PolicyError
from repro.core.metaobject import metaobject_of
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import OrderIntake


def _assert_closed(session):
    with pytest.raises(PolicyError, match="session is closed"):
        session.service("after-close")


@pytest.fixture
def cluster():
    return Cluster(("client", "shard-0", "shard-1"))


def _drain_queue(cluster, limit: int = 100_000) -> int:
    """Run the event queue dry; returns the number of events executed."""
    executed = 0
    while cluster.network.events.run_next():
        executed += 1
        assert executed < limit, "event queue never went idle (leaked reschedules)"
    return executed


class TestSessionClose:
    def test_close_unregisters_the_rebind_listener(self, cluster):
        before = len(cluster.naming._rebind_listeners)
        session = Session(cluster, node="client")
        assert len(cluster.naming._rebind_listeners) == before + 1
        session.close()
        assert len(cluster.naming._rebind_listeners) == before

    def test_close_is_idempotent(self, cluster):
        session = Session(cluster, node="client")
        session.close()
        session.close()
        _assert_closed(session)

    def test_close_stops_heartbeat_and_detaches_manager(self, cluster):
        session = Session(cluster, node="client")
        session.service(
            "orders",
            ServicePolicy(batch_window=4).with_replication(2, quorum=1),
            impl=OrderIntake(),
            node="shard-0",
            backup_nodes=["shard-1"],
        )
        detector = session.detector
        assert len(detector._failure_listeners) + len(detector._recovery_listeners) == 2
        session.close()
        assert not detector.running
        assert detector.watched_nodes() == []
        assert detector._failure_listeners == [] and detector._recovery_listeners == []
        # Whatever round was already scheduled becomes a no-op and the
        # queue goes idle instead of rescheduling forever.
        _drain_queue(cluster)

    def test_close_tears_down_even_when_the_drain_raises(self, cluster):
        """A failing drain must not skip the teardown (or wedge close())."""
        from repro.api.errors import UnknownTransportError

        session = Session(cluster, node="client")
        svc = session.service(
            "orders",
            ServicePolicy(transport="carrier-pigeon", batch_window=8),
            impl=OrderIntake(),
            node="shard-0",
        )
        held = svc.future.submit("sku-1", 1, 10)  # buffered, not yet shipped
        with pytest.raises(UnknownTransportError):
            session.close()  # the drain's flush cannot encode the window
        _assert_closed(session)
        assert len(cluster.naming._rebind_listeners) == 0
        assert isinstance(held.exception(), UnknownTransportError)

    def test_network_failure_of_a_window_is_carried_by_its_futures(self, cluster):
        """Network weather never raises out of flush/drain/close — whatever
        the pipe, the futures carry it (only programming errors raise)."""
        from repro.api.errors import NetworkError

        session = Session(cluster, node="client")
        svc = session.service(
            "orders",
            ServicePolicy(transport="rmi", batch_window=8),
            impl=OrderIntake(),
            node="shard-0",
        )
        held = svc.future.submit("sku-1", 1, 10)  # buffered, not yet shipped
        cluster.network.failures.crash_node("shard-0")
        session.close()  # the drain's flush hits the dead node
        _assert_closed(session)
        assert isinstance(held.exception(), NetworkError)

    def test_exception_exit_still_unregisters(self, cluster):
        with pytest.raises(RuntimeError):
            with Session(cluster, node="client") as session:
                session.service("orders", impl=OrderIntake(), node="shard-0")
                raise RuntimeError("application error")
        assert len(cluster.naming._rebind_listeners) == 0

    def test_fifty_sessions_do_not_leak_callbacks(self, cluster):
        """The regression scenario: 50 replicated sessions, opened and closed,
        each also monitoring a transformed object's handle for adaptivity."""
        policy = (
            ServicePolicy(transport="rmi", batch_window=4, pipeline_depth=2)
            .with_replication(2, quorum=1)
        )
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(
            [sample_app.X, sample_app.Y, sample_app.Z]
        )
        app.deploy(cluster, default_node="client")
        y = app.new("Y", 5)
        for round_index in range(50):
            with Session(cluster, node="client") as session:
                session.enable_adaptivity(app)
                assert y.n(1) == 6
                svc = session.service(
                    f"orders-{round_index}",
                    policy,
                    impl=OrderIntake(),
                    node="shard-0",
                    backup_nodes=["shard-1"],
                )
                futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(8)]
                session.drain()
                assert all(f.ok for f in futures)
        assert len(cluster.naming._rebind_listeners) == 0
        # Every session's access monitor came off the handle with it.
        assert metaobject_of(y).chain.interceptors == ()
        # No detector keeps probing, no sync loop keeps ticking: the event
        # queue drains completely instead of replenishing itself.
        _drain_queue(cluster)
        assert cluster.network.events.run_next() is False

    def test_closed_session_cannot_ship_ghost_batches(self):
        """A backoff re-ship left on the shared event queue by a dead session
        must not fire its batch when a later party pumps the queue."""
        from repro.network.failures import FailureModel
        from repro.runtime.faulttolerance import RetryPolicy

        cluster = Cluster(
            ("client", "shard-0", "shard-1"),
            failures=FailureModel(drop_probability=1.0),
        )
        intake = OrderIntake()
        session = Session(cluster, node="client")
        svc = session.service(
            "orders",
            ServicePolicy(transport="rmi", batch_window=2, pipeline_depth=2)
            .with_retry(RetryPolicy(max_attempts=50, initial_backoff=0.5)),
            impl=intake,
            node="shard-0",
        )
        future = svc.future.submit("sku-1", 1, 10)
        svc.flush()  # ships; the drop schedules a far-future backoff re-ship
        session.close(drain=False)
        assert svc.scheduler._stopped
        # A later session on the same cluster pumps the shared queue; the
        # dead session's requeued batch must fail, not execute.
        while cluster.network.events.run_next():
            pass
        assert future.done and not future.ok
        assert intake.accepted_count() == 0
        # And fresh submissions against the retired scheduler fail fast
        # instead of stranding a silently-pending future.
        from repro.api.errors import InvocationError

        with pytest.raises(InvocationError, match="stopped"):
            svc.scheduler.submit(svc.reference, "submit", "sku-2", 1, 10)

    def test_closed_session_batch_futures_fail_instead_of_shipping(self, cluster):
        """result() on a future buffered in a closed session's BatchPipe must
        fail — not flush a window of messages into the cluster."""
        from repro.api.errors import InvocationError

        intake = OrderIntake()
        session = Session(cluster, node="client")
        svc = session.service(
            "orders", ServicePolicy(batch_window=8), impl=intake, node="shard-0"
        )
        held = svc.future.submit("sku-1", 1, 10)
        session.close(drain=False)
        before = cluster.metrics.total_messages
        with pytest.raises(InvocationError, match="stopped before this call shipped"):
            held.result()
        assert cluster.metrics.total_messages == before  # nothing shipped
        assert intake.accepted_count() == 0

    def test_dismantle_unexports_and_unbinds(self, cluster):
        """ROADMAP item: a dismantled session is fully reversible."""
        session = Session(cluster, node="client")
        before = len(cluster.space("shard-0").exported_objects())
        session.service("orders", impl=OrderIntake(), node="shard-0")
        assert "orders" in cluster.naming
        assert len(cluster.space("shard-0").exported_objects()) == before + 1
        session.dismantle()
        _assert_closed(session)
        assert "orders" not in cluster.naming
        assert len(cluster.space("shard-0").exported_objects()) == before

    def test_dismantle_tears_down_replica_groups(self, cluster):
        session = Session(cluster, node="client")
        objects_before = {
            node: len(cluster.space(node).exported_objects()) for node in cluster.node_ids()
        }
        svc = session.service(
            "orders",
            ServicePolicy(batch_window=4).with_replication(2, quorum=1),
            impl=OrderIntake(),
            node="shard-0",
            backup_nodes=["shard-1"],
        )
        svc.submit("sku-1", 1, 10)
        session.dismantle()
        assert "orders" not in cluster.naming
        for node in cluster.node_ids():
            assert len(cluster.space(node).exported_objects()) == objects_before[node], node
        assert session.replica_manager.groups() == []
        _drain_queue(cluster)

    def test_dismantle_leaves_foreign_deployments_alone(self, cluster):
        owner = Session(cluster, node="client")
        owner.service("orders", impl=OrderIntake(), node="shard-0")
        attacher = Session(cluster, node="client")
        attacher.service("orders")  # attach only
        attacher.dismantle()
        assert "orders" in cluster.naming  # the owner's binding survived
        owner.dismantle()
        assert "orders" not in cluster.naming

    def test_dismantle_is_idempotent_and_safe_after_close(self, cluster):
        session = Session(cluster, node="client")
        session.service("orders", impl=OrderIntake(), node="shard-0")
        session.close()
        session.dismantle()
        session.dismantle()
        assert "orders" not in cluster.naming

    def test_fifty_dismantled_sessions_leak_nothing(self, cluster):
        """The leak regression, extended to cover dismantle(): names, exports,
        listeners and event-queue work must all be gone."""
        policy = (
            ServicePolicy(transport="rmi", batch_window=4, pipeline_depth=2)
            .with_replication(2, quorum=1)
            .with_caching(lease_ms=50)
        )
        objects_before = {
            node: len(cluster.space(node).exported_objects()) for node in cluster.node_ids()
        }
        names_before = cluster.naming.names()
        for round_index in range(50):
            session = Session(cluster, node="client")
            svc = session.service(
                f"orders-{round_index}",
                policy,
                impl=OrderIntake(),
                node="shard-0",
                backup_nodes=["shard-1"],
            )
            futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(8)]
            svc.call("accepted_count")
            session.drain()
            assert all(f.ok for f in futures)
            session.dismantle()
        assert cluster.naming.names() == names_before
        assert len(cluster.naming._rebind_listeners) == 0
        assert len(cluster.space("client").coherence.listeners) == 0
        for node in cluster.node_ids():
            assert len(cluster.space(node).exported_objects()) == objects_before[node], node
        _drain_queue(cluster)
        assert cluster.network.events.run_next() is False

    def test_rebinds_after_close_do_not_touch_old_services(self, cluster):
        session = Session(cluster, node="client")
        svc = session.service("orders", impl=OrderIntake(), node="shard-0")
        old_ref = svc.reference
        session.close()
        replacement = cluster.space("shard-1").export(OrderIntake())
        cluster.naming.rebind("orders", replacement)
        assert svc.reference == old_ref  # the closed session stopped listening


class TestDeployNeedsANode:
    def test_deploying_without_a_node_is_refused(self, cluster):
        with Session(cluster, node="client") as session:
            with pytest.raises(PolicyError, match="'orders' needs node="):
                session.service("orders", impl=OrderIntake())

    def test_a_refused_deploy_leaves_no_export_and_no_binding(self, cluster):
        objects_before = {
            node: len(cluster.space(node).exported_objects()) for node in cluster.node_ids()
        }
        with Session(cluster, node="client") as session:
            with pytest.raises(PolicyError):
                session.service("orders", impl=OrderIntake())
            assert "orders" not in cluster.naming
            for node in cluster.node_ids():
                assert len(cluster.space(node).exported_objects()) == objects_before[node], node
            # The name is still free: the same session deploys it once a node is given.
            service = session.service("orders", impl=OrderIntake(), node="shard-0")
            assert cluster.naming.lookup("orders").node_id == "shard-0"
            assert service is not None
