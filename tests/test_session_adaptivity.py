"""Session-owned adaptivity (ROADMAP item: the façade auto-wires adapt()).

A :class:`~repro.api.session.Session` can own the
:class:`~repro.policy.adaptive.AdaptiveDistributionManager`: it builds the
controller, connects the cluster's network (measured congestion), exposes
``adapt()``, and drives rounds from the cluster's event queue via
``auto_adapt()`` — cancelled on close so no tick leaks into later sessions.
The manager weighs a handle's window only by what its monitor counted, so
the session's services cannot veto a hot object's move.
"""

from __future__ import annotations

import pytest

import sample_app
from repro.api import ServicePolicy, Session
from repro.api.errors import PolicyError
from repro.core.metaobject import metaobject_of
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.runtime.batching import BatchingProxy
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import OrderIntake

SAMPLE = [sample_app.X, sample_app.Y, sample_app.Z]


@pytest.fixture
def deployed():
    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(SAMPLE)
    cluster = Cluster(("front", "back"))
    app.deploy(cluster, default_node="front")
    return app, cluster


def _hammer_from_back(app, handle, calls):
    with app.executing_on("back"):
        for _ in range(calls):
            handle.n(1)


class TestSessionAdaptivity:
    def test_adapt_requires_enabling_first(self, deployed):
        app, cluster = deployed
        with Session(cluster, node="front") as session:
            with pytest.raises(PolicyError, match="enable_adaptivity"):
                session.adapt()
            with pytest.raises(PolicyError, match="enable_adaptivity"):
                session.auto_adapt(0.5)

    def test_enable_twice_is_an_error(self, deployed):
        app, cluster = deployed
        with Session(cluster, node="front") as session:
            session.enable_adaptivity(app)
            with pytest.raises(PolicyError, match="already"):
                session.enable_adaptivity(app)

    def test_auto_adapt_runs_rounds_from_the_event_queue(self, deployed):
        app, cluster = deployed
        with Session(cluster, node="front") as session:
            manager = session.enable_adaptivity(app, interval=0.01)
            y = app.new("Y", 1)
            manager.attach(y)
            _hammer_from_back(app, y, 20)
            # Pump past one tick: the scheduled round applies the move.
            deadline = cluster.clock.now + 0.05
            while cluster.clock.now < deadline and cluster.network.events.run_next():
                pass
            assert len(manager.history) >= 1
            assert sum(record.moved for record in manager.history) == 1
        # Closed: the pending tick is a no-op and the queue drains.
        while cluster.network.events.run_next():
            pass
        assert cluster.network.events.run_next() is False
        assert manager.history == manager.history  # no further rounds appended

    def test_close_cancels_auto_adapt(self, deployed):
        app, cluster = deployed
        session = Session(cluster, node="front")
        manager = session.enable_adaptivity(app, interval=0.01)
        session.close()
        rounds_before = len(manager.history)
        for _ in range(100):
            if not cluster.network.events.run_next():
                break
        assert len(manager.history) == rounds_before


def _no_other_traffic(session, y):
    pass


def _pipelined_service(session, y):
    svc = session.service(
        "orders",
        ServicePolicy(transport="rmi", batch_window=4, pipeline_depth=4),
        impl=OrderIntake(),
        node="back",
    )
    futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(64)]
    session.drain()
    assert all(f.ok for f in futures)
    assert svc.scheduler.observed_pipeline_depth > 1.0


def _cached_service(session, y):
    svc = session.service(
        "cache-me",
        ServicePolicy(transport="rmi").with_caching(
            lease_ms=500, cacheable=("accepted_count",)
        ),
        impl=OrderIntake(),
        node="back",
    )
    for _ in range(10):
        svc.call("accepted_count")
    assert session.cache_manager.hits == 9


def _batched_calls_through_the_handle(session, y):
    controller = session.adaptive_manager.controller
    controller.make_remote(y, "back")
    batch = BatchingProxy(y)
    futures = [batch.n(1) for _ in range(16)]
    batch.flush()
    assert all(f.ok for f in futures)
    controller.make_local(y)


def _batched_service(session, y):
    svc = session.service(
        "batched-orders",
        ServicePolicy(transport="rmi", batch_window=8),
        impl=OrderIntake(),
        node="back",
    )
    futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(32)]
    session.drain()
    assert all(f.ok for f in futures)


def _replicated_service(session, y):
    svc = session.service(
        "replicated-orders",
        ServicePolicy(transport="rmi").with_replication(2, quorum="majority"),
        impl=OrderIntake(),
        node="back",
        backup_nodes=["front"],
    )
    for i in range(16):
        svc.submit(f"sku-{i}", 1, 10)
    assert svc.accepted_count() == 16


OTHER_TRAFFIC = pytest.mark.parametrize(
    "other_traffic",
    [
        _no_other_traffic,
        _pipelined_service,
        _cached_service,
        _batched_calls_through_the_handle,
        _batched_service,
        _replicated_service,
    ],
    ids=[
        "nothing",
        "pipelined-service",
        "cached-service",
        "batching-proxy",
        "batched-service",
        "replicated-service",
    ],
)


class TestAdaptivityCountsOwnTraffic:
    """The classic affinity scenario, driven through ``Session.adapt()``: 20
    calls to ``y`` from ``back`` move it there.  Every row but ``nothing``
    first adds other traffic in the same session: a service's pipelined,
    cached, batched or replicated calls never pass through ``y``'s monitor,
    so they neither count nor discount its window, and ``y`` still moves."""

    @OTHER_TRAFFIC
    def test_a_hot_object_moves(self, deployed, other_traffic):
        app, cluster = deployed
        with Session(cluster, node="front") as session:
            manager = session.enable_adaptivity(app)
            y = app.new("Y", 1)
            monitor = manager.attach(y)
            other_traffic(session, y)
            _hammer_from_back(app, y, 20)
            assert monitor.total_calls == 20
            assert session.adapt().moved == 1
            assert metaobject_of(y).node_id == "back"

    @OTHER_TRAFFIC
    def test_a_cold_object_stays(self, deployed, other_traffic):
        """One call short of ``min_calls``: the other traffic cannot lift the
        window over the bar either, so ``y`` stays where it is."""
        app, cluster = deployed
        with Session(cluster, node="front") as session:
            manager = session.enable_adaptivity(app)
            y = app.new("Y", 1)
            monitor = manager.attach(y)
            other_traffic(session, y)
            _hammer_from_back(app, y, manager.min_calls - 1)
            assert monitor.total_calls == manager.min_calls - 1
            assert session.adapt().moved == 0
            assert metaobject_of(y).node_id == "front"

    def test_enabling_monitors_the_handles_that_already_exist(self, deployed):
        app, cluster = deployed
        y = app.new("Y", 1)
        with Session(cluster, node="front") as session:
            manager = session.enable_adaptivity(app)
            monitor = manager.monitor_for(y)
            assert monitor is not None
            _hammer_from_back(app, y, 20)
            assert monitor.total_calls == 20
            assert session.adapt().moved == 1
