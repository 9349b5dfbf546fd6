"""Session-owned adaptivity (ROADMAP item: the façade auto-wires adapt()).

A :class:`~repro.api.session.Session` can own the
:class:`~repro.policy.adaptive.AdaptiveDistributionManager`: it builds the
controller, connects its shared pipeline schedulers (measured depth) and its
cache manager (measured hit rate) as they appear, exposes ``adapt()``, and
drives rounds from the cluster's event queue via ``auto_adapt()`` —
cancelled on close so no tick leaks into later sessions.
"""

from __future__ import annotations

import pytest

import sample_app
from repro.api import ServicePolicy, Session
from repro.api.errors import PolicyError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
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

    def test_session_adapt_moves_a_hot_object(self, deployed):
        """The classic affinity scenario, driven through Session.adapt()."""
        app, cluster = deployed
        with Session(cluster, node="front") as session:
            manager = session.enable_adaptivity(app)
            y = app.new("Y", 1)
            manager.attach(y)
            _hammer_from_back(app, y, 20)
            record = session.adapt()
            assert record.moved == 1
            from repro.core.metaobject import metaobject_of

            assert metaobject_of(y).node_id == "back"

    def test_schedulers_feed_measured_depth(self, deployed):
        """A session scheduler created after enabling is connected: the
        manager amortises by its *measured* depth."""
        app, cluster = deployed
        with Session(cluster, node="front") as session:
            manager = session.enable_adaptivity(app)
            svc = session.service(
                "orders",
                ServicePolicy(transport="rmi", batch_window=4, pipeline_depth=4),
                impl=OrderIntake(),
                node="back",
            )
            futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(32)]
            session.drain()
            assert all(f.ok for f in futures)
            assert manager.effective_pipeline_depth() == pytest.approx(
                svc.scheduler.observed_pipeline_depth
            )

    def test_cache_manager_feeds_measured_hit_rate(self, deployed):
        app, cluster = deployed
        with Session(cluster, node="front") as session:
            manager = session.enable_adaptivity(app)
            svc = session.service(
                "cache-me",
                ServicePolicy(transport="rmi").with_caching(
                    lease_ms=500, cacheable=("accepted_count",)
                ),
                impl=OrderIntake(),
                node="back",
            )
            for _ in range(4):
                svc.call("accepted_count")
            assert session.cache_manager.hits == 3
            assert manager.effective_cache_hit_ratio() == pytest.approx(0.75)

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
