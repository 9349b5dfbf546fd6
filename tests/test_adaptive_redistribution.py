"""Experiment E8: the application adapts by altering its distribution boundaries.

The access pattern of the order-processing workload shifts between nodes; the
adaptive distribution manager observes per-node call counts on the rebindable
handles and moves each hot object towards the node that uses it most.  The
tests check the decision logic (monitoring, thresholds, suggestions) and that
applying the adaptation actually reduces remote traffic for the new phase.
"""

from __future__ import annotations

import pytest

import sample_app
from local_instances import new_local
from repro.api.errors import RedistributionError
from repro.core.transformer import ApplicationTransformer
from repro.policy.adaptive import AdaptiveDistributionManager
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController
from repro.workloads.orders import Catalog, CustomerSession, OrderStore, seed_catalog

SAMPLE = [sample_app.X, sample_app.Y, sample_app.Z]
ORDERS = [Catalog, OrderStore, CustomerSession]


@pytest.fixture
def adaptive_setup():
    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(SAMPLE)
    cluster = Cluster(("front", "back"))
    app.deploy(cluster, default_node="front")
    controller = DistributionController(app, cluster)
    manager = AdaptiveDistributionManager(app, controller, threshold=0.6, min_calls=5)
    return app, cluster, controller, manager


class TestAccessMonitoring:
    def test_monitor_attributes_calls_to_the_executing_node(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        y = app.new("Y", 1)
        manager.attach(y)
        y.n(1)
        with app.executing_on("back"):
            y.n(2)
            y.n(3)
        monitor = manager._monitors[id(y)]
        assert monitor.total_calls == 3
        assert monitor.calls_per_node["front"] == 1
        assert monitor.calls_per_node["back"] == 2
        assert monitor.dominant_node()[0] == "back"

    def test_attach_requires_a_dynamic_handle(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        with pytest.raises(RedistributionError):
            manager.attach(new_local(app, "Y", 1))

    def test_attach_is_idempotent_and_attach_all_covers_handles(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        y = app.new("Y", 1)
        first = manager.attach(y)
        assert manager.attach(y) is first
        app.new("Y", 2)
        assert manager.attach_all() == 2
        assert len(manager.monitored_handles()) == 2

    def test_monitor_reset_clears_the_window(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        y = app.new("Y", 1)
        monitor = manager.attach(y)
        y.n(1)
        monitor.reset()
        assert monitor.total_calls == 0
        assert monitor.dominant_node() is None

    def test_invalid_threshold_rejected(self, adaptive_setup):
        app, _, controller, _ = adaptive_setup
        with pytest.raises(RedistributionError):
            AdaptiveDistributionManager(app, controller, threshold=0.0)


class TestSuggestions:
    def test_no_suggestion_below_min_calls(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        y = app.new("Y", 1)
        manager.attach(y)
        y.n(1)
        assert manager.evaluate() == []

    def test_no_suggestion_when_calls_come_from_home(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        y = app.new("Y", 1)
        manager.attach(y)
        for _ in range(10):
            y.n(1)
        assert manager.evaluate() == []

    def test_suggestion_when_a_foreign_node_dominates(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        y = app.new("Y", 1)
        manager.attach(y)
        with app.executing_on("back"):
            for _ in range(10):
                y.n(1)
        suggestions = manager.evaluate()
        assert len(suggestions) == 1
        assert suggestions[0].target_node == "back"
        assert suggestions[0].caller_share == 1.0
        assert "Y" in suggestions[0].describe()

    def test_no_suggestion_below_threshold_share(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        y = app.new("Y", 1)
        manager.attach(y)
        for _ in range(5):
            y.n(1)
        with app.executing_on("back"):
            for _ in range(5):
                y.n(1)
        assert manager.evaluate() == []  # 50 % share < 60 % threshold


class TestAdaptation:
    def test_adapt_moves_the_object_to_its_dominant_caller(self, adaptive_setup):
        app, cluster, controller, manager = adaptive_setup
        y = app.new("Y", 1)
        manager.attach(y)
        with app.executing_on("back"):
            for _ in range(10):
                y.n(1)
        record = manager.adapt()
        assert record.moved == 1
        assert controller.boundary_of(y) == ("remote", "back")
        assert manager.history[-1] is record

    def test_adaptation_reduces_traffic_for_the_new_phase(self, adaptive_setup):
        app, cluster, controller, manager = adaptive_setup
        y = app.new("Y", 1)
        manager.attach(y)
        controller.make_remote(y, "back")

        # Phase: the front node hammers an object living on the back node.
        cluster.network.reset_metrics()
        for _ in range(20):
            y.n(1)
        remote_phase_messages = cluster.metrics.total_messages
        assert remote_phase_messages > 0

        # The manager notices and brings the object home.
        record = manager.adapt()
        assert record.moved == 1
        assert controller.boundary_of(y)[0] == "local"

        cluster.network.reset_metrics()
        for _ in range(20):
            y.n(1)
        assert cluster.metrics.total_messages == 0

    def test_adaptation_window_resets_after_a_move(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        y = app.new("Y", 1)
        monitor = manager.attach(y)
        with app.executing_on("back"):
            for _ in range(10):
                y.n(1)
        manager.adapt()
        assert monitor.total_calls == 0

    def test_reset_window_clears_all_monitors(self, adaptive_setup):
        app, _, _, manager = adaptive_setup
        y = app.new("Y", 1)
        monitor = manager.attach(y)
        y.n(1)
        manager.reset_window()
        assert monitor.total_calls == 0


class TestShiftingOrderWorkload:
    def test_orders_move_to_the_warehouse_during_fulfilment(self):
        """The order store follows the workload from the front node to the warehouse."""
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(ORDERS)
        cluster = Cluster(("front", "warehouse"))
        app.deploy(cluster, default_node="front")
        controller = DistributionController(app, cluster)
        manager = AdaptiveDistributionManager(app, controller, threshold=0.6, min_calls=5)

        catalog = app.new("Catalog")
        orders = app.new("OrderStore")
        seed_catalog(catalog, 10)
        manager.attach(catalog)
        manager.attach(orders)

        # Browse phase on the front node: place a few orders.
        session = app.new("CustomerSession", "alice", catalog, orders)
        for index in range(10):
            session.browse([f"sku-{index % 10}"])
            session.buy(f"sku-{index % 10}", 1)
        manager.adapt()

        # Fulfilment phase on the warehouse node.
        with app.executing_on("warehouse"):
            for order_id in list(orders.pending()):
                orders.fulfil(order_id)
            for _ in range(10):
                orders.order_count()
        record = manager.adapt()

        moved_classes = {suggestion.class_name for suggestion in record.applied}
        assert "OrderStore" in moved_classes
        assert controller.boundary_of(orders) == ("remote", "warehouse")
        # The orders placed during the browse phase are visible after the move.
        assert orders.revenue() > 0


def _hammer_from_back(app, handle, calls):
    with app.executing_on("back"):
        for _ in range(calls):
            handle.n(1)


class TestSeedEquivalence:
    """A bare manager (no network connected) decides by the seed rule: move
    iff the window holds at least ``min_calls`` calls and one node's share is
    at least ``threshold``."""

    @pytest.fixture
    def seed_setup(self):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(SAMPLE)
        cluster = Cluster(("front", "back"))
        app.deploy(cluster, default_node="front")
        controller = DistributionController(app, cluster)
        manager = AdaptiveDistributionManager(app, controller, threshold=0.6, min_calls=10)
        return app, controller, manager

    def test_default_manager_weighs_the_window_as_observed(self, seed_setup):
        app, _, manager = seed_setup
        y = app.new("Y", 1)
        monitor = manager.attach(y)
        _hammer_from_back(app, y, 17)
        assert manager.amortised_call_count(monitor) == 17.0

    @pytest.mark.parametrize("calls", [0, 1, 9, 10, 11, 25])
    def test_decisions_match_seed_across_the_call_range(self, seed_setup, calls):
        app, _, manager = seed_setup
        y = app.new("Y", 1)
        manager.attach(y)
        _hammer_from_back(app, y, calls)
        suggestions = manager.evaluate()
        seed_would_move = calls >= manager.min_calls  # share is always 1.0 here
        assert bool(suggestions) is seed_would_move
        if suggestions:
            assert suggestions[0].amortised_calls == float(calls)
            assert suggestions[0].call_count == calls

    def test_suggestion_fields(self, seed_setup):
        app, _, manager = seed_setup
        y = app.new("Y", 1)
        manager.attach(y)
        _hammer_from_back(app, y, 12)
        (suggestion,) = manager.evaluate()
        assert suggestion.target_node == "back"
        assert suggestion.caller_share == 1.0
        assert suggestion.call_count == 12
        assert "Y" in suggestion.describe()

    def test_adapt_moves_and_resets_window(self, seed_setup):
        app, controller, manager = seed_setup
        y = app.new("Y", 1)
        monitor = manager.attach(y)
        _hammer_from_back(app, y, 40)
        record = manager.adapt()
        assert record.moved == 1
        assert controller.boundary_of(y) == ("remote", "back")
        assert monitor.total_calls == 0

    @pytest.mark.parametrize(
        "knob", ["batch_size", "pipeline_depth", "replication_factor", "cache_hit_ratio"]
    )
    def test_the_window_takes_no_assumed_traffic_knob(self, seed_setup, knob):
        """The window is weighed only by what the monitor counted, so the
        manager refuses a configured batch, pipeline, replication or cache
        term instead of silently discounting the calls."""
        app, controller, _ = seed_setup
        with pytest.raises(TypeError, match=knob):
            AdaptiveDistributionManager(app, controller, **{knob: 2})
