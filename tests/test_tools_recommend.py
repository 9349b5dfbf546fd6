"""Unit tests for the placement recommender (capturing/deciding policy)."""

from __future__ import annotations

import pytest

import sample_app
from repro.core.metaobject import metaobject_of
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.tools.recommend import (
    ClassAffinity,
    PlacementRecommender,
    profile_and_recommend,
)
from repro.workloads.figure1 import A, B, C
from repro.workloads.orders import Catalog, CustomerSession, OrderStore, seed_catalog

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]


@pytest.fixture
def profiled_app():
    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(CLASSES)
    cluster = Cluster(("front", "back", "archive"))
    app.deploy(cluster, default_node="front")
    return app, cluster


class TestClassAffinity:
    def test_dominant_node_and_share(self):
        affinity = ClassAffinity("Cache")
        affinity.calls_per_node.update({"a": 30, "b": 10})
        assert affinity.total_calls == 40
        assert affinity.dominant_node() == "a"
        assert affinity.dominant_share() == pytest.approx(0.75)

    def test_empty_affinity(self):
        affinity = ClassAffinity("Cache")
        assert affinity.dominant_node() is None
        assert affinity.dominant_share() == 0.0


class TestRecommender:
    def test_attach_all_covers_every_handle(self, profiled_app):
        app, _ = profiled_app
        app.new("Y", 1)
        app.new("Z", 2)
        recommender = PlacementRecommender(app)
        assert recommender.attach_all() == 2
        assert recommender.attach_all() == 0  # idempotent

    def test_recommends_the_dominant_calling_node(self, profiled_app):
        app, _ = profiled_app
        y = app.new("Y", 1)
        recommender = PlacementRecommender(app, min_calls=5, threshold=0.6)
        recommender.attach_all()
        with app.executing_on("back"):
            for _ in range(12):
                y.n(1)
        recommendation = recommender.recommend()
        assert recommendation.placement == {"Y": "back"}
        assert recommendation.undecided == []
        assert "Y" in recommendation.describe()

    def test_insufficient_calls_leave_a_class_undecided(self, profiled_app):
        app, _ = profiled_app
        y = app.new("Y", 1)
        recommender = PlacementRecommender(app, min_calls=50)
        recommender.attach_all()
        y.n(1)
        recommendation = recommender.recommend()
        assert recommendation.placement == {}
        assert recommendation.undecided == ["Y"]

    def test_no_dominant_node_leaves_a_class_undecided(self, profiled_app):
        app, _ = profiled_app
        y = app.new("Y", 1)
        recommender = PlacementRecommender(app, min_calls=4, threshold=0.9)
        recommender.attach_all()
        for _ in range(5):
            y.n(1)
        with app.executing_on("back"):
            for _ in range(5):
                y.n(1)
        recommendation = recommender.recommend()
        assert "Y" in recommendation.undecided

    def test_detach_all_empties_every_chain(self, profiled_app):
        app, _ = profiled_app
        y = app.new("Y", 1)
        recommender = PlacementRecommender(app, min_calls=1)
        recommender.attach_all()
        assert len(metaobject_of(y).chain.interceptors) == 1
        recommender.detach_all()
        assert metaobject_of(y).chain.empty
        assert recommender.recommend().affinities == {}

    def test_multiple_instances_of_a_class_aggregate(self, profiled_app):
        app, _ = profiled_app
        first = app.new("Y", 1)
        second = app.new("Y", 2)
        recommender = PlacementRecommender(app, min_calls=6, threshold=0.6)
        recommender.attach_all()
        with app.executing_on("archive"):
            for _ in range(4):
                first.n(1)
            for _ in range(4):
                second.n(1)
        recommendation = recommender.recommend()
        assert recommendation.placement == {"Y": "archive"}
        assert recommendation.affinities["Y"].total_calls == 8


class TestRecommendationOutputs:
    def test_to_policy_places_remote_classes(self, profiled_app):
        app, _ = profiled_app
        y = app.new("Y", 1)
        recommender = PlacementRecommender(app, min_calls=5)
        recommender.attach_all()
        with app.executing_on("back"):
            for _ in range(10):
                y.n(1)
        recommendation = recommender.recommend()
        policy = recommendation.to_policy(transport="soap", home_node="front")
        decision = policy.instance_decision("Y")
        assert decision.is_remote and decision.node_id == "back"
        assert decision.transport == "soap"

    def test_to_policy_keeps_home_classes_local(self, profiled_app):
        app, _ = profiled_app
        y = app.new("Y", 1)
        recommender = PlacementRecommender(app, min_calls=2)
        recommender.attach_all()
        for _ in range(5):
            y.n(1)
        recommendation = recommender.recommend()
        assert recommendation.placement == {"Y": "front"}
        policy = recommendation.to_policy(home_node="front")
        assert not policy.instance_decision("Y").is_remote

class TestProfileAndRecommend:
    def test_end_to_end_profiling_of_the_orders_workload(self):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(
            [Catalog, OrderStore, CustomerSession]
        )
        cluster = Cluster(("front", "warehouse"))
        app.deploy(cluster, default_node="front")

        catalog = app.new("Catalog")
        orders = app.new("OrderStore")
        seed_catalog(catalog, 8)

        def workload():
            session = app.new("CustomerSession", "c", catalog, orders)
            for index in range(12):
                session.browse([f"sku-{index % 8}"])
                if index % 3 == 0:
                    session.buy(f"sku-{index % 8}", 1)
            with app.executing_on("warehouse"):
                for order_id in list(orders.pending()):
                    orders.fulfil(order_id)
                for _ in range(20):
                    orders.order_count()

        recommendation = profile_and_recommend(app, workload, min_calls=5, threshold=0.55)
        assert recommendation.placement.get("Catalog") == "front"
        assert recommendation.placement.get("OrderStore") == "warehouse"

    def test_repeated_profiling_leaves_no_monitor_behind(self):
        """Each run's monitors come off once it has recommended, so the
        handles' chains stay empty however often the program is profiled."""
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([A, B, C])
        app.deploy(Cluster(("front", "back")), default_node="front")
        shared = app.new("C", "shared")
        a, b = app.new("A", shared), app.new("B", shared)

        def work():
            with app.executing_on("back"):
                for value in range(6):
                    a.record(value)
                    b.record(value)

        for _ in range(3):
            recommendation = profile_and_recommend(app, work, min_calls=5)
            assert recommendation.placement == {"A": "back", "B": "back", "C": "front"}
        for handle in app.handles():
            assert metaobject_of(handle).chain.empty
