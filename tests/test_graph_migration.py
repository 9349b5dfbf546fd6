"""Unit tests for co-migration of object graphs."""

from __future__ import annotations

import pytest

from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.migration import reachable_handles
from repro.runtime.redistribution import DistributionController
from repro.workloads.figure1 import A, B, C
from repro.workloads.orders import Catalog, CustomerSession, OrderStore, seed_catalog


@pytest.fixture
def dynamic_figure1():
    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([A, B, C])
    cluster = Cluster(("client", "server"))
    app.deploy(cluster, default_node="client")
    return app, cluster


class TestReachability:
    def test_reachable_handles_follow_fields(self, dynamic_figure1):
        app, _ = dynamic_figure1
        shared = app.new("C", "shared")
        holder = app.new("A", shared)
        found = reachable_handles(app, holder)
        assert shared in found

    def test_reachability_descends_into_containers(self):
        class Registry:
            def __init__(self):
                self.entries = []

            def register(self, item):
                entries = self.entries
                entries.append(item)
                self.entries = entries
                return len(entries)

        class Item:
            def __init__(self, name):
                self.name = name

        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([Registry, Item])
        app.deploy(Cluster(("a", "b")), default_node="a")
        registry = app.new("Registry")
        items = [app.new("Item", f"i{i}") for i in range(3)]
        for item in items:
            registry.register(item)
        found = reachable_handles(app, registry)
        assert set(map(id, items)) <= set(map(id, found))

    def test_reachability_handles_cycles(self, dynamic_figure1):
        app, _ = dynamic_figure1
        shared = app.new("C", "shared")
        holder_a = app.new("A", shared)
        holder_b = app.new("B", shared)
        # Create a cycle: the shared C's label points back at holder_a.
        shared.set_label(holder_a)
        found = reachable_handles(app, holder_b)
        assert shared in found and holder_a in found

    def test_depth_limit(self, dynamic_figure1):
        app, _ = dynamic_figure1
        shared = app.new("C", "shared")
        holder = app.new("A", shared)
        assert reachable_handles(app, holder, max_depth=0) == []


class TestGraphMigration:
    def test_whole_graph_moves_together(self, dynamic_figure1):
        app, cluster = dynamic_figure1
        shared = app.new("C", "shared")
        holder_a = app.new("A", shared)
        holder_b = app.new("B", shared)
        holder_a.record(2)

        migrator = DistributionController(app, cluster)
        records = migrator.move_graph(holder_a, "server")
        # holder_a and the shared C moved; holder_b still reaches the same C.
        assert {record.class_name for record in records} >= {"A", "C"}
        assert holder_a.meta.node_id == "server"
        assert shared.meta.node_id == "server"
        holder_b.record(5)
        assert shared.get_total() == 12

    def test_objects_already_on_the_target_are_skipped(self, dynamic_figure1):
        app, cluster = dynamic_figure1
        shared = app.new("C", "shared")
        holder = app.new("A", shared)
        migrator = DistributionController(app, cluster)
        migrator.move(shared, "server")
        records = migrator.move_graph(holder, "server")
        assert {record.class_name for record in records} == {"A"}

    def test_graph_migration_keeps_results_identical(self):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(
            [Catalog, OrderStore, CustomerSession]
        )
        cluster = Cluster(("front", "warehouse"))
        app.deploy(cluster, default_node="front")
        catalog = app.new("Catalog")
        orders = app.new("OrderStore")
        seed_catalog(catalog, 5)
        session = app.new("CustomerSession", "alice", catalog, orders)
        session.buy("sku-1", 2)

        migrator = DistributionController(app, cluster)
        records = migrator.move_graph(session, "warehouse")
        moved = {record.class_name for record in records}
        assert {"CustomerSession", "Catalog", "OrderStore"} <= moved

        # The whole back end now lives on the warehouse; behaviour unchanged.
        assert session.buy("sku-2", 1) >= 0
        assert orders.order_count() == 2
        assert catalog.product_count() == 5
