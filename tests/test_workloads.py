"""Unit tests for the synthetic application workloads."""

from __future__ import annotations

import pytest

import matrix
from repro.api import ServicePolicy
from repro.core.transformer import ApplicationTransformer
from repro.network.simnet import LinkConfig
from repro.policy.policy import all_local_policy, place_classes_on
from repro.runtime.cluster import Cluster
from repro.workloads._runs import run_prefix
from repro.workloads.bulk_orders import OrderIntake, run_order_stream
from repro.workloads.figure1 import run_figure1_plain
from repro.workloads.orders import (
    Catalog,
    CustomerSession,
    OrderStore,
    seed_catalog,
)
from repro.workloads.partitioned_orders import run_partitioned_order_scenario
from repro.workloads.pipeline import Buffer, Consumer, Producer, run_pipeline
from repro.workloads.shared_cache import Cache, CacheClient, run_cache_workload

PIPELINE = [Buffer, Producer, Consumer]
CACHE = [Cache, CacheClient]
ORDERS = [Catalog, OrderStore, CustomerSession]


class TestFigure1Workload:
    def test_plain_run_is_deterministic(self):
        assert run_figure1_plain().as_tuple() == run_figure1_plain().as_tuple()

    def test_totals_reflect_both_writers(self):
        result = run_figure1_plain((2, 4))
        assert result.total == 2 + 4 + 4 + 8
        assert result.description.endswith(str(result.total))


class TestCacheWorkload:
    def test_plain_cache_semantics(self):
        cache = Cache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts the oldest entry
        assert cache.size() == 2
        assert cache.get("c") == 3
        assert cache.get("a") is None
        assert 0.0 < cache.hit_rate() < 1.0
        assert cache.clear()
        assert cache.size() == 0

    def test_client_warm_and_read_back(self):
        cache = Cache(64)
        client = CacheClient("alpha", cache)
        assert client.warm(10) == 10
        assert client.read_back(10) == 10
        assert client.operations == 20

    def test_workload_runs_on_a_transformed_local_application(self):
        app = ApplicationTransformer(all_local_policy()).transform(CACHE)
        stats = run_cache_workload(app, clients=2, writes_per_client=5, reads_per_client=5)
        assert stats.operations == 20
        assert stats.hits == 10
        assert stats.misses == 0
        assert stats.hit_rate == 1.0

    def test_workload_is_identical_when_the_cache_is_remote(self):
        local_app = ApplicationTransformer(all_local_policy()).transform(CACHE)
        expected = run_cache_workload(local_app, clients=2, writes_per_client=4, reads_per_client=4)

        remote_app = ApplicationTransformer(place_classes_on({"Cache": "server"})).transform(CACHE)
        cluster = Cluster(("client", "server"))
        remote_app.deploy(cluster, default_node="client")
        observed = run_cache_workload(remote_app, clients=2, writes_per_client=4, reads_per_client=4)
        assert observed == expected
        assert cluster.metrics.total_messages > 0


class TestPipelineWorkload:
    def test_plain_pipeline_semantics(self):
        buffer = Buffer(3)
        producer = Producer(buffer)
        consumer = Consumer(buffer)
        producer.produce(5)
        assert producer.produced == 3 and producer.dropped == 2
        assert buffer.depth() == 3
        consumer.drain(10)
        assert consumer.consumed == 3
        assert buffer.depth() == 0
        assert buffer.poll() is None

    def test_pipeline_runs_on_a_transformed_application(self):
        app = ApplicationTransformer(all_local_policy()).transform(PIPELINE)
        outcome = run_pipeline(app, rounds=3, batch=4, capacity=16)
        assert outcome["produced"] == 12
        assert outcome["consumed"] == 12
        assert outcome["checksum"] == sum(range(12))
        assert outcome["residual_depth"] == 0

    def test_pipeline_with_remote_buffer_matches_local(self):
        local_app = ApplicationTransformer(all_local_policy()).transform(PIPELINE)
        expected = run_pipeline(local_app, rounds=3, batch=4)

        remote_app = ApplicationTransformer(place_classes_on({"Buffer": "queue-node"})).transform(
            PIPELINE
        )
        remote_app.deploy(Cluster(("worker", "queue-node")), default_node="worker")
        assert run_pipeline(remote_app, rounds=3, batch=4) == expected


class TestOrdersWorkload:
    def test_catalog_and_order_store_semantics(self):
        catalog = Catalog()
        orders = OrderStore()
        catalog.add_product("sku-1", 10, 5)
        session = CustomerSession("alice", catalog, orders)
        assert session.browse(["sku-1", "missing"]) == 10
        order_id = session.buy("sku-1", 2)
        assert order_id == 0
        assert orders.pending() == [0]
        assert orders.fulfil(order_id)
        assert not orders.fulfil(order_id)
        assert orders.revenue() == 20
        assert not catalog.reserve("sku-1", 100)
        assert session.buy("missing", 1) == -1

    def test_phases_run_against_a_deployed_application(self):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(ORDERS)
        app.deploy(Cluster(("front", "warehouse")), default_node="front")
        catalog = app.new("Catalog")
        orders = app.new("OrderStore")
        seed_catalog(catalog, 10)

        with app.executing_on("front"):
            session = app.new("CustomerSession", "customer@front", catalog, orders)
            browsed = sum(
                session.browse([f"sku-{index}", f"sku-{index + 3}"]) > 0 for index in range(4)
            )
            placed = [session.buy(f"sku-{index}", 1) for index in range(2)]
        assert browsed == 4 and placed == [0, 1]

        with app.executing_on("warehouse"):
            assert all(orders.fulfil(order_id) for order_id in list(orders.pending()))
        assert orders.pending() == [] and orders.revenue() > 0


class TestPartitionedOrdersWorkload:
    def test_the_traffic_figures_count_every_exchange_that_was_in_flight(self):
        # On 1.3 ms links the last heartbeat round's pongs are still on the
        # wire when the final write returns; they count, and nothing is left.
        cluster = Cluster(
            ("monitor", "client", "reader", "p0", "p1", "p2"), link=LinkConfig(latency=0.0013)
        )
        figures = run_partitioned_order_scenario(cluster, cell="A")
        assert cluster.network.events.next_fire_time() is None
        assert figures["messages"] == cluster.metrics.total_messages
        assert figures["bytes_on_wire"] == cluster.metrics.total_bytes

    @pytest.mark.parametrize("cell", ["A", "D"])
    def test_the_probe_finds_the_old_primary_fenced_on_2ms_links(self, cell):
        # On 2 ms links pongs to pings sent before the partition land after
        # the old primary was declared down; they are old news, so no
        # recovery is declared and the old primary is still there, fenced.
        cluster = Cluster(
            ("monitor", "client", "reader", "p0", "p1", "p2"), link=LinkConfig(latency=0.002)
        )
        figures = run_partitioned_order_scenario(cluster, cell=cell)
        assert figures["failovers"] == 1
        assert figures["fenced_probe"]
        assert figures["acked_lost"] == figures["stale_reads"] == 0
        assert figures["stale_primaries_remaining"] == 0

    def test_the_probe_finds_the_old_primary_fenced_on_default_links(self):
        figures = run_partitioned_order_scenario(
            Cluster(("monitor", "client", "reader", "p0", "p1", "p2")), cell="A"
        )
        assert figures["fenced_probe"]

    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    @pytest.mark.parametrize("cell", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("latency", [0.0005, 0.0013, 0.002, 0.005])
    def test_every_link_latency_ends_each_cell_as_it_should(self, latency, cell, transport):
        """Cells A and D fail over and find the old primary fenced; B and C
        keep it.  Whatever the link delay, no write is lost or read stale."""
        cluster = Cluster(
            ("monitor", "client", "reader", "p0", "p1", "p2"), link=LinkConfig(latency=latency)
        )
        figures = run_partitioned_order_scenario(cluster, cell=cell, transport=transport)
        fails_over = cell in ("A", "D")
        assert (figures["failovers"], figures["fenced_probe"], figures["reconciliations"]) == (
            (1, True, 1) if fails_over else (0, False, 0)
        )
        assert figures["acked_lost"] == figures["stale_reads"] == 0
        assert figures["stale_primaries_remaining"] == 0
        assert figures["single_highest_epoch_primary"]


class TestOrderStream:
    def test_a_traced_policy_returns_its_collector(self):
        policy = ServicePolicy(transport="rmi", batch_window=8).with_tracing()
        figures = run_order_stream(Cluster(("client", "server")), policy, orders=16)
        assert len(figures["collector"].trace_ids()) == 16
        assert figures["accepted"] == 16 and figures["client_visible_failures"] == 0

    def test_an_untraced_policy_returns_no_collector(self):
        figures = run_order_stream(Cluster(("client", "server")), ServicePolicy(), orders=4)
        assert "collector" not in figures
        assert figures["values"] == [0, 1, 2, 3]

    def test_replicas_need_a_shard_node_each(self):
        policy = ServicePolicy().with_replication(2, quorum=1)
        with pytest.raises(ValueError):
            run_order_stream(Cluster(("client", "server")), policy, shards=("server",))

    def test_backups_go_on_the_next_shards_in_the_list(self):
        # Ring placement over the whole cluster would put shard s1's backup
        # on "spare"; the stream keeps it on the shards.
        shards = ("s0", "s1")
        cluster = Cluster(("client", "s0", "s1", "spare"))
        policy = ServicePolicy().with_replication(2, quorum=1)
        run_order_stream(cluster, policy, orders=6, shards=shards)
        hosted = {
            node: sorted(
                type(obj).__name__ for obj in cluster.space(node).exported_objects().values()
            )
            for node in ("s0", "s1", "spare")
        }
        assert hosted == {
            "s0": ["ReplicaEndpoint", "ReplicatedObject"],
            "s1": ["ReplicaEndpoint", "ReplicatedObject"],
            "spare": [],
        }


class TestRunNames:
    def test_a_fresh_clusters_first_run_gets_run_zero(self):
        cluster = Cluster(("client", "server"))
        run_order_stream(cluster, ServicePolicy(), orders=4)
        assert cluster.naming.names() == {"orders-0-0"}

    def test_two_runs_on_one_cluster_get_distinct_names(self):
        shards = ("server-0", "server-1")
        cluster = Cluster(("client",) + shards)
        for _ in range(2):
            run_order_stream(cluster, ServicePolicy(), orders=4, shards=shards)
        assert cluster.naming.names() == {
            "orders-0-0", "orders-0-1", "orders-1-0", "orders-1-1"
        }

    def test_a_prefix_is_taken_only_by_its_own_names(self):
        cluster = Cluster(("client", "server"))
        reference = cluster.space("server").export(OrderIntake())
        for name in ("orders-0", "orders-10-0", "orders-2x"):
            cluster.naming.rebind(name, reference)
        assert run_prefix(cluster, "orders") == "orders-1"
        assert run_prefix(cluster, "open-loop") == "open-loop-0"
