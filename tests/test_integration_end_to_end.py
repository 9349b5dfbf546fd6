"""End-to-end integration tests combining every subsystem.

Each scenario exercises the full pipeline the way a downstream user would:
transformation → policy/deployment descriptor → simulated cluster →
remote execution → dynamic redistribution / fault tolerance / persistence —
and checks that the observable application behaviour stays equal to the
original single-process program throughout.
"""

from __future__ import annotations

from repro.core.transformer import ApplicationTransformer
from repro.network.failures import FailureModel
from repro.network.simnet import SimulatedNetwork, WAN_LINK
from repro.persistence import ObjectGraphSnapshotter, restore_snapshot
from repro.policy.adaptive import AdaptiveDistributionManager
from repro.policy.loader import policy_from_dict
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import RetryPolicy, guard_handle
from repro.runtime.redistribution import DistributionController
from repro.tools.deployment import deployment_from_dict
from repro.tools.recommend import profile_and_recommend
from repro.tools.report import application_report, traffic_report
from repro.workloads.pipeline import Buffer, Consumer, Producer, run_pipeline
from repro.workloads.shared_cache import Cache, CacheClient

CACHE_CLASSES = [Cache, CacheClient]
PIPELINE_CLASSES = [Buffer, Producer, Consumer]


def _oracle_cache_run():
    cache = Cache(32)
    clients = [CacheClient(f"c{i}", cache) for i in range(2)]
    for client in clients:
        client.warm(10)
    found = sum(client.read_back(10) for client in clients)
    return found, cache.hits, cache.size()


class TestPolicyFileDrivenDeployment:
    def test_policy_loaded_from_configuration_controls_the_run(self):
        expected = _oracle_cache_run()
        policy = policy_from_dict(
            {
                "default": {"placement": "local"},
                "classes": {
                    "Cache": {
                        "placement": "remote",
                        "node": "cache-server",
                        "transport": "corba",
                        "dynamic": True,
                    }
                },
            }
        )
        app = ApplicationTransformer(policy).transform(CACHE_CLASSES)
        cluster = Cluster(("web", "cache-server"))
        app.deploy(cluster, default_node="web")

        cache = app.new("Cache", 32)
        clients = [app.new("CacheClient", f"c{i}", cache) for i in range(2)]
        for client in clients:
            client.warm(10)
        found = sum(client.read_back(10) for client in clients)
        observed = (found, cache.get_hits(), cache.size())
        assert observed == expected
        assert cluster.metrics.total_messages > 0
        # The report reflects the configured deployment.
        report = application_report(app)
        assert "cache-server" in report
        assert "corba" in report


class TestDescriptorDrivenWanDeployment:
    def test_wan_descriptor_is_slower_but_equivalent(self):
        expected = run_pipeline(
            ApplicationTransformer(all_local_policy()).transform(PIPELINE_CLASSES),
            rounds=3, batch=5,
        )
        descriptor = deployment_from_dict(
            {
                "nodes": [{"id": "producer-site"}, {"id": "consumer-site"}],
                "default_node": "producer-site",
                "default_link": {"latency": WAN_LINK.latency, "bandwidth": WAN_LINK.bandwidth},
                "policy": {
                    "classes": {
                        "Buffer": {"placement": "remote", "node": "consumer-site"}
                    }
                },
            }
        )
        app = ApplicationTransformer(all_local_policy()).transform(PIPELINE_CLASSES)
        cluster = descriptor.apply(app)
        observed = run_pipeline(app, rounds=3, batch=5)
        assert observed == expected
        assert cluster.clock.now > 0.1  # WAN latency is clearly visible
        assert "producer-site" in traffic_report(cluster)


class TestProfileThenRedeploy:
    def test_recommendation_reduces_traffic_on_redeployment(self):
        # Profiling deployment: everything dynamic and local to "front".
        profile_app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(
            CACHE_CLASSES
        )
        profile_cluster = Cluster(("front", "compute"))
        profile_app.deploy(profile_cluster, default_node="front")
        cache = profile_app.new("Cache", 32)

        def workload():
            with profile_app.executing_on("compute"):
                worker = profile_app.new("CacheClient", "w", cache)
                worker.warm(15)
                worker.read_back(15)

        recommendation = profile_and_recommend(profile_app, workload, min_calls=10)
        assert recommendation.placement.get("Cache") == "compute"
        profiling_messages = profile_cluster.metrics.total_messages
        assert profiling_messages > 0

        # Redeploy under the recommended policy: the compute-side workload is
        # now local to the cache and generates almost no traffic.
        production_policy = recommendation.to_policy(home_node="front")
        production_app = ApplicationTransformer(production_policy).transform(CACHE_CLASSES)
        production_cluster = Cluster(("front", "compute"))
        production_app.deploy(production_cluster, default_node="front")
        production_cache = production_app.new("Cache", 32)
        creation_messages = production_cluster.metrics.total_messages
        with production_app.executing_on("compute"):
            worker = production_app.new("CacheClient", "w", production_cache)
            worker.warm(15)
            worker.read_back(15)
        workload_messages = production_cluster.metrics.total_messages - creation_messages
        assert workload_messages < profiling_messages


class TestAdaptiveWithFaultToleranceUnderLoss:
    def test_lossy_network_with_retries_and_adaptation(self):
        policy = all_local_policy(dynamic=True)
        app = ApplicationTransformer(policy).transform(CACHE_CLASSES)
        network = SimulatedNetwork(failures=FailureModel(drop_probability=0.0, seed=5))
        cluster = Cluster(("front", "compute"), network=network)
        app.deploy(cluster, default_node="front")
        controller = DistributionController(app, cluster)
        manager = AdaptiveDistributionManager(app, controller, threshold=0.6, min_calls=10)

        cache = app.new("Cache", 64)
        manager.attach(cache)
        controller.make_remote(cache, "compute")
        guard_handle(cache, policy=RetryPolicy(max_attempts=6, initial_backoff=0.001))

        network.failures.drop_probability = 0.05
        completed = 0
        for index in range(60):
            cache.put(f"k{index}", index)
            completed += 1
        assert completed == 60
        assert cache.size() == 60

        # The front node dominated the window; adaptation brings the cache home.
        network.failures.drop_probability = 0.0
        record = manager.adapt()
        assert record.moved == 1
        assert controller.boundary_of(cache) == ("local", "front")
        assert cache.get("k10") == 10


class TestCheckpointAcrossRedeployments:
    def test_snapshot_survives_a_change_of_distribution(self):
        source_app = ApplicationTransformer(all_local_policy()).transform(CACHE_CLASSES)
        cache = source_app.new("Cache", 16)
        for index in range(5):
            cache.put(f"k{index}", index * 10)
        snapshot = ObjectGraphSnapshotter(source_app).snapshot({"cache": cache})

        target_policy = policy_from_dict(
            {"classes": {"Cache": {"placement": "remote", "node": "store"}}}
        )
        target_app = ApplicationTransformer(target_policy).transform(CACHE_CLASSES)
        target_app.deploy(Cluster(("app", "store")), default_node="app")
        restored = restore_snapshot(target_app, snapshot)["cache"]
        assert (type(restored).__name__, restored._transport) == ("Cache_O_Proxy", "rmi")
        assert restored.get("k3") == 30
        assert restored.size() == 5


class TestMigrationPreservesBehaviourUnderLoad:
    def test_pipeline_keeps_running_while_its_buffer_moves(self):
        policy = all_local_policy(dynamic=True)
        app = ApplicationTransformer(policy).transform(PIPELINE_CLASSES)
        cluster = Cluster(("stage-1", "stage-2"))
        app.deploy(cluster, default_node="stage-1")
        migrator = DistributionController(app, cluster)

        buffer = app.new("Buffer", 64)
        producer = app.new("Producer", buffer)
        consumer = app.new("Consumer", buffer)

        producer.produce(10)
        migrator.move(buffer, "stage-2")
        consumer.drain(10)
        producer.produce(10)
        consumer.drain(10)

        assert consumer.get_consumed() == 20
        assert consumer.get_checksum() == sum(range(20))
        assert buffer.depth() == 0
