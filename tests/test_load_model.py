"""The capacity-accurate load model: pools, percentiles, saturation.

Four claims are pinned here:

* **Bounded service pools behave like real servers** — ``workers`` requests
  serve concurrently, the next ``queue_limit`` wait, the rest are refused
  with a typed :class:`~repro.api.errors.AdmissionError` that the retry
  machinery treats as transient.
* **The open-loop saturation matrix** — offered load below, at and above
  capacity yields goodput that tracks the offered load, then plateaus at
  capacity while p99 latency grows monotonically; rejected-then-retried
  calls still execute exactly once.
* **A destination dying while a request waits in its admission queue fails
  the request** instead of executing it on a dead node (the queued sibling
  of the in-flight-death rule).
* **Capacity modelling is free when uncontended** — the existing benchmark
  scenarios (batching, pipelining, replication, caching) keep their gated
  speedups with FIFO link queueing, and a purely synchronous run never
  waits in a link queue.
"""

from __future__ import annotations

import pytest

from repro.api import ServicePolicy
from repro.api.errors import AdmissionError, NodeUnreachableError
from repro.network.failures import FailureModel
from repro.network.metrics import LatencyHistogram
from repro.network.simnet import ServicePool, SimulatedNetwork
from repro.policy.adaptive import AdaptiveDistributionManager
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import NO_RETRY, RetryPolicy, TRANSIENT_FAILURES
from repro.workloads.bulk_orders import INTAKE_READONLY, run_order_stream
from repro.workloads.open_loop import (
    KeyValueCatalog,
    detect_knee,
    run_open_loop_scenario,
    zipf_weights,
)

#: The saturation matrix's server bound: 1 worker x 5 ms = 200 req/s.
WORKERS = 1
SERVICE_TIME = 0.005
CAPACITY = WORKERS / SERVICE_TIME


def _scenario(cluster: Cluster, offered: float, **overrides) -> dict:
    defaults = dict(
        offered_load=offered,
        duration=1.0,
        workers=WORKERS,
        queue_limit=16,
        service_time=SERVICE_TIME,
    )
    defaults.update(overrides)
    return run_open_loop_scenario(cluster, **defaults)


class TestServicePool:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServicePool(workers=0)
        with pytest.raises(ValueError):
            ServicePool(queue_limit=-1)
        with pytest.raises(ValueError):
            ServicePool(service_time=-0.1)

    def test_capacity_is_workers_over_service_time(self):
        assert ServicePool(workers=4, service_time=0.002).capacity == 2000.0
        assert ServicePool(workers=1, service_time=0.0).capacity == float("inf")

    def test_free_worker_starts_immediately(self):
        pool = ServicePool(workers=2, queue_limit=0, service_time=1.0)
        assert pool.admit(5.0) == 5.0
        assert pool.admit(5.0) == 5.0
        assert pool._waiting == 0

    def test_busy_workers_queue_fifo(self):
        pool = ServicePool(workers=1, queue_limit=2, service_time=1.0)
        assert pool.admit(0.0) == 0.0
        assert pool.admit(0.0) == 1.0  # waits for the first to finish
        assert pool.admit(0.0) == 2.0  # waits for the second
        assert pool._waiting == 2
        assert pool.max_queue_depth == 2
        assert pool.total_queue_delay == pytest.approx(3.0)

    def test_full_queue_rejects_with_admission_error(self):
        pool = ServicePool(workers=1, queue_limit=1, service_time=1.0)
        pool.admit(0.0)
        pool.admit(0.0)
        with pytest.raises(AdmissionError):
            pool.admit(0.0)
        assert pool.rejected == 1
        assert pool.admitted == 2

    def test_begin_service_releases_queue_slot(self):
        pool = ServicePool(workers=1, queue_limit=1, service_time=1.0)
        pool.admit(0.0)
        pool.admit(0.0)
        pool.begin_service(queued=False)
        pool.begin_service(queued=True)
        assert pool._waiting == 0
        assert pool.served == 2

    def test_snapshot_is_plain_data(self):
        pool = ServicePool(workers=2, queue_limit=4, service_time=0.5)
        pool.admit(0.0)
        snapshot = pool.snapshot()
        assert snapshot["workers"] == 2
        assert snapshot["admitted"] == 1
        assert snapshot["rejected"] == 0


class TestLatencyHistogram:
    def test_percentiles_track_known_distribution(self):
        histogram = LatencyHistogram()
        for millisecond in range(1, 1001):
            histogram.record(millisecond / 1000.0)
        assert histogram.count == 1000
        assert histogram.percentile(0.50) == pytest.approx(0.5, rel=0.05)
        assert histogram.percentile(0.99) == pytest.approx(0.99, rel=0.05)
        assert histogram.percentile(0.999) == pytest.approx(1.0, rel=0.05)
        assert histogram.mean == pytest.approx(0.5005)

    def test_percentile_clamped_to_observed_extremes(self):
        histogram = LatencyHistogram()
        histogram.record(0.25)
        assert histogram.percentile(0.5) == 0.25
        assert histogram.percentile(1.0) == 0.25
        assert histogram.max_value == 0.25

    def test_empty_and_invalid(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.99) == 0.0
        assert histogram.summary()["count"] == 0
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(resolution=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)

    def test_negative_samples_clamp_to_zero(self):
        histogram = LatencyHistogram()
        histogram.record(-1.0)
        assert histogram.min_value == 0.0
        assert histogram.percentile(0.5) == 0.0


class TestSaturationMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        points = []
        for factor in (0.5, 1.0, 2.5):
            cluster = Cluster(("client", "server"))
            points.append(_scenario(cluster, factor * CAPACITY))
        return points

    def test_below_capacity_goodput_tracks_offered_load(self, matrix):
        below = matrix[0]
        assert below["goodput"] >= 0.95 * below["measured_offered"]
        assert below["rejected"] == 0

    def test_above_capacity_goodput_plateaus(self, matrix):
        above = matrix[-1]
        assert above["goodput"] <= CAPACITY * 1.05
        assert above["rejected"] > 0

    def test_p99_grows_monotonically_with_offered_load(self, matrix):
        p99s = [point["latency"]["p99"] for point in matrix]
        assert p99s == sorted(p99s)
        assert p99s[-1] > p99s[0]

    def test_retried_calls_complete_exactly_once(self, matrix):
        # Every completed call executed on the server exactly once — admission
        # rejections never executed, retried-then-admitted calls only once.
        for point in matrix:
            assert point["server_executions"] == point["completed"]
        assert matrix[-1]["calls_retried"] > 0

    def test_knee_sits_between_half_and_saturated(self, matrix):
        knee = detect_knee(matrix)
        assert knee is not None
        assert knee["offered_load"] > matrix[0]["offered_load"]
        assert knee["efficiency"] < 0.95

    def test_queueing_visible_in_pool_and_histogram(self, matrix):
        saturated = matrix[-1]
        assert saturated["pool"]["max_queue_depth"] > 0
        latency = saturated["latency"]
        assert latency["p999"] >= latency["p99"] >= latency["p50"] > 0.0


class TestOpenLoopGenerator:
    def test_zipf_weights_skew_and_validate(self):
        weights = zipf_weights(4, 1.0)
        assert weights == [1.0, 0.5, pytest.approx(1 / 3), 0.25]
        assert zipf_weights(3, 0.0) == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(4, -1.0)

    def test_catalog_counts_lookups(self):
        catalog = KeyValueCatalog(keys=2)
        assert catalog.lookup("key-1") == 1
        assert catalog.lookup("ghost") == -1
        assert catalog.lookups == 2
        with pytest.raises(ValueError):
            KeyValueCatalog(keys=0)

    def test_scenario_validates_inputs(self):
        cluster = Cluster(("client", "server"))
        with pytest.raises(ValueError):
            run_open_loop_scenario(cluster, offered_load=0.0)
        with pytest.raises(ValueError):
            run_open_loop_scenario(cluster, duration=0.0)
        with pytest.raises(ValueError):
            run_open_loop_scenario(cluster, diurnal_amplitude=1.5)

    def test_diurnal_ramp_changes_the_arrival_pattern(self):
        flat = _scenario(Cluster(("client", "server")), 100.0, duration=0.5)
        ramped = _scenario(
            Cluster(("client", "server")), 100.0, duration=0.5, diurnal_amplitude=0.9
        )
        assert ramped["arrivals"] > 0
        assert ramped["arrivals"] != flat["arrivals"]

    def test_without_retries_rejections_are_shed(self):
        outcome = _scenario(
            Cluster(("client", "server")),
            3.0 * CAPACITY,
            duration=0.5,
            retry_policy=NO_RETRY,
        )
        assert outcome["calls_retried"] == 0
        assert outcome["rejected"] > 0
        assert outcome["server_executions"] == outcome["completed"]

    def test_clients_are_multiplexed_over_one_session(self):
        outcome = _scenario(
            Cluster(("client", "server")), 0.5 * CAPACITY, clients=1_000_000
        )
        assert 1 < outcome["distinct_clients"] <= outcome["arrivals"]


class TestAdmissionControl:
    def test_admission_error_is_transient(self):
        assert AdmissionError in TRANSIENT_FAILURES
        policy = RetryPolicy(max_attempts=3, initial_backoff=0.001)
        assert policy.should_retry(AdmissionError("full"), attempt=1)
        assert not NO_RETRY.should_retry(AdmissionError("full"), attempt=1)

    def test_saturated_pool_rejects_posted_messages(self):
        network = SimulatedNetwork()
        network.register("client", lambda source, payload: b"")
        network.register("server", lambda source, payload: b"pong")
        network.set_service_pool(
            "server", ServicePool(workers=1, queue_limit=1, service_time=0.1)
        )
        outcomes: list = []
        for _ in range(3):
            network.post(
                "client",
                "server",
                b"ping",
                on_response=lambda response: outcomes.append("ok"),
                on_error=lambda error: outcomes.append(error),
            )
        network.events.run_until_idle()
        rejections = [item for item in outcomes if isinstance(item, AdmissionError)]
        assert outcomes.count("ok") == 2
        assert len(rejections) == 1

    def test_saturated_pool_rejects_synchronous_sends(self):
        network = SimulatedNetwork()
        network.register("client", lambda source, payload: b"")
        network.register("server", lambda source, payload: b"pong")
        pool = ServicePool(workers=1, queue_limit=0, service_time=10.0)
        network.set_service_pool("server", pool)
        pool.admit(network.clock.now)  # occupy the only worker
        with pytest.raises(AdmissionError):
            network.send_request("client", "server", b"ping")

    def test_pool_installs_through_the_address_space(self):
        cluster = Cluster(("client", "server"))
        pool = cluster.set_service_pool("server", workers=3, service_time=0.001)
        space = cluster.space("server")
        assert cluster.network._pools.get("server") is pool
        space.install_service_pool(None)
        assert cluster.network._pools.get("server") is None
        with pytest.raises(KeyError):
            cluster.set_service_pool("ghost")


class TestQueuedDeath:
    def test_destination_dying_while_queued_fails_the_message(self):
        failures = FailureModel()
        network = SimulatedNetwork(failures=failures)
        executed: list = []
        network.register("client", lambda source, payload: b"")
        network.register(
            "server", lambda source, payload: executed.append(payload) or b"pong"
        )
        network.set_service_pool(
            "server", ServicePool(workers=1, queue_limit=4, service_time=0.01)
        )
        results: list = []
        for name in (b"first", b"second"):
            network.post(
                "client",
                "server",
                name,
                on_response=lambda response: results.append(response),
                on_error=lambda error: results.append(error),
            )
        # The first request is in service when the crash lands; the second is
        # still waiting in the admission queue and must fail, not execute.
        network.events.schedule_at(0.002, lambda: failures.crash_node("server"))
        network.events.run_until_idle()

        assert executed == [b"first"]
        errors = [item for item in results if isinstance(item, NodeUnreachableError)]
        assert len(errors) == 1
        assert "queued" in str(errors[0])


class TestAdaptiveCongestion:
    def _manager(self) -> AdaptiveDistributionManager:
        return AdaptiveDistributionManager(object(), object())

    def test_disconnected_factor_is_neutral(self):
        assert self._manager().effective_congestion_factor() == 1.0

    def test_idle_network_factor_is_neutral(self):
        manager = self._manager()
        network = SimulatedNetwork()
        network.register("a", lambda source, payload: b"")
        network.register("b", lambda source, payload: b"pong")
        network.send_request("a", "b", b"ping")
        manager.connect_network(network)
        assert manager.effective_congestion_factor() == 1.0

    def test_a_queueing_network_raises_the_factor(self):
        manager = self._manager()
        network = SimulatedNetwork()
        network.register("a", lambda source, payload: b"")
        network.register("b", lambda source, payload: b"")
        network.post("a", "b", b"x" * 50_000, lambda response: None, lambda error: None)
        network.send_request("a", "b", b"ping")  # waits behind the large message
        assert network.metrics.total_queue_delay > 0.0
        manager.connect_network(network)
        assert 1.0 < manager.effective_congestion_factor() <= 2.0

    def test_measured_queueing_raises_the_factor(self):
        class Metrics:
            total_latency = 2.0
            total_queue_delay = 1.0

        manager = self._manager()
        manager.connect_network(Metrics())
        assert manager.effective_congestion_factor() == pytest.approx(1.5)

    def test_factor_is_capped_at_two(self):
        class Metrics:
            total_latency = 1.0
            total_queue_delay = 5.0

        manager = self._manager()
        manager.connect_network(Metrics())
        assert manager.effective_congestion_factor() == 2.0

    def test_congestion_weighs_the_amortised_window(self):
        class Metrics:
            total_latency = 2.0
            total_queue_delay = 1.0

        class Monitor:
            total_calls = 10

        manager = self._manager()
        assert manager.amortised_call_count(Monitor()) == 10.0
        manager.connect_network(Metrics())
        assert manager.amortised_call_count(Monitor()) == pytest.approx(15.0)

    def test_metrics_missing_a_total_are_an_error_not_an_idle_network(self):
        class Metrics:
            total_latency = 2.0  # no total_queue_delay

        class Network:
            metrics = Metrics()

        manager = self._manager()
        for source in (Network(), Metrics(), object()):
            manager.connect_network(source)
            with pytest.raises(AttributeError):
                manager.effective_congestion_factor()

    def test_congested_traffic_on_a_real_cluster_is_weighted(self):
        cluster = Cluster(("client", "server"))
        outcome = _scenario(cluster, 2.0 * CAPACITY, duration=0.5)
        assert outcome["link_queue_delay"] >= 0.0
        manager = self._manager()
        manager.connect_network(cluster.network)
        assert manager.effective_congestion_factor() >= 1.0


class TestIdleNetworkRegression:
    """Capacity modelling must not tax the uncontended benchmarks."""

    def test_a_synchronous_run_never_waits_in_a_link_queue(self):
        """A lone synchronous sender always finds the wire idle, so its
        timings are those of the idealised infinite-capacity model."""
        cluster = Cluster(("client", "server"))
        policy = ServicePolicy(transport="rmi", batch_window=8)
        result = run_order_stream(cluster, policy, orders=64)
        assert result["messages"] > 0
        assert cluster.network.metrics.total_queued_messages == 0
        assert cluster.network.metrics.total_queue_delay == 0.0

    def test_batching_gate_holds_with_capacity_modelling(self):
        unbatched = run_order_stream(
            Cluster(("client", "server")), ServicePolicy(transport="rmi"), orders=128
        )
        batched = run_order_stream(
            Cluster(("client", "server")),
            ServicePolicy(transport="rmi", batch_window=16),
            orders=128,
        )
        speedup = unbatched["per_call_seconds"] / batched["per_call_seconds"]
        assert speedup >= 3.0

    def test_pipelining_gate_holds_with_capacity_modelling(self):
        shards = ("server-0", "server-1")
        batched = ServicePolicy(transport="rmi", batch_window=16)
        sequential = run_order_stream(
            Cluster(("client",) + shards), batched, orders=128, shards=shards
        )
        pipelined = run_order_stream(
            Cluster(("client",) + shards), batched.with_pipelining(4), orders=128, shards=shards
        )
        speedup = sequential["per_call_seconds"] / pipelined["per_call_seconds"]
        assert speedup >= 2.0

    def test_replication_gate_holds_with_capacity_modelling(self):
        policy = ServicePolicy(
            transport="rmi", batch_window=16, pipeline_depth=4
        ).with_replication(2, quorum=1, readonly=INTAKE_READONLY)
        outcome = run_order_stream(
            Cluster(("client", "shard-0", "shard-1", "backup-0", "backup-1")),
            policy,
            orders=64,
            shards=("shard-0", "shard-1"),
            kill="shard-0",
        )
        assert outcome["accepted"] == 64
        assert outcome["client_visible_failures"] == 0
        assert outcome["failovers"] >= 1

    def test_caching_gate_holds_with_capacity_modelling(self):
        from repro.workloads.cached_catalog import run_cached_catalog_scenario

        uncached = run_cached_catalog_scenario(
            Cluster(("client", "writer", "server-0", "server-1")),
            transport="rmi",
            rounds=10,
            cached=False,
        )
        cached = run_cached_catalog_scenario(
            Cluster(("client", "writer", "server-0", "server-1")),
            transport="rmi",
            rounds=10,
            cached=True,
        )
        speedup = uncached["per_call_seconds"] / cached["per_call_seconds"]
        assert speedup >= 5.0
        assert cached["stale_reads"] == 0
