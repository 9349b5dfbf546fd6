"""Unit tests for the simulated network, failure model and traffic metrics."""

from __future__ import annotations

import pytest

import matrix
from repro.api.errors import (
    AdmissionError,
    MessageDroppedError,
    NodeUnreachableError,
    PartitionError,
)
from repro.network.failures import FailureModel, NoFailures
from repro.network.metrics import NetworkMetrics
from repro.network.simnet import (
    LAN_LINK,
    WAN_LINK,
    LinkConfig,
    ServicePool,
    SimulatedNetwork,
)
from repro.runtime.cluster import Cluster


def _echo_network(**kwargs) -> SimulatedNetwork:
    network = SimulatedNetwork(**kwargs)
    network.register("a", lambda source, payload: b"a:" + payload)
    network.register("b", lambda source, payload: b"b:" + payload)
    return network


class TestLinkConfig:
    def test_one_way_delay_includes_latency_and_transmission(self):
        import random

        link = LinkConfig(latency=0.001, bandwidth=1000.0, jitter=0.0)
        delay = link.one_way_delay(500, random.Random(0))
        assert delay == pytest.approx(0.001 + 0.5)

    def test_zero_bandwidth_means_no_transmission_cost(self):
        import random

        link = LinkConfig(latency=0.0, bandwidth=0.0)
        assert link.one_way_delay(10_000, random.Random(0)) == 0.0

    def test_wan_is_slower_than_lan(self):
        import random

        rng = random.Random(0)
        assert WAN_LINK.one_way_delay(1000, rng) > LAN_LINK.one_way_delay(1000, rng)


class TestMessageExchange:
    def test_request_response_roundtrip(self):
        network = _echo_network()
        assert network.send_request("a", "b", b"ping") == b"b:ping"

    def test_clock_advances_for_remote_exchange(self):
        network = _echo_network()
        network.send_request("a", "b", b"ping")
        assert network.clock.now > 0.0

    def test_same_node_exchange_is_free(self):
        network = _echo_network()
        assert network.send_request("a", "a", b"ping") == b"a:ping"
        assert network.clock.now == 0.0
        assert network.metrics.total_messages == 0

    def test_metrics_record_both_directions(self):
        network = _echo_network()
        network.send_request("a", "b", b"ping")
        assert network.metrics.messages_between("a", "b") == 1
        assert network.metrics.messages_between("b", "a") == 1
        assert network.metrics.total_bytes > 0

    def test_unknown_destination_raises(self):
        network = _echo_network()
        with pytest.raises(NodeUnreachableError):
            network.send_request("a", "ghost", b"ping")

    def test_per_link_override_changes_latency(self):
        fast = _echo_network()
        slow = _echo_network()
        slow.set_symmetric_link("a", "b", WAN_LINK)
        fast.send_request("a", "b", b"x" * 100)
        slow.send_request("a", "b", b"x" * 100)
        assert slow.clock.now > fast.clock.now

    def test_reset_metrics(self):
        network = _echo_network()
        network.send_request("a", "b", b"ping")
        network.reset_metrics()
        assert network.metrics.total_messages == 0


class TestFailureInjection:
    def test_partition_blocks_traffic(self):
        failures = FailureModel()
        failures.partition(["a"], ["b"])
        network = _echo_network(failures=failures)
        with pytest.raises(PartitionError):
            network.send_request("a", "b", b"ping")

    def test_heal_restores_traffic(self):
        failures = FailureModel()
        failures.partition(["a"], ["b"])
        network = _echo_network(failures=failures)
        failures.heal()
        assert network.send_request("a", "b", b"ping") == b"b:ping"

    def test_heal_specific_pair(self):
        failures = FailureModel()
        failures.partition(["a"], ["b", "c"])
        failures.heal("a", "b")
        assert not failures.is_partitioned("a", "b")
        assert failures.is_partitioned("a", "c")

    def test_crashed_node_is_unreachable(self):
        failures = FailureModel()
        failures.crash_node("b")
        network = _echo_network(failures=failures)
        with pytest.raises(NodeUnreachableError):
            network.send_request("a", "b", b"ping")
        failures.recover_node("b")
        assert network.send_request("a", "b", b"ping") == b"b:ping"

    def test_message_loss_is_deterministic_for_a_seed(self):
        failures = FailureModel(drop_probability=1.0, seed=3)
        network = _echo_network(failures=failures)
        with pytest.raises(MessageDroppedError):
            network.send_request("a", "b", b"ping")
        assert network.metrics.total_drops == 1

    def test_invalid_drop_probability_rejected(self):
        with pytest.raises(ValueError):
            FailureModel(drop_probability=1.5)

    def test_no_failures_model_never_drops(self):
        model = NoFailures()
        assert not model.should_drop("a", "b")

    def test_the_drop_script_refuses_to_replace_a_model_holding_a_fault(self):
        cluster = Cluster(("a", "b"), failures=FailureModel())
        cluster.network.failures.partition(["a"], ["b"])
        with pytest.raises(ValueError, match="dropping_cluster"):
            matrix.drop_next(cluster, {("a", "b"): 1})
        assert cluster.network.failures.is_partitioned("a", "b")


class _DropFrom(FailureModel):
    """Drops every message ``node`` sends (so one leg can be singled out)."""

    def __init__(self, node: str) -> None:
        super().__init__()
        self.node = node

    def should_drop(self, source: str, destination: str) -> bool:
        return source == self.node


def _busy_pool(network: SimulatedNetwork, queue_limit: int) -> None:
    """Bound ``b`` by one worker that is already serving an earlier request."""
    pool = ServicePool(workers=1, queue_limit=queue_limit, service_time=0.01)
    pool.admit(network.clock.now)
    pool.begin_service(queued=False)
    network.set_service_pool("b", pool)


def _occupy_link(network: SimulatedNetwork) -> None:
    """Put a large earlier message on the a->b wire (its reply is empty, so
    the b->a wire stays free whichever exchange answers first)."""
    network.register("b", lambda source, payload: b"b:" + payload if len(payload) < 99 else b"")
    network.post("a", "b", b"x" * 50_000, lambda response: None, lambda error: None)


def _partition(network: SimulatedNetwork) -> None:
    network.failures = FailureModel()
    network.failures.partition(["a"], ["b"])


def _drop_response_behind_pool(network: SimulatedNetwork) -> None:
    network.failures = _DropFrom("b")
    network.set_service_pool("b", ServicePool(workers=1, service_time=0.01))


def _raising_handler(network: SimulatedNetwork) -> None:
    def handler(source: str, payload: bytes) -> bytes:
        raise ValueError("handler exploded")

    network.register("b", handler)


#: name -> (arrange(network), destination, the exchange's outcome)
EXCHANGE_SCENARIOS = {
    "plain": (lambda network: None, "b", b"b:ping"),
    "same-node": (lambda network: None, "a", b"a:ping"),
    "fifo-queued-link": (_occupy_link, "b", b"b:ping"),
    "pool-queueing": (lambda network: _busy_pool(network, queue_limit=4), "b", b"b:ping"),
    "pool-rejection": (lambda network: _busy_pool(network, queue_limit=0), "b", AdmissionError),
    "request-drop": (
        lambda network: setattr(network, "failures", _DropFrom("a")),
        "b",
        MessageDroppedError,
    ),
    "response-drop": (_drop_response_behind_pool, "b", MessageDroppedError),
    "partition": (_partition, "b", PartitionError),
    "unregistered-node": (lambda network: None, "ghost", NodeUnreachableError),
    "raising-handler": (_raising_handler, "b", ValueError),
}


class TestSyncAsyncParity:
    """``send_request`` and ``post`` drive one exchange: same outcome, same
    simulated instant, same accounting — whichever way the call travels."""

    @staticmethod
    def _observe(network: SimulatedNetwork, outcome_and_instant) -> tuple:
        network.events.run_until_idle()
        pool = network._pools.get("b")
        return (
            *outcome_and_instant,
            network.metrics.snapshot(),
            pool.snapshot() if pool is not None else None,
        )

    @pytest.mark.parametrize("scenario", sorted(EXCHANGE_SCENARIOS))
    def test_both_drivers_agree(self, scenario):
        arrange, destination, expected = EXCHANGE_SCENARIOS[scenario]

        inline = _echo_network()
        arrange(inline)
        try:
            outcome = inline.send_request("a", destination, b"ping")
        except Exception as error:  # noqa: BLE001 - the outcome under test
            outcome = type(error)
        via_send_request = self._observe(inline, (outcome, inline.clock.now))

        queued = _echo_network()
        arrange(queued)
        settled = []
        queued.post(
            "a", destination, b"ping",
            lambda response: settled.append((response, queued.clock.now)),
            lambda error: settled.append((type(error), queued.clock.now)),
        )
        assert settled == []  # outcomes only ever arrive from the event queue
        queued.events.run_until_idle()
        assert len(settled) == 1
        via_post = self._observe(queued, settled[0])

        assert via_send_request[0] == expected
        assert via_send_request == via_post

    def test_queueing_scenarios_really_queue(self):
        """Guards the table: the waits it claims to cover do happen."""
        network = _echo_network()
        _occupy_link(network)
        network.send_request("a", "b", b"ping")
        assert network.metrics.snapshot()["queued_messages"] == 1

        network = _echo_network()
        _busy_pool(network, queue_limit=4)
        network.send_request("a", "b", b"ping")
        assert network._pools.get("b").snapshot()["max_queue_depth"] == 1
        assert network.clock.now > 0.02  # waited for the worker, then its service time


class TestNetworkMetrics:
    def test_link_accumulation_and_means(self):
        metrics = NetworkMetrics()
        metrics.record("a", "b", 100, 0.001)
        metrics.record("a", "b", 300, 0.003)
        link = metrics.link("a", "b")
        assert link.messages == 2
        assert link.bytes_sent == 400
        assert link.mean_latency == pytest.approx(0.002)

    def test_snapshot_is_plain_data(self):
        metrics = NetworkMetrics()
        metrics.record("a", "b", 10, 0.5)
        snapshot = metrics.snapshot()
        assert snapshot["messages"] == 1
        assert "a->b" in snapshot["links"]

    def test_empty_link_mean_is_zero(self):
        metrics = NetworkMetrics()
        assert metrics.link("x", "y").mean_latency == 0.0

    def test_a_query_does_not_create_a_link(self):
        network = _echo_network()
        network.send_request("a", "b", b"ping")
        metrics = network.metrics
        assert metrics.messages_between("x", "y") == 0
        assert metrics.link("b", "x").messages == 0
        assert set(metrics.links()) == {("a", "b"), ("b", "a")}
        assert set(metrics.snapshot()["links"]) == {"a->b", "b->a"}


#: A slow link: a 100-byte message occupies the wire for 0.01 s.
SLOW_LINK = LinkConfig(latency=0.001, bandwidth=10_000.0)


def _post_ping(network: SimulatedNetwork, size: int = 100) -> None:
    network.post("a", "b", b"x" * size, lambda response: None, lambda error: None)


class TestLinkRecordCoherence:
    """One record per directed link holds its configuration, wire, backlog
    and counters; changing any of them from outside must reach the record."""

    def test_set_link_after_traffic_reprices_the_next_message_on_that_link_only(self):
        network = _echo_network(default_link=SLOW_LINK)
        network.send_request("a", "b", b"x" * 100)
        network.set_link("a", "b", LinkConfig(latency=0.5, bandwidth=0.0))
        before = network.clock.now
        network.send_request("a", "b", b"x" * 100)
        # Request over the new config (0.5 s, no transmission), the response
        # (102 bytes) back over the unchanged b->a link.
        assert network.clock.now - before == pytest.approx(0.5 + 0.001 + 0.0102)
        assert network.link_config("a", "b").latency == 0.5
        assert network.link_config("b", "a") == SLOW_LINK

    def test_assigning_default_link_reprices_only_the_links_set_link_did_not_configure(self):
        network = _echo_network(default_link=SLOW_LINK)
        network.set_link("b", "a", SLOW_LINK)
        network.send_request("a", "b", b"x" * 100)  # both records now exist
        network.default_link = LinkConfig(latency=0.5, bandwidth=0.0)
        assert network.default_link.latency == 0.5
        before = network.clock.now
        network.send_request("a", "b", b"x" * 100)
        # The request over the new default (0.5 s, no transmission), the
        # response (102 bytes) over the b->a link set_link configured.
        assert network.clock.now - before == pytest.approx(0.5 + 0.001 + 0.0102)
        assert network.link_config("a", "b").latency == 0.5
        assert network.link_config("b", "a") == SLOW_LINK
        assert network.link_config("c", "d").latency == 0.5  # a link yet to carry anything

    def test_metrics_reset_in_mid_run_counts_later_traffic_from_zero(self):
        network = _echo_network(default_link=SLOW_LINK)
        network.send_request("a", "b", b"x" * 100)
        network.send_request("a", "b", b"x" * 100)
        network.metrics.reset()
        assert network.metrics.total_messages == 0
        assert network.metrics.links() == {}
        network.send_request("a", "b", b"x" * 50)
        link = network.metrics.link("a", "b")
        assert (link.messages, link.bytes_sent) == (1, 50)
        assert link.total_latency == pytest.approx(0.001 + 0.005)
        assert network.metrics.total_messages == 2
        assert set(network.metrics.snapshot()["links"]) == {"a->b", "b->a"}

    def test_reset_metrics_zeroes_the_counters_and_keeps_the_wire_busy(self):
        network = _echo_network(default_link=SLOW_LINK)
        _post_ping(network)
        network.reset_metrics()
        _post_ping(network)  # still queues behind the first transmission
        link = network.metrics.link("a", "b")
        assert (link.messages, link.queued_messages, link.max_queue_depth) == (1, 1, 0)
        assert link.queue_delay_total == pytest.approx(0.01)
        network.events.run_until_idle()
        assert network.metrics.total_messages == 3

    def test_a_jittered_link_draws_the_same_random_sequence(self):
        import random

        jittered = LinkConfig(latency=0.002, bandwidth=10_000.0, jitter=0.003)
        network = _echo_network(default_link=jittered, seed=11)
        rng = random.Random(11)
        now = 0.0
        for size in (10, 200, 35, 4000, 1):
            network.send_request("a", "b", b"x" * size)
            for wire_size in (size, size + 2):  # the request, then its b: echo
                propagation = jittered.latency + rng.uniform(0.0, jittered.jitter)
                now = now + (0.0 + wire_size / jittered.bandwidth + propagation)
            assert network.clock.now == now  # bit-equal, not approximately
