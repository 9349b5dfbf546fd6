"""Tests for heartbeat frames, the failure detector and EventQueue.run_until.

Heartbeat probes are real messages on the simulated network: they pay link
delays, cross the same failure model as invocations, and are answered by
address spaces before any transport decoding.  Detection latency is therefore
a deterministic function of the probe interval, the miss threshold and the
link configuration.
"""

from __future__ import annotations

import pytest

from repro.api.errors import TransportError
from repro.network.clock import EventQueue, SimClock
from repro.network.heartbeat import HeartbeatDetector
from repro.runtime.cluster import Cluster
from repro.transports.base import frame_ping, frame_pong, parse_heartbeat


class TestHeartbeatFrames:
    def test_ping_pong_roundtrip(self):
        assert frame_ping(7) != frame_pong(7)
        assert parse_heartbeat(frame_ping(7)) == 7
        assert parse_heartbeat(frame_pong(41)) == 41

    def test_malformed_sequence_raises(self):
        with pytest.raises(TransportError):
            parse_heartbeat(b"!ping\nnot-a-number")

    def test_non_heartbeat_payload_raises(self):
        with pytest.raises(TransportError):
            parse_heartbeat(b"rmi\nwhatever")

    def test_address_space_answers_pings_without_decoding(self):
        cluster = Cluster(("a", "b"))
        response = cluster.network.send_request("a", "b", frame_ping(3))
        assert parse_heartbeat(response) == 3
        assert cluster.space("b").pings_answered == 1
        # Probes are liveness traffic, not served invocations.
        assert cluster.space("b").invocations_served == 0

    def test_an_address_space_does_not_answer_a_pong(self):
        """Only a ping is answered; a pong is no invocation either."""
        cluster = Cluster(("a", "b"))
        with pytest.raises(TransportError):
            cluster.network.send_request("a", "b", frame_pong(3))
        assert cluster.space("b").pings_answered == 0


class TestRunUntil:
    def test_fires_only_events_within_the_deadline(self):
        clock = SimClock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule(0.1, lambda: fired.append("early"))
        queue.schedule(0.5, lambda: fired.append("late"))
        assert queue.run_until(0.2) == 1
        assert fired == ["early"]
        assert clock.now == pytest.approx(0.2)
        assert queue.next_fire_time() == pytest.approx(0.5)

    def test_periodic_events_do_not_outlive_the_deadline(self):
        clock = SimClock()
        queue = EventQueue(clock)
        ticks = []

        def tick():
            ticks.append(clock.now)
            queue.schedule(0.1, tick)

        queue.schedule(0.1, tick)
        queue.run_until(0.35)
        assert len(ticks) == 3  # 0.1, 0.2, 0.3 — never past the deadline


@pytest.fixture
def cluster():
    return Cluster(("monitor", "a", "b"))


def _detector(cluster, **kwargs) -> HeartbeatDetector:
    kwargs.setdefault("interval", 0.01)
    kwargs.setdefault("miss_threshold", 2)
    detector = HeartbeatDetector(cluster.network, "monitor", **kwargs)
    detector.watch("a")
    detector.watch("b")
    detector.start()
    return detector


class TestHeartbeatDetector:
    def test_healthy_nodes_stay_up(self, cluster):
        detector = _detector(cluster)
        cluster.network.events.run_until(0.1)
        assert not detector.is_down("a") and not detector.is_down("b")
        assert detector._health["a"].last_seen is not None
        assert detector.rounds >= 5

    def test_crashed_node_is_declared_after_threshold_misses(self, cluster):
        detector = _detector(cluster)
        declared = []
        detector.on_failure(lambda node, at: declared.append((node, at)))
        cluster.network.events.run_until(0.05)
        cluster.network.failures.crash_node("a")
        cluster.network.events.run_until(0.2)
        assert detector.is_down("a")
        assert not detector.is_down("b")
        assert [node for node, _ in declared] == ["a"]
        # Two misses at a 10 ms interval: declared within ~3 intervals.
        assert declared[0][1] <= 0.05 + 3 * 0.01

    def test_recovered_node_is_declared_up_again(self, cluster):
        detector = _detector(cluster)
        recovered = []
        detector.on_recovery(lambda node, at: recovered.append(node))
        cluster.network.failures.crash_node("a")
        cluster.network.events.run_until(0.1)
        assert detector.is_down("a")
        cluster.network.failures.recover_node("a")
        cluster.network.events.run_until(0.2)
        assert not detector.is_down("a")
        assert recovered == ["a"]
        assert detector._health["a"].declared_up_at

    def test_partition_from_monitor_counts_as_failure(self, cluster):
        detector = _detector(cluster)
        cluster.network.failures.partition(["monitor"], ["b"])
        cluster.network.events.run_until(0.1)
        assert detector.is_down("b")
        assert not detector.is_down("a")

    def test_stop_halts_the_probe_loop(self, cluster):
        detector = _detector(cluster)
        cluster.network.events.run_until(0.05)
        detector.stop()
        rounds = detector.rounds
        # The already-scheduled round is a no-op; the queue drains.
        cluster.network.events.run_until_idle()
        assert detector.rounds == rounds

    def test_monitor_cannot_watch_itself(self, cluster):
        detector = HeartbeatDetector(cluster.network, "monitor")
        with pytest.raises(ValueError):
            detector.watch("monitor")

    def test_probe_traffic_is_metered(self, cluster):
        detector = _detector(cluster)
        before = cluster.metrics.total_messages
        cluster.network.events.run_until(0.05)
        assert cluster.metrics.total_messages > before
        assert detector.probes_sent >= 8


class TestOldNewsCannotRefuteASuspicion:
    """SWIM's rule: only a pong to a ping sent after the down declaration
    declares the node recovered."""

    @pytest.fixture
    def probes(self, cluster, monkeypatch):
        """A detector on ``a`` whose pings are held, to be answered or lost by hand."""
        detector = HeartbeatDetector(cluster.network, "monitor", miss_threshold=2)
        detector.watch("a")
        held = {}

        def hold(source, destination, payload, on_response, on_error, **kwargs):
            held[parse_heartbeat(payload)] = (on_response, on_error)

        monkeypatch.setattr(cluster.network, "post", hold)
        return detector, held

    def test_a_pong_delayed_past_the_down_declaration_does_not_declare_recovery(self, probes):
        detector, held = probes
        recovered = []
        detector.on_recovery(lambda node, at: recovered.append(node))
        for _ in range(3):
            detector._probe("a")
        held[2][1](TimeoutError())
        held[3][1](TimeoutError())
        assert detector.is_down("a")
        held[1][0](frame_pong(1))  # the pong to the first ping lands late
        assert detector.is_down("a") and recovered == []
        assert detector._health["a"].misses == 2

    def test_a_pong_to_a_later_ping_does(self, probes):
        detector, held = probes
        recovered = []
        detector.on_recovery(lambda node, at: recovered.append(node))
        for _ in range(2):
            detector._probe("a")
        held[1][1](TimeoutError())
        held[2][1](TimeoutError())
        detector._probe("a")
        held[3][0](frame_pong(3))
        assert not detector.is_down("a") and recovered == ["a"]
        assert detector._health["a"].misses == 0


class TestInFlightCrash:
    def test_posted_message_fails_if_destination_dies_before_delivery(self):
        cluster = Cluster(("a", "b"))
        outcomes = []
        cluster.network.post(
            "a", "b", frame_ping(1), outcomes.append, outcomes.append
        )
        # The delivery event is pending; the node dies first.
        cluster.network.failures.crash_node("b")
        cluster.network.events.run_until_idle()
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], Exception)
        assert cluster.space("b").pings_answered == 0
