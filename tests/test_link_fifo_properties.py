"""Property-based tests for the link-capacity (FIFO queueing) model.

With capacity modelling enabled, each directed link is a FIFO resource:
a message's transmission starts only once the wire has finished the
previous one.  Three invariants must hold over the whole domain of message
sizes and link speeds:

* messages posted on one directed link are *delivered* in arrival order —
  the wire never reorders;
* queueing delay is non-negative and additive — message ``i`` is delivered
  exactly when every earlier transmission plus its own has cleared the
  wire, plus propagation;
* links without transmission cost (zero bandwidth — the loopback model)
  never queue, whatever the traffic.

Hypothesis drives the message-size and link-speed generators.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.simnet import LOOPBACK_LINK, LinkConfig, SimulatedNetwork

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Payload sizes spanning sub-transmission-quantum to multi-quantum.
sizes = st.lists(st.integers(min_value=1, max_value=50_000), min_size=1, max_size=20)

#: Link speeds from very slow (heavy queueing) to LAN-fast.
bandwidths = st.sampled_from([1_000.0, 125_000.0, 12_500_000.0])


def _network(link: LinkConfig) -> tuple[SimulatedNetwork, list]:
    """A two-node network whose ``sink`` handler logs (payload, sim-time)."""
    network = SimulatedNetwork(default_link=link)
    deliveries: list = []
    network.register("source", lambda src, payload: b"")
    network.register(
        "sink",
        lambda src, payload: deliveries.append((payload, network.clock.now)) or b"ok",
    )
    return network, deliveries


def _post_all(network: SimulatedNetwork, payloads: list) -> None:
    for payload in payloads:
        network.post("source", "sink", payload, lambda _: None, lambda _: None)
    network.events.run_until_idle()


@_SETTINGS
@given(message_sizes=sizes, bandwidth=bandwidths)
def test_directed_link_delivers_in_arrival_order(message_sizes, bandwidth):
    """Concurrent messages on one directed link never overtake each other."""
    link = LinkConfig(latency=0.0005, bandwidth=bandwidth)
    network, deliveries = _network(link)
    payloads = [bytes([index % 256]) * size for index, size in enumerate(message_sizes)]
    _post_all(network, payloads)

    assert [payload for payload, _ in deliveries] == payloads
    times = [at for _, at in deliveries]
    assert times == sorted(times)


@_SETTINGS
@given(message_sizes=sizes, bandwidth=bandwidths)
def test_queueing_delay_is_non_negative_and_additive(message_sizes, bandwidth):
    """Message ``i`` arrives at ``sum(transmissions 0..i) + propagation``.

    Equivalently: its queueing delay equals the not-yet-transmitted residue
    of every earlier message — never negative, accumulating in FIFO order.
    """
    link = LinkConfig(latency=0.0005, bandwidth=bandwidth, jitter=0.0)
    network, deliveries = _network(link)
    payloads = [b"x" * size for size in message_sizes]
    _post_all(network, payloads)

    elapsed_transmission = 0.0
    for size, (_, delivered_at) in zip(message_sizes, deliveries):
        elapsed_transmission += link.transmission_time(size)
        assert delivered_at == pytest.approx(elapsed_transmission + link.latency)
    queue_metrics = network.metrics.link("source", "sink")
    assert queue_metrics.queue_delay_total >= 0.0


@_SETTINGS
@given(message_sizes=sizes)
def test_zero_bandwidth_loopback_never_queues(message_sizes):
    """Links with no transmission cost have nothing to serialize on."""
    network, deliveries = _network(LOOPBACK_LINK)
    _post_all(network, [b"y" * size for size in message_sizes])

    assert len(deliveries) == len(message_sizes)
    assert all(at == 0.0 for _, at in deliveries)
    assert network.metrics.total_queued_messages == 0
    assert network.metrics.total_queue_delay == 0.0
