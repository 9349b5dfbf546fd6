"""Simulated network substrate: clock, links, failures and traffic metrics."""

from repro.network.clock import SimClock
from repro.network.failures import FailureModel, NoFailures
from repro.network.heartbeat import HeartbeatDetector, NodeHealth
from repro.network.metrics import LinkMetrics, NetworkMetrics
from repro.network.simnet import (
    LAN_LINK,
    LOOPBACK_LINK,
    WAN_LINK,
    LinkConfig,
    SimulatedNetwork,
)

__all__ = [
    "FailureModel",
    "HeartbeatDetector",
    "LAN_LINK",
    "LOOPBACK_LINK",
    "LinkConfig",
    "LinkMetrics",
    "NetworkMetrics",
    "NoFailures",
    "NodeHealth",
    "SimClock",
    "SimulatedNetwork",
    "WAN_LINK",
]
