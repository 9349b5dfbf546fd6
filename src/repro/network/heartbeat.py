"""Heartbeat-based failure detection on the simulated network.

Replication needs an answer to "is that node still there?" that does not rely
on application traffic happening to touch it.  The
:class:`HeartbeatDetector` supplies it: from a monitor node it posts small
ping frames (:func:`~repro.transports.base.frame_ping`) to every watched node
on a configurable simulated-time interval, using the event queue of the
:class:`~repro.network.simnet.SimulatedNetwork`.  A node that answers resets
its miss counter; a probe that fails (crashed node, partition, drop) counts
one miss, and ``miss_threshold`` consecutive misses declare the node *down*.
A declared node that answers again is declared *recovered*.

Probes are real messages: they ride the same links, pay the same latency and
are subject to the same :class:`~repro.network.failures.FailureModel` as
invocations, so detection latency is an honest function of the heartbeat
interval, the threshold and the link delays.  Address spaces answer pings
before any transport decoding (see
:meth:`~repro.runtime.address_space.AddressSpace._handle_message`), so the
detector works regardless of which protocols a node speaks.

Listeners (``on_failure`` / ``on_recovery``) are how the replication layer
reacts: :class:`~repro.runtime.replication.ReplicaManager` registers itself
and fails groups over when their primary's node is declared down.

The detector is driven entirely by the event queue: each probe round
schedules the next one, and :meth:`stop` halts the cycle (pending round
events become no-ops), so a drained simulation terminates cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.transports.base import frame_ping, parse_heartbeat

#: A liveness listener: receives the node id and the simulated declaration time.
NodeListener = Callable[[str, float], None]


@dataclass
class NodeHealth:
    """The detector's view of one watched node."""

    node_id: str
    #: Consecutive probe misses since the last answered ping.
    misses: int = 0
    #: Whether the node is currently declared down.
    down: bool = False
    #: Simulated time of the last answered probe (``None`` before the first).
    last_seen: Optional[float] = None
    #: Simulated times at which the node was declared down.
    declared_down_at: List[float] = field(default_factory=list)
    #: Simulated times at which the node was declared recovered.
    declared_up_at: List[float] = field(default_factory=list)


class HeartbeatDetector:
    """Periodic ping/pong liveness probing over the simulated network.

    Parameters
    ----------
    network:
        The :class:`~repro.network.simnet.SimulatedNetwork` whose event queue
        drives the probe rounds.
    monitor_node:
        The registered node the probes are sent *from* (its links to the
        watched nodes determine probe latency; a partition that separates
        the monitor from a healthy node is — to this detector alone —
        indistinguishable from that node crashing.  Quorum-replicated
        groups close that gap above the detector: promotion additionally
        requires a majority of the group's voters to acknowledge the new
        epoch over the wire, and :meth:`quorum_view` lets callers precheck
        how much of a voter set this monitor can even see).
    interval:
        Simulated seconds between probe rounds.
    miss_threshold:
        Consecutive missed probes after which a node is declared down.
    """

    def __init__(
        self,
        network,
        monitor_node: str,
        *,
        interval: float = 0.002,
        miss_threshold: int = 2,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be at least 1")
        self.network = network
        self.monitor_node = monitor_node
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.running = False
        #: Probe frames posted over the detector's lifetime.
        self.probes_sent = 0
        #: Probe rounds completed (one round pings every watched node).
        self.rounds = 0
        self._health: Dict[str, NodeHealth] = {}
        self._failure_listeners: List[NodeListener] = []
        self._recovery_listeners: List[NodeListener] = []
        self._sequence = 0

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def watch(self, node_id: str) -> NodeHealth:
        """Add ``node_id`` to the probe set; returns its health record."""
        if node_id == self.monitor_node:
            raise ValueError("the monitor node cannot watch itself")
        return self._health.setdefault(node_id, NodeHealth(node_id))

    def unwatch(self, node_id: str) -> None:
        """Stop probing ``node_id``."""
        self._health.pop(node_id, None)

    def watched_nodes(self) -> list[str]:
        """The node ids currently being probed."""
        return list(self._health)

    def on_failure(self, listener: NodeListener) -> None:
        """Call ``listener(node_id, simulated_time)`` when a node is declared down."""
        self._failure_listeners.append(listener)

    def on_recovery(self, listener: NodeListener) -> None:
        """Call ``listener(node_id, simulated_time)`` when a down node answers again."""
        self._recovery_listeners.append(listener)

    def off_failure(self, listener: NodeListener) -> None:
        """Remove a listener registered with :meth:`on_failure` (idempotent)."""
        try:
            self._failure_listeners.remove(listener)
        except ValueError:
            pass

    def off_recovery(self, listener: NodeListener) -> None:
        """Remove a listener registered with :meth:`on_recovery` (idempotent)."""
        try:
            self._recovery_listeners.remove(listener)
        except ValueError:
            pass

    def listener_count(self) -> int:
        """Total registered failure + recovery listeners (leak checks)."""
        return len(self._failure_listeners) + len(self._recovery_listeners)

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def health(self, node_id: str) -> NodeHealth:
        """The health record of one watched node."""
        return self._health[node_id]

    def is_down(self, node_id: str) -> bool:
        """Whether the detector currently considers ``node_id`` down."""
        record = self._health.get(node_id)
        return record.down if record is not None else False

    def down_nodes(self) -> list[str]:
        """Every watched node currently declared down."""
        return [node for node, record in self._health.items() if record.down]

    def quorum_view(self, voters: "List[str]") -> int:
        """How many of ``voters`` this monitor currently believes are alive.

        The monitor itself counts when it is a voter; unwatched nodes count
        as alive (no evidence against them).  Promotion logic compares this
        against the voter majority: a monitor that cannot even *see* a
        majority is more likely the partitioned party than an arbiter, and
        its promotion attempt is vetoed before any votes are solicited.
        """
        return sum(
            1
            for node in voters
            if node == self.monitor_node or not self.is_down(node)
        )

    # ------------------------------------------------------------------
    # the probe loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin probing: the first round fires after one interval."""
        if self.running:
            return
        self.running = True
        self.network.events.schedule(self.interval, self._round)

    def stop(self) -> None:
        """Halt probing; the already-scheduled round becomes a no-op."""
        self.running = False

    def _round(self) -> None:
        """Probe every watched node once, then schedule the next round."""
        if not self.running:
            return
        self.rounds += 1
        for node_id in list(self._health):
            self._probe(node_id)
        self.network.events.schedule(self.interval, self._round)

    def _probe(self, node_id: str) -> None:
        self._sequence += 1
        sequence = self._sequence
        self.probes_sent += 1
        self.network.post(
            self.monitor_node,
            node_id,
            frame_ping(sequence),
            lambda payload, node=node_id: self._on_pong(node, payload),
            lambda _error, node=node_id: self._on_miss(node),
        )

    def _on_pong(self, node_id: str, payload: bytes) -> None:
        record = self._health.get(node_id)
        if record is None:  # unwatched while the pong was in flight
            return
        parse_heartbeat(payload)
        record.misses = 0
        record.last_seen = self.network.clock.now
        if record.down:
            record.down = False
            record.declared_up_at.append(self.network.clock.now)
            for listener in self._recovery_listeners:
                listener(node_id, self.network.clock.now)

    def _on_miss(self, node_id: str) -> None:
        record = self._health.get(node_id)
        if record is None:
            return
        record.misses += 1
        if record.down or record.misses < self.miss_threshold:
            return
        record.down = True
        record.declared_down_at.append(self.network.clock.now)
        for listener in self._failure_listeners:
            listener(node_id, self.network.clock.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HeartbeatDetector from={self.monitor_node!r} "
            f"watching={sorted(self._health)} interval={self.interval}>"
        )
