"""Adaptive distribution policy.

The transformed program "can adapt to its environment by dynamically altering
its distribution boundaries" (paper §1).  This module supplies the decision
half of that loop:

* :class:`AccessMonitor` is an interceptor installed on the chain of a
  rebindable handle; it attributes every invocation to the node the calling
  code was executing on and accumulates per-node call counts over a sliding
  window.  It is the only per-call accounting a handle has, so only a
  monitored handle pays for it.
* :class:`AdaptiveDistributionManager` periodically examines those counts
  and, when an object is being used predominantly from a node other than the
  one hosting it, asks the :class:`~repro.runtime.redistribution.DistributionController`
  to ``move`` the object to that node — whether that leaves the handle local
  or behind a proxy is the controller's business, not this module's.

The manager implements a simple affinity heuristic; richer policies can be
plugged in by subclassing and overriding :meth:`AdaptiveDistributionManager.suggest_for`.

The heuristic weighs a handle's window only by what was measured on that
handle's own calls.  Service traffic — batched, pipelined, cached or
replicated — never passes through a movable handle's monitor: a handle's calls
ride such a pipe only once a session adopts it, and an adopted handle refuses
every move.  So the manager takes no batch, pipeline, cache or replication
term, and an unrelated service in the session cannot veto a hot object's move.

Congestion-awareness
--------------------

With link capacity modelled (FIFO transmission queueing in
:mod:`repro.network.simnet`), a message on a congested link costs more than
its idle-network delay: it also waits for the wire.  A manager connected to
the live network via :meth:`AdaptiveDistributionManager.connect_network`
weighs the observed window by ``1 + queue_delay / total_latency`` — the
measured share of time traffic spent queueing — so calls crossing saturated
links count as proportionally stronger evidence for moving the callee next
to its dominant caller.  On an idle network the factor is exactly ``1.0``
and decisions are unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro._errors import RedistributionError
from repro.core.interception import CallContext, Interceptor
from repro.core.metaobject import metaobject_of


def class_name_of(handle: Any) -> str:
    """The application class name a handle stands for."""
    return getattr(type(handle), "_repro_class_name", type(handle).__name__)


class AccessMonitor(Interceptor):
    """Counts invocations on one handle, attributed to the calling node."""

    def __init__(self, application) -> None:
        self._application = application
        self.calls_per_node: Counter = Counter()
        self.total_calls = 0

    def begin(self, ctx: CallContext) -> None:
        """Count the call against the node the calling code executes on."""
        self.calls_per_node[self._application._current_node_id()] += 1
        self.total_calls += 1

    def dominant_node(self) -> Optional[tuple[str, float]]:
        """The node issuing the most calls and its share of the window."""
        if not self.calls_per_node:
            return None
        node, count = self.calls_per_node.most_common(1)[0]
        return node, count / self.total_calls

    def reset(self) -> None:
        self.calls_per_node.clear()
        self.total_calls = 0


@dataclass
class RedistributionSuggestion:
    """One proposed boundary change."""

    handle: Any
    class_name: str
    current_node: Optional[str]
    target_node: str
    caller_share: float
    call_count: int
    #: The window's call count weighted by the measured congestion factor;
    #: equals ``call_count`` on an idle network.
    amortised_calls: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.class_name}: {self.call_count} calls, "
            f"{self.caller_share:.0%} from {self.target_node!r} "
            f"(currently on {self.current_node!r})"
        )


@dataclass
class AdaptationRecord:
    """The outcome of one adaptation round."""

    suggestions: list[RedistributionSuggestion] = field(default_factory=list)
    applied: list[RedistributionSuggestion] = field(default_factory=list)

    @property
    def moved(self) -> int:
        return len(self.applied)


class AdaptiveDistributionManager:
    """Monitors handles and moves objects towards the nodes that use them."""

    def __init__(
        self,
        application,
        controller,
        *,
        threshold: float = 0.6,
        min_calls: int = 10,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise RedistributionError("threshold must be in (0, 1]")
        self.application = application
        self.controller = controller
        self.threshold = threshold
        self.min_calls = min_calls
        #: A live network whose measured queueing delay weighs the window
        #: (see :meth:`connect_network`).
        self._network_source: Optional[Any] = None
        self._monitors: dict[int, AccessMonitor] = {}
        self.history: list[AdaptationRecord] = []

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------

    def attach(self, handle: Any) -> AccessMonitor:
        """Install an access monitor on one rebindable handle."""
        meta = metaobject_of(handle)
        if meta is None:
            raise RedistributionError(
                "adaptive distribution requires rebindable handles "
                "(policy decisions with dynamic=True)"
            )
        if id(handle) in self._monitors:
            return self._monitors[id(handle)]
        monitor = AccessMonitor(self.application)
        meta.add_interceptor(monitor)
        self._monitors[id(handle)] = monitor
        return monitor

    def attach_all(self) -> int:
        """Monitor every handle the application has produced so far."""
        count = 0
        for handle in self.application.handles():
            self.attach(handle)
            count += 1
        return count

    def detach_all(self) -> None:
        """Remove every access monitor this manager installed."""
        for handle in self.monitored_handles():
            metaobject_of(handle).remove_interceptor(self._monitors[id(handle)])
        self._monitors.clear()

    def monitored_handles(self) -> list[Any]:
        ids = set(self._monitors)
        return [handle for handle in self.application.handles() if id(handle) in ids]

    def monitor_for(self, handle: Any) -> Optional[AccessMonitor]:
        """The access monitor this manager installed on ``handle``, if any."""
        return self._monitors.get(id(handle))

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def connect_network(self, network: Any) -> None:
        """Feed the network's *measured* queueing delay into the heuristic.

        ``network`` is anything exposing a ``metrics`` attribute with
        ``total_latency`` and ``total_queue_delay`` (in practice the
        :class:`~repro.network.simnet.SimulatedNetwork` carrying the
        monitored traffic), or such a metrics object directly.  Once
        connected, :meth:`effective_congestion_factor` weighs the observed
        window by how much of the traffic's latency was spent waiting for
        busy links, so congested traffic argues more strongly for moving
        objects next to their callers; metrics without those two totals are an
        ``AttributeError`` there.  Pass ``None`` to disconnect.
        """
        self._network_source = network

    def effective_congestion_factor(self) -> float:
        """The congestion weight the heuristic actually uses (``>= 1.0``).

        ``1 + total_queue_delay / total_latency`` measured on the connected
        network — between ``1.0`` (idle network, decisions unchanged) and
        ``2.0`` (latency entirely queueing).  ``1.0`` when no network is
        connected or no traffic has flowed yet.
        """
        source = self._network_source
        if source is None:
            return 1.0
        metrics = getattr(source, "metrics", source)  # a network, or its metrics
        total_latency, queue_delay = metrics.total_latency, metrics.total_queue_delay
        if total_latency <= 0.0 or queue_delay <= 0.0:
            return 1.0
        return 1.0 + min(queue_delay / total_latency, 1.0)

    def amortised_call_count(self, monitor: AccessMonitor) -> float:
        """The monitor's window weighted by the measured congestion factor.

        Traffic that queued on busy links cost more than its idle-network
        delay, so the window is weighted by :meth:`effective_congestion_factor`
        (``1.0`` until a network is connected via :meth:`connect_network`).
        The quantity compared against ``min_calls`` is therefore
        ``monitor.total_calls * congestion`` — exactly
        ``monitor.total_calls`` on an idle network.
        """
        return monitor.total_calls * self.effective_congestion_factor()

    def suggest_for(self, handle: Any) -> Optional[RedistributionSuggestion]:
        """Apply the affinity heuristic to one monitored handle."""
        monitor = self.monitor_for(handle)
        meta = metaobject_of(handle)
        if monitor is None or meta is None:
            return None
        amortised = self.amortised_call_count(monitor)
        if amortised < self.min_calls:
            return None
        dominant = monitor.dominant_node()
        if dominant is None:
            return None
        node, share = dominant
        if share < self.threshold:
            return None
        current = meta.node_id
        if node == current:
            return None
        return RedistributionSuggestion(
            handle=handle,
            class_name=class_name_of(handle),
            current_node=current,
            target_node=node,
            caller_share=share,
            call_count=monitor.total_calls,
            amortised_calls=amortised,
        )

    def evaluate(self) -> list[RedistributionSuggestion]:
        """Examine every monitored handle and collect suggested moves."""
        suggestions = []
        for handle in self.monitored_handles():
            suggestion = self.suggest_for(handle)
            if suggestion is not None:
                suggestions.append(suggestion)
        return suggestions

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------

    def adapt(self) -> AdaptationRecord:
        """Close one observation epoch: apply every suggestion, reset windows.

        Each call to ``adapt`` treats the calls observed since the previous
        call as one epoch — suggested moves are applied and every monitor's
        window is cleared so the next epoch reflects only future behaviour
        (otherwise a long stable phase would drown out a new access pattern).
        """

        record = AdaptationRecord(suggestions=self.evaluate())
        for suggestion in record.suggestions:
            try:
                self.controller.move(suggestion.handle, suggestion.target_node)
            except RedistributionError:
                continue
            record.applied.append(suggestion)
        self.reset_window()
        self.history.append(record)
        return record

    def reset_window(self) -> None:
        for monitor in self._monitors.values():
            monitor.reset()
