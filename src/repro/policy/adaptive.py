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

Batch-awareness
---------------

When callers use the batched invocation path
(:class:`~repro.runtime.batching.BatchingProxy`), ``n`` remote calls cost
roughly ``n / B`` message overheads instead of ``n`` — the per-call cost is
amortised across the batch.  A manager constructed with ``batch_size=B > 1``
therefore weighs the observed window by ``1 / B`` before comparing it with
``min_calls``: traffic that is cheap because it is batched no longer
justifies moving an object.  The default ``batch_size=1`` keeps decisions
bit-identical to the unbatched heuristic.

Pipeline-awareness
------------------

The pipelined scheduler (:class:`~repro.runtime.pipelining.PipelineScheduler`)
keeps up to ``W`` batches in flight concurrently, so their round-trip
*latencies* overlap: a window of ``W`` batches costs roughly one round trip
of wall-clock (simulated) time instead of ``W``.  A manager constructed with
``pipeline_depth=W > 1`` folds that second amortisation into the same
weighting — the observed window is divided by ``batch_size * pipeline_depth``
before the ``min_calls`` comparison, because traffic whose latency is hidden
by the pipeline is even weaker evidence that the callee should move.  The
default ``pipeline_depth=1`` models the synchronous dispatch modes.  A live
scheduler connected via :meth:`AdaptiveDistributionManager.connect_pipeline`
supersedes the configured value with the depth the pipeline *actually
achieved* (its ``observed_pipeline_depth``), so decisions track measured —
not assumed — overlap.

Cache-awareness
---------------

Client-side result caching (:mod:`repro.runtime.caching`) removes traffic
entirely: a call served from the cache costs no message at all, so observed
call counts overstate the network cost of a cached workload.  A manager
constructed with ``cache_hit_ratio=r`` (or connected to a live cache via
:meth:`AdaptiveDistributionManager.connect_cache`, whose *measured* hit rate
then supersedes the configured value) discounts the observed window by
``1 - r`` — the same direction as batch amortisation: traffic that is cheap
because it is cached no longer justifies moving an object.

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

Replication-awareness
---------------------

Replication pulls in the *opposite* direction: when the callee is the
primary of a replica group kept in sync eagerly
(:class:`~repro.runtime.replication.ReplicaManager`), every mutating call the
object serves is amplified into ``R - 1`` additional replication messages
(one per backup), so each observed call represents *more* network cost than
its unreplicated equivalent.  A manager constructed with
``replication_factor=R > 1`` multiplies the observed window by ``R``, which
lowers the effective bar for moving a hot replicated object towards its
dominant caller.  The default ``replication_factor=1`` models unreplicated
objects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro._errors import RedistributionError
from repro.core.interception import CallContext, Interceptor
from repro.core.metaobject import metaobject_of


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
    #: The window's call count weighted by batch amortisation; equals
    #: ``call_count`` when the manager is not batch-aware.
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
        batch_size: int = 1,
        pipeline_depth: int = 1,
        replication_factor: int = 1,
        cache_hit_ratio: float = 0.0,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise RedistributionError("threshold must be in (0, 1]")
        if batch_size < 1:
            raise RedistributionError("batch_size must be at least 1")
        if pipeline_depth < 1:
            raise RedistributionError("pipeline_depth must be at least 1")
        if replication_factor < 1:
            raise RedistributionError("replication_factor must be at least 1")
        if not 0.0 <= cache_hit_ratio < 1.0:
            raise RedistributionError("cache_hit_ratio must be in [0, 1)")
        self.application = application
        self.controller = controller
        self.threshold = threshold
        self.min_calls = min_calls
        #: Batch window the callers are assumed to use; ``1`` means the
        #: unbatched invocation path (decisions identical to the classic
        #: heuristic), larger values amortise the observed call counts.
        self.batch_size = batch_size
        #: In-flight window depth of the callers' pipelined scheduler; ``1``
        #: means synchronous dispatch, larger values amortise further because
        #: concurrent batches overlap their round-trip latencies.
        self.pipeline_depth = pipeline_depth
        #: Replica count of the monitored objects (primary + backups); ``1``
        #: means unreplicated, larger values weigh every observed write by
        #: its eager-replication amplification.
        self.replication_factor = replication_factor
        #: Fraction of the monitored calls assumed to be served from a
        #: client-side result cache (no network traffic); ``0.0`` models
        #: uncached callers, larger values discount the observed window.
        self.cache_hit_ratio = cache_hit_ratio
        #: Live schedulers whose measured window depths supersede the
        #: configured ``pipeline_depth`` (see :meth:`connect_pipeline`);
        #: aggregated traffic-weighted across all of them.
        self._pipeline_sources: list = []
        #: A live cache whose measured hit rate supersedes the configured
        #: ``cache_hit_ratio`` (see :meth:`connect_cache`).
        self._cache_source: Optional[Any] = None
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

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def connect_pipeline(self, scheduler: Any) -> None:
        """Feed a scheduler's *measured* window depth into the heuristic.

        ``scheduler`` is anything exposing ``observed_pipeline_depth`` and
        ``depth_samples`` — in practice the
        :class:`~repro.runtime.pipelining.PipelineScheduler` (or the façade
        service built on one) carrying the monitored traffic.  Once connected,
        :meth:`effective_pipeline_depth` prefers the depth the pipeline
        actually achieved over the statically configured ``pipeline_depth``,
        closing the "configured, not measured" gap: a window that traffic
        never fills no longer over-discounts the observed calls.

        May be called once per scheduler: a session with several policy
        shapes connects each shared scheduler as it appears, and the
        effective depth aggregates all of them weighted by how many batches
        each actually shipped — connecting a second scheduler adds a signal
        instead of silently replacing the first.  Pass ``None`` to
        disconnect every source.
        """
        if scheduler is None:
            self._pipeline_sources = []
            return
        if scheduler not in self._pipeline_sources:
            self._pipeline_sources.append(scheduler)

    def connect_cache(self, cache: Any) -> None:
        """Feed a cache's *measured* hit rate into the heuristic.

        ``cache`` is anything exposing integer ``hits`` and ``misses``
        counters — in practice a
        :class:`~repro.runtime.caching.ResultCache` or the session-level
        :class:`~repro.runtime.caching.CacheManager` aggregating several.
        Once connected (and once at least one lookup has happened),
        :meth:`effective_cache_hit_ratio` prefers the observed ratio over
        the statically configured ``cache_hit_ratio``.  Pass ``None`` to
        disconnect.
        """
        self._cache_source = cache

    def connect_network(self, network: Any) -> None:
        """Feed the network's *measured* queueing delay into the heuristic.

        ``network`` is anything exposing a ``metrics`` attribute with
        ``total_latency`` and ``total_queue_delay`` (in practice the
        :class:`~repro.network.simnet.SimulatedNetwork` carrying the
        monitored traffic), or such a metrics object directly.  Once
        connected, :meth:`effective_congestion_factor` weighs the observed
        window by how much of the traffic's latency was spent waiting for
        busy links, so congested traffic argues more strongly for moving
        objects next to their callers.  Pass ``None`` to disconnect.
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
        metrics = getattr(source, "metrics", source)
        total_latency = getattr(metrics, "total_latency", 0.0)
        queue_delay = getattr(metrics, "total_queue_delay", 0.0)
        if total_latency <= 0.0 or queue_delay <= 0.0:
            return 1.0
        return 1.0 + min(queue_delay / total_latency, 1.0)

    def effective_cache_hit_ratio(self) -> float:
        """The hit ratio the discount actually uses (measured when possible).

        The connected cache's observed ratio when one is connected and has
        served at least one lookup; the configured ``cache_hit_ratio``
        otherwise.  Clamped below 1 so a perfectly-hitting window still
        counts a sliver of traffic.
        """
        source = self._cache_source
        if source is not None:
            hits = getattr(source, "hits", 0)
            misses = getattr(source, "misses", 0)
            total = hits + misses
            if total > 0:
                return min(hits / total, 0.999)
        return self.cache_hit_ratio

    def effective_pipeline_depth(self) -> float:
        """The pipeline depth the amortisation actually uses.

        The traffic-weighted mean of every connected scheduler's
        :attr:`observed_pipeline_depth` (weighted by its ``depth_samples``,
        i.e. batches actually shipped), over the schedulers that shipped at
        least one batch; the configured ``pipeline_depth`` when none have.
        With a single active source this is exactly that source's observed
        depth, so one-scheduler sessions behave as before.
        """
        weighted = 0.0
        samples = 0
        for source in self._pipeline_sources:
            count = getattr(source, "depth_samples", 0)
            if count > 0:
                weighted += float(source.observed_pipeline_depth) * count
                samples += count
        if samples > 0:
            return max(1.0, weighted / samples)
        return float(self.pipeline_depth)

    def amortised_call_count(self, monitor: AccessMonitor) -> float:
        """The monitor's window weighted by batching, pipelining, replication
        and caching.

        ``n`` batched calls cost about ``n / batch_size`` round-trip
        overheads, a pipelined window overlaps the *effective* pipeline depth
        of those round trips in simulated time (measured when a scheduler is
        connected via :meth:`connect_pipeline`, configured otherwise), eager
        replication amplifies each served write into ``replication_factor``
        messages, and a result cache removes the hit fraction of the traffic
        entirely (measured when a cache is connected via
        :meth:`connect_cache`).  Congestion pushes the other way: traffic
        that queued on busy links cost more than its idle-network delay, so
        the window is additionally weighted by the measured
        :meth:`effective_congestion_factor` when a network is connected via
        :meth:`connect_network`.  The quantity compared against
        ``min_calls`` is therefore
        ``n * replication_factor * congestion * (1 - hit_ratio)
        / (batch_size * depth)``.
        With every factor neutral this is exactly ``monitor.total_calls``.
        """
        weight = self.batch_size * self.effective_pipeline_depth()
        amplification = self.replication_factor
        discount = 1.0 - self.effective_cache_hit_ratio()
        congestion = self.effective_congestion_factor()
        if (
            weight <= 1
            and amplification <= 1
            and discount >= 1.0
            and congestion <= 1.0
        ):
            return float(monitor.total_calls)
        return monitor.total_calls * amplification * congestion * discount / weight

    def suggest_for(self, handle: Any) -> Optional[RedistributionSuggestion]:
        """Apply the affinity heuristic to one monitored handle."""
        monitor = self._monitors.get(id(handle))
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
            class_name=getattr(type(handle), "_repro_class_name", type(handle).__name__),
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
