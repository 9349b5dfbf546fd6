"""Placement recommendation from observed call affinity.

The paper defers "deciding ... distribution policy" to future work; this
module closes the loop for the reproduction.  A transformed application is
run under a profiling configuration (every class dynamic, so each object is
reached through a monitored handle); the recommender then aggregates, per
class, how many calls arrived from each node and derives

* a **static placement** (class → node) that co-locates each class with the
  node that calls it most, and
* optionally a full :class:`~repro.policy.policy.DistributionPolicy` that can
  be fed straight back into :meth:`TransformedApplication.deploy` or captured
  to JSON with :func:`repro.policy.loader.policy_to_dict`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.policy.adaptive import AdaptiveDistributionManager, class_name_of
from repro.policy.policy import DistributionPolicy, all_local_policy, remote


@dataclass
class ClassAffinity:
    """Observed call counts for one class, by calling node."""

    class_name: str
    calls_per_node: Counter = field(default_factory=Counter)

    @property
    def total_calls(self) -> int:
        return sum(self.calls_per_node.values())

    def dominant_node(self) -> Optional[str]:
        if not self.calls_per_node:
            return None
        return self.calls_per_node.most_common(1)[0][0]

    def dominant_share(self) -> float:
        if not self.calls_per_node:
            return 0.0
        return self.calls_per_node.most_common(1)[0][1] / self.total_calls


@dataclass
class PlacementRecommendation:
    """The outcome of a profiling run."""

    placement: Dict[str, str]
    affinities: Dict[str, ClassAffinity]
    #: Classes observed but left local because no node dominated their calls.
    undecided: list[str] = field(default_factory=list)

    def to_policy(
        self, *, transport: str = "rmi", dynamic: bool = True, home_node: Optional[str] = None
    ) -> DistributionPolicy:
        """Convert the placement into a distribution policy.

        Classes placed on ``home_node`` (the node the driver runs on) are left
        local; everything else becomes a remote decision for its chosen node.
        """

        policy = all_local_policy(dynamic=dynamic)
        for class_name, node_id in self.placement.items():
            if home_node is not None and node_id == home_node:
                continue
            decision = remote(node_id, transport=transport, dynamic=dynamic)
            policy.set_class(class_name, instances=decision, statics=decision)
        return policy

    def describe(self) -> str:
        lines = ["placement recommendation:"]
        for class_name in sorted(self.placement):
            affinity = self.affinities[class_name]
            lines.append(
                f"  {class_name:24s} -> {self.placement[class_name]:12s}"
                f" ({affinity.total_calls} calls, {affinity.dominant_share():.0%} affinity)"
            )
        for class_name in sorted(self.undecided):
            lines.append(f"  {class_name:24s} -> (left local: no dominant caller)")
        return "\n".join(lines)


class PlacementRecommender:
    """Aggregates handle-level monitors into per-class placement advice.

    The monitors are those of an
    :class:`~repro.policy.adaptive.AdaptiveDistributionManager` the
    recommender owns without a controller: it observes, it never moves.
    """

    def __init__(self, application, *, min_calls: int = 10, threshold: float = 0.5) -> None:
        self.application = application
        self.min_calls = min_calls
        self.threshold = threshold
        self._manager = AdaptiveDistributionManager(application, None)

    # ------------------------------------------------------------------

    def attach_all(self) -> int:
        """Monitor every rebindable handle the application has produced.

        Returns how many handles were not monitored before.
        """
        before = len(self._manager.monitored_handles())
        return self._manager.attach_all() - before

    def detach_all(self) -> None:
        """Take every access monitor this recommender installed off its handle."""
        self._manager.detach_all()

    def affinities(self) -> Dict[str, ClassAffinity]:
        """Aggregate observed calls per class."""
        per_class: Dict[str, ClassAffinity] = {}
        for handle in self._manager.monitored_handles():
            class_name = class_name_of(handle)
            affinity = per_class.setdefault(class_name, ClassAffinity(class_name))
            affinity.calls_per_node.update(self._manager.monitor_for(handle).calls_per_node)
        return per_class

    def recommend(self) -> PlacementRecommendation:
        """Derive a placement from the calls observed so far."""
        placement: Dict[str, str] = {}
        undecided: list[str] = []
        affinities = self.affinities()
        for class_name, affinity in affinities.items():
            if affinity.total_calls < self.min_calls:
                undecided.append(class_name)
                continue
            if affinity.dominant_share() < self.threshold:
                undecided.append(class_name)
                continue
            placement[class_name] = affinity.dominant_node()
        return PlacementRecommendation(
            placement=placement, affinities=affinities, undecided=undecided
        )


def profile_and_recommend(
    application,
    workload: Callable[[], object],
    *,
    min_calls: int = 10,
    threshold: float = 0.5,
) -> PlacementRecommendation:
    """Run ``workload`` against ``application`` and recommend a placement.

    The application should have been transformed with a *dynamic* policy so
    that every object is reached through a monitored handle.  Handles created
    while the workload runs are attached after it, so their classes appear in
    the recommendation as undecided (none of their calls was counted).  Every
    monitor comes off its handle once the recommendation is made, so later
    calls pay for none.
    """

    recommender = PlacementRecommender(
        application, min_calls=min_calls, threshold=threshold
    )
    recommender.attach_all()
    workload()
    recommender.attach_all()
    recommendation = recommender.recommend()
    recommender.detach_all()
    return recommendation
