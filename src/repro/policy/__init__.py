"""Distribution policy: static decisions, by class name or glob pattern, and adaptive ones."""

from repro.policy.adaptive import (
    AccessMonitor,
    AdaptationRecord,
    AdaptiveDistributionManager,
    RedistributionSuggestion,
)
from repro.policy.loader import (
    policy_from_dict,
    policy_from_file,
    policy_from_json,
    policy_to_dict,
)
from repro.policy.policy import (
    ClassPolicy,
    DistributionPolicy,
    PlacementDecision,
    all_local_policy,
    local,
    place_classes_on,
    remote,
)

__all__ = [
    "AccessMonitor",
    "AdaptationRecord",
    "AdaptiveDistributionManager",
    "ClassPolicy",
    "DistributionPolicy",
    "PlacementDecision",
    "RedistributionSuggestion",
    "all_local_policy",
    "local",
    "place_classes_on",
    "policy_from_dict",
    "policy_from_file",
    "policy_from_json",
    "policy_to_dict",
    "remote",
]
