"""Tooling around the transformation: capturing, deciding and reporting policy.

The paper's closing sentence promises "a complete system for deciding and
capturing distribution policy"; this package provides the reproduction's
version of that system:

``deployment``
    Deployment descriptors: a whole deployment (nodes, link characteristics,
    per-class placements) captured as plain data / JSON and applied to a
    transformed application in one call.
``recommend``
    Placement recommendation: profile a running transformed application and
    derive a static placement (or a policy) from the observed call affinity.
``report``
    Human-readable reports about a transformed application, its policy and
    the traffic it generated.
"""

from repro.tools.deployment import (
    DeploymentDescriptor,
    LinkSpec,
    NodeSpec,
    deployment_from_dict,
)
from repro.tools.recommend import (
    ClassAffinity,
    PlacementRecommendation,
    PlacementRecommender,
    profile_and_recommend,
)
from repro.tools.report import application_report, traffic_report

__all__ = [
    "ClassAffinity",
    "DeploymentDescriptor",
    "LinkSpec",
    "NodeSpec",
    "PlacementRecommendation",
    "PlacementRecommender",
    "application_report",
    "deployment_from_dict",
    "profile_and_recommend",
    "traffic_report",
]
