"""RAFDA reproduction: reflective flexibility in application distribution.

This package reproduces the system described in "A Reflective Approach to
Providing Flexibility in Application Distribution" (Rebón Portillo, Walker,
Kirby, Dearle — Middleware 2003).  Ordinary, non-distributed Python classes
are transformed into a componentised, semantically equivalent application
whose distribution boundaries are decided by policy and can be changed while
the program runs.

Quickstart
----------

>>> from repro import ApplicationTransformer, Cluster
>>> from repro.policy import place_classes_on
>>>
>>> class Counter:
...     def __init__(self, start):
...         self.value = start
...     def increment(self, by):
...         self.value = self.value + by
...         return self.value
...
>>> app = ApplicationTransformer(place_classes_on({"Counter": "server"})).transform([Counter])
>>> app.deploy(Cluster(("client", "server")), default_node="client")
>>> counter = app.new("Counter", 10)       # created on "server", used from "client"
>>> counter.increment(5)
15

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the mapping
from the paper's sections to the modules of this package.
"""

from repro._errors import (
    NetworkError,
    NotTransformableError,
    PolicyError,
    RedistributionError,
    RemoteInvocationError,
    ReproError,
    TransformationError,
)
from repro.api import Service, ServicePolicy, Session
from repro.core.analyzer import (
    AnalysisResult,
    NonTransformableReason,
    TransformabilityAnalyzer,
)
from repro.core.classmodel import ClassModel, ClassUniverse
from repro.core.introspect import class_model_from_python, native
from repro.core.metaobject import Metaobject, metaobject_of, unwrap
from repro.core.transformer import (
    ApplicationTransformer,
    TransformedApplication,
)
from repro.network.simnet import LinkConfig, SimulatedNetwork
from repro.policy.policy import DistributionPolicy, PlacementDecision, all_local_policy
from repro.runtime.address_space import AddressSpace
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController
from repro.runtime.remote_ref import RemoteRef

__version__ = "1.0.0"

__all__ = [
    "AddressSpace",
    "AnalysisResult",
    "ApplicationTransformer",
    "ClassModel",
    "ClassUniverse",
    "Cluster",
    "DistributionController",
    "DistributionPolicy",
    "LinkConfig",
    "Metaobject",
    "NetworkError",
    "NonTransformableReason",
    "NotTransformableError",
    "PlacementDecision",
    "PolicyError",
    "RedistributionError",
    "RemoteInvocationError",
    "RemoteRef",
    "ReproError",
    "Service",
    "ServicePolicy",
    "Session",
    "SimulatedNetwork",
    "TransformabilityAnalyzer",
    "TransformationError",
    "TransformedApplication",
    "all_local_policy",
    "class_model_from_python",
    "metaobject_of",
    "native",
    "unwrap",
    "__version__",
]
