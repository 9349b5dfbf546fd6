"""The distributed object layer: address spaces, references, migration."""

from repro.runtime.address_space import AddressSpace
from repro.runtime.batching import BatchingProxy
from repro.runtime.cluster import Cluster, default_transport_registry
from repro.runtime.faulttolerance import (
    NO_RETRY,
    FailureLog,
    FaultTolerantInvoker,
    RetryPolicy,
    guard_handle,
)
from repro.runtime.migration import apply_state, snapshot_state
from repro.runtime.naming import NamingService
from repro.runtime.pipelining import BatchResult, InvocationFuture, PipelineScheduler
from repro.runtime.redistribution import BoundaryChange, DistributionController
from repro.runtime.remote_ref import ObjectIdAllocator, RemoteRef, reference_of
from repro.runtime.replication import (
    FailoverRecord,
    ReplicaGroup,
    ReplicaManager,
    ReplicaRecord,
    ReplicatedObject,
)
from repro.runtime.serialization import Marshaller

__all__ = [
    "AddressSpace",
    "BatchResult",
    "BatchingProxy",
    "BoundaryChange",
    "Cluster",
    "DistributionController",
    "FailureLog",
    "FaultTolerantInvoker",
    "InvocationFuture",
    "Marshaller",
    "NO_RETRY",
    "NamingService",
    "ObjectIdAllocator",
    "PipelineScheduler",
    "RemoteRef",
    "ReplicaGroup",
    "ReplicaManager",
    "ReplicaRecord",
    "ReplicatedObject",
    "FailoverRecord",
    "RetryPolicy",
    "guard_handle",
    "apply_state",
    "snapshot_state",
    "default_transport_registry",
    "reference_of",
]
