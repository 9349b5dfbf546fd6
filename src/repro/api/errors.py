"""Public error façade: the typed exception hierarchy in one import.

Everything the framework can raise at an application derives from
:class:`ReproError`, and this module is the supported place to import it
from — callers do not reach into internals.  Catching is tiered:
``except ReproError`` for everything, a subsystem base
(:class:`NetworkError`, :class:`ReplicationError`, :class:`TransportError`,
…) for a layer, or a leaf class for one condition::

    from repro.api.errors import FencedError, QuorumLostError, ThrottledError

    try:
        orders.submit(sku, qty, price)
    except ThrottledError:
        ...   # transient: back off and retry
    except QuorumLostError:
        ...   # write not acknowledged: a majority of replicas is unreachable

The retry taxonomy the runtime applies is visible in the types:
:class:`AdmissionError` (and its subclass :class:`ThrottledError`) and
:class:`MessageDroppedError` are transient; :class:`PartitionError` and
:class:`NodeUnreachableError` are fatal for a single target but recoverable
through replica failover; :class:`FencedError` means the callee's epoch is
superseded and the call should chase the current primary.
"""

from __future__ import annotations

from repro._errors import (
    AdmissionError,
    CorpusError,
    DeadlineExceededError,
    FencedError,
    GenerationError,
    InterfaceExtractionError,
    InvocationError,
    MessageDroppedError,
    NamingError,
    NetworkError,
    NodeUnreachableError,
    NotTransformableError,
    PartitionError,
    PolicyError,
    QuorumLostError,
    RateLimitError,
    RedistributionError,
    RemoteInvocationError,
    ReplicationError,
    ReproError,
    RewriteError,
    RuntimeLayerError,
    SerializationError,
    ThrottledError,
    TransformationError,
    TransportError,
    UnknownClassError,
    UnknownObjectError,
    UnknownTransportError,
)

__all__ = [
    "AdmissionError",
    "CorpusError",
    "DeadlineExceededError",
    "FencedError",
    "GenerationError",
    "InterfaceExtractionError",
    "InvocationError",
    "MessageDroppedError",
    "NamingError",
    "NetworkError",
    "NodeUnreachableError",
    "NotTransformableError",
    "PartitionError",
    "PolicyError",
    "QuorumLostError",
    "RateLimitError",
    "RedistributionError",
    "RemoteInvocationError",
    "ReplicationError",
    "ReproError",
    "RewriteError",
    "RuntimeLayerError",
    "SerializationError",
    "ThrottledError",
    "TransformationError",
    "TransportError",
    "UnknownClassError",
    "UnknownObjectError",
    "UnknownTransportError",
]
