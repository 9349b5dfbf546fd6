"""Exception hierarchy for the RAFDA reproduction (implementation module).

Every error raised by the library derives from :class:`ReproError`, so
applications embedding the framework can catch a single base class.  The
hierarchy mirrors the subsystems described in DESIGN.md: transformation,
runtime/distribution, networking, policy and the class corpus study.

This module is the *implementation*; applications should import the typed
hierarchy from the public façade :mod:`repro.api.errors`.
"""

from __future__ import annotations

import builtins
import functools


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Transformation (repro.core)
# ---------------------------------------------------------------------------

class TransformationError(ReproError):
    """A class could not be transformed into its componentised form."""


class NotTransformableError(TransformationError):
    """Raised when a transformation is requested for a non-transformable class.

    The §2.4 rules (native methods, special classes, inheritance and
    reference constraints) determine which classes fall in this category.
    """

    def __init__(self, class_name: str, reasons=()):
        self.class_name = class_name
        self.reasons = tuple(reasons)
        detail = ", ".join(str(reason) for reason in self.reasons) or "unknown reason"
        super().__init__(f"class {class_name!r} is not transformable: {detail}")


class InterfaceExtractionError(TransformationError):
    """An instance or class interface could not be extracted."""


class RewriteError(TransformationError):
    """A method body could not be rewritten to use interface types."""


class GenerationError(TransformationError):
    """A generated artifact (local, proxy or factory) could not be built."""


class UnknownClassError(TransformationError):
    """A transformed-class artifact was requested for an unknown class."""

    def __init__(self, class_name: str):
        self.class_name = class_name
        super().__init__(f"no transformation artifacts registered for class {class_name!r}")


# ---------------------------------------------------------------------------
# Distributed runtime (repro.runtime)
# ---------------------------------------------------------------------------

class RuntimeLayerError(ReproError):
    """Base class for errors raised by the distributed object layer."""


class SerializationError(RuntimeLayerError):
    """A value could not be marshalled to, or unmarshalled from, wire form."""


class InvocationError(RuntimeLayerError):
    """A remote invocation failed before reaching application code."""


class RemoteInvocationError(RuntimeLayerError):
    """The remote application method raised; carries the remote error text."""

    def __init__(self, remote_type: str, message: str):
        self.remote_type = remote_type
        self.remote_message = message
        super().__init__(f"remote {remote_type}: {message}")


class UnknownObjectError(RuntimeLayerError):
    """A remote reference does not resolve to an object in the target space."""


class RedistributionError(RuntimeLayerError):
    """A distribution-boundary change could not be applied."""


class NamingError(RuntimeLayerError):
    """A name could not be bound or resolved in the naming service."""


class ReplicationError(RuntimeLayerError):
    """A replica group could not be created, synchronized or failed over."""


class FencedError(ReplicationError):
    """A frame from a superseded epoch was rejected by a fenced recipient.

    Raised by a replica that receives an ``apply_op``/``apply_ops``/
    ``apply_state`` frame stamped with an epoch older than the highest epoch
    it has adopted, and by a stale ex-primary itself once it learns a newer
    epoch exists: rather than acking doomed writes (or serving stale
    cacheable reads) it retires and rejects every call.  Client-side fault tolerance treats the
    rejection as a redirect signal — the call re-resolves against the new
    epoch's primary and retries there."""

    def __init__(self, message: str, *, stale_epoch=None, current_epoch=None):
        self.stale_epoch = stale_epoch
        self.current_epoch = current_epoch
        super().__init__(message)


class QuorumLostError(ReplicationError):
    """A quorum-mode write could not gather majority acknowledgement.

    The primary applied the operation locally but fewer than ``quorum``
    replicas (counting the primary) acknowledged the ``apply_op`` that
    shipped it, so the write is **not** acknowledged to the client.  The
    writes of a dispatched batch ship in one ``apply_ops`` and are refused
    together: every call of the batch that wrote into the group gets this
    error instead of its result.  The
    divergent local application is reconciled away when the group heals: if
    the primary is later fenced, every write past the promoted backup's
    acknowledged seq is discarded and the node is re-seeded from the new
    primary's state.  Callers may retry; the retry lands on whichever
    primary holds the current epoch."""


# ---------------------------------------------------------------------------
# Simulated network (repro.network) and transports (repro.transports)
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class NodeUnreachableError(NetworkError):
    """The destination node is not registered on the network."""


class PartitionError(NetworkError):
    """The source and destination nodes are on different sides of a partition."""


class MessageDroppedError(NetworkError):
    """The message was dropped by the configured loss model."""


class AdmissionError(NetworkError):
    """A bounded service pool refused the request: every worker was busy and
    the admission queue was already full.  Transient by nature — the caller
    may retry after a backoff once the pool has drained."""


class ThrottledError(AdmissionError):
    """A per-tenant rate limiter rejected this call, retryably.

    The typed rejection of a
    :class:`~repro.api.middleware.RateLimitInterceptor` configured with
    ``retryable=True`` (the default).  Subclassing
    :class:`AdmissionError` keeps it in the transient-failure family, so
    retry policies back off and try again exactly as they do for a full
    service pool."""


class DeadlineExceededError(ReproError):
    """A call's propagated deadline expired before (or while) it executed.

    Raised client-side by a
    :class:`~repro.api.middleware.DeadlineInterceptor` when the deadline has
    already passed at enqueue time (the call is aborted without shipping),
    and server-side when the deadline expired in flight (the call is aborted
    before the target method runs).  Deadlines are absolute simulated-time
    instants, so retries and failover re-ships consume the *remaining*
    budget rather than getting a fresh one."""


class RateLimitError(ReproError):
    """A per-tenant rate limiter rejected this call, non-retryably.

    The typed, terminal rejection of a
    :class:`~repro.api.middleware.RateLimitInterceptor` configured with
    ``retryable=False``: the caller is over quota and backing off will not
    be attempted on its behalf."""


class TransportError(ReproError):
    """A transport could not encode, decode or deliver an invocation."""


class UnknownTransportError(TransportError):
    """The requested transport name is not registered."""

    def __init__(self, name: str, available=()):
        self.name = name
        self.available = tuple(available)
        listing = ", ".join(sorted(self.available)) or "none"
        super().__init__(f"unknown transport {name!r} (available: {listing})")


# ---------------------------------------------------------------------------
# Policy (repro.policy)
# ---------------------------------------------------------------------------

class PolicyError(ReproError):
    """A distribution policy is invalid or could not produce a decision."""


# ---------------------------------------------------------------------------
# Corpus study (repro.corpus)
# ---------------------------------------------------------------------------

class CorpusError(ReproError):
    """The synthetic class corpus could not be generated or analysed."""


# ---------------------------------------------------------------------------
# Remote-error rehydration
# ---------------------------------------------------------------------------

#: Control-plane rejections that travel typed: when a server-side
#: interceptor rejects a call, the error *type name* in the response is
#: rehydrated into the matching local class, so client retry policies can
#: classify the rejection (``ThrottledError`` is transient and retried,
#: ``RateLimitError`` and ``DeadlineExceededError`` are terminal).
#: Replication-control rejections (``FencedError``, ``QuorumLostError``)
#: travel the same way so a fenced write observed over the wire re-resolves
#: against the new epoch's primary instead of surfacing as an opaque remote
#: failure.  Every other error travels as :func:`remote_error` says.
_CONTROL_PLANE_ERRORS = {
    "DeadlineExceededError": DeadlineExceededError,
    "FencedError": FencedError,
    "QuorumLostError": QuorumLostError,
    "RateLimitError": RateLimitError,
    "ThrottledError": ThrottledError,
}


@functools.lru_cache(maxsize=128)
def _remote_builtin(name: str):
    """``RemoteInvocationError`` mixed with the builtin ``Exception`` subclass
    ``name``; ``None`` for any other name and for a builtin that needs more than
    a message (``ExceptionGroup``, the ``Unicode*Error`` classes)."""
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type) and issubclass(builtin, Exception):
        cls = type(name, (RemoteInvocationError, builtin), {"__str__": BaseException.__str__})
        try:
            cls(name, "")  # a builtin that needs more arguments refuses here
        except (TypeError, ValueError):
            return None
        return cls
    return None


def remote_error(remote_type: str, message: str) -> ReproError:
    """The exception to raise for a remote error response.

    Control-plane rejections (deadline expiry, rate limiting) come back as
    their typed local classes so the retry taxonomy applies to them; every
    other remote error is a :class:`RemoteInvocationError` carrying the remote
    type name and message verbatim, and also an instance of the builtin type it
    names, if any, so ``except KeyError`` catches it wherever the callee runs.
    """
    cls = _CONTROL_PLANE_ERRORS.get(remote_type)
    if cls is not None:
        return cls(message)
    return (_remote_builtin(remote_type) or RemoteInvocationError)(remote_type, message)
