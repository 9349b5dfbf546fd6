"""Transport abstraction.

Various proxies implementing the interface extracted from a class provide
alternative remote versions — SOAP-based, RMI-based, CORBA-based, etc.
(paper §1).  Each transport turns *messages* — plain dicts built by
:mod:`repro.runtime.invocation` — into a wire frame and back.  All transports
carry the same logical content, so proxies using different transports are
interchangeable; they differ only in wire format, message size and therefore
cost on the simulated network.

This is the one statement of the message shape.  A request is::

    {"target": <object key>, "member": <member name>, "args": [<wire value>...],
     "kwargs": {<str>: <wire value>...}, "ctx": {...}}

with ``kwargs`` only when the call has keyword arguments and ``ctx`` (call id,
tenant, deadline, trace ids) only when non-empty: no interface name, which the
serving space knows from its export.  ``target`` is the object's key on the
serving node (``1`` for the object ``server:1``), as GIOP's object key and
JRMP's ObjID are; a target with a ``:`` in it is a full object id (an id that
does not start with its node, or a frame written before keys).  A response is::

    {"result": <wire value>}                     on success
    {"error": {"type": ..., "message": ...}}     on failure

The key order shown is the order on the wire.  A request of these keys, in
this order, and a success response are each a *shape*: rmi and corba send a
message of a shape as a positional record (its values, no field names, as
GIOP and JRMP do) and any other dict, an error response included, as a keyed
map.  Either reads back to the same dict.

Wire values are JSON-compatible (None, bool, int, float, str, list, dict);
a live dict or list travels as itself, anything else as the Marshaller's
:class:`Tree`.  Outgoing, a value may sit in ``args``/``kwargs`` as a
:class:`Live` marker, which every protocol writes as its tree's bytes.  Given
``marshaller=``, the decoders return each ``args`` item, ``kwargs`` value and
``result`` live, and a tree that does not hold together is a
:class:`~repro._errors.SerializationError` for the frame.

A frame carries a list of messages of one *kind* (:data:`REQUEST`,
:data:`RESPONSE`, :data:`BATCH_REQUEST`, :data:`BATCH_RESPONSE`); the two
single kinds are the protocol's encoding of a list of exactly one.  Who checks
what: a transport's decoder answers for the framing — the frame is of the
expected kind and yields one message, or a list of them — and every failure
to read it is a :class:`~repro._errors.TransportError`; what a message *is*
is checked where it is read, once: a request by
:func:`repro.runtime.invocation.read_request` in the serving address space,
a response by :func:`repro.runtime.invocation.read_response` on the calling
side (a message that is not a dict of the shape above is a ``TransportError``
there, for the whole frame).
"""

from __future__ import annotations

import abc
import functools
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro._errors import TransportError, UnknownTransportError

#: The four kinds of frame a protocol encodes.
REQUEST = "request"
RESPONSE = "response"
BATCH_REQUEST = "batch request"
BATCH_RESPONSE = "batch response"
#: The kinds whose frame carries any number of messages rather than one.
BATCH_KINDS = frozenset((BATCH_REQUEST, BATCH_RESPONSE))

#: The exact types that are wire values and live values alike.
LEAVES = frozenset((type(None), bool, int, float, str))


class Tree:
    """The Marshaller's tree: a dict or list as itself; ``{KIND: TUPLE | SET, ITEMS:
    [...]}``, ``{KIND: BYTES, DATA: <base64>}``, ``{KIND: REF, "object_id", "node_id",
    "interface"}``; ``{KIND: MAP, ITEMS: [[key, value], ...]}`` for a map holding KIND
    — key order = wire order.  Read too: ``LIST`` and ``MAP`` for any list or map."""

    KIND, ITEMS, DATA = "__kind__", "items", "data"
    MAP, LIST, TUPLE, SET, BYTES, REF = "map", "list", "tuple", "set", "bytes", "ref"


@dataclass(slots=True)
class Live:
    """An outgoing argument still in its live form, and the Marshaller owning it."""

    value: Any
    marshaller: Any

    def to_wire(self) -> Any:
        """The value's tree (``marshaller.to_wire``)."""
        return self.marshaller.to_wire(self.value)


class Transport(abc.ABC):
    """Encodes and decodes invocation requests and responses for one protocol.

    A protocol supplies two primitives, :meth:`encode_frame` and
    :meth:`decode_frame`; the eight public names the runtime calls are
    defined here, once, on top of them.  A batch carries N messages in ONE
    frame with a native encoding per protocol (a distinct message type for
    the binary protocols, a distinct envelope element for SOAP, a wrapper
    object for JSON), so batches stay interchangeable across transports
    exactly like single calls.
    """

    #: Short lower-case protocol name ("soap", "rmi", "corba", "inproc").
    name: str = "abstract"

    # -- the protocol ----------------------------------------------------------

    @abc.abstractmethod
    def encode_frame(self, kind: str, messages: list) -> bytes:
        """Serialise the messages of one frame into this protocol's wire form.

        ``messages`` holds exactly one dict for the two single kinds.
        """

    @abc.abstractmethod
    def decode_frame(self, kind: str, payload: bytes) -> list:
        """Parse a wire frame of the expected ``kind`` back into its messages.

        Returns a ``list`` (of one element for the two single kinds); every
        failure to do so is a :class:`~repro._errors.TransportError`.  What
        the messages are is the reader's to check, not the transport's.
        """

    def read_frame(self, kind: str, payload: bytes, marshaller: Any = None) -> list:
        """:meth:`decode_frame`, then — given a ``marshaller`` — its values
        read live, as the module docstring says.  A protocol that reads them in
        the same pass overrides this."""
        messages = self.decode_frame(kind, payload)
        if marshaller is None:
            return messages
        for message in messages:
            if type(message) is not dict:
                continue  # not a message at all: its reader refuses it
            args, kwargs = message.get("args"), message.get("kwargs", {})
            if type(args) is list and type(kwargs) is dict:  # an absent kwargs stays absent
                message["args"], kwargs = marshaller.unmarshal_arguments(args, kwargs)
                if kwargs:
                    message["kwargs"] = kwargs
            if "result" in message:
                message["result"] = marshaller.from_wire(message["result"])
        return messages

    # -- the eight names the runtime calls -------------------------------------

    def encode_request(self, request: dict) -> bytes:
        """Serialise a request dictionary into this protocol's wire form."""
        return self.encode_frame(REQUEST, [request])

    def decode_request(self, payload: bytes, *, marshaller: Any = None) -> dict:
        """Parse a wire request back into a request dictionary."""
        return self.read_frame(REQUEST, payload, marshaller)[0]

    def encode_response(self, response: dict) -> bytes:
        """Serialise a response dictionary into this protocol's wire form."""
        return self.encode_frame(RESPONSE, [response])

    def decode_response(self, payload: bytes, *, marshaller: Any = None) -> dict:
        """Parse a wire response back into a response dictionary."""
        return self.read_frame(RESPONSE, payload, marshaller)[0]

    def encode_batch_request(self, requests: list) -> bytes:
        """Serialise a list of request dictionaries into one wire message."""
        return self.encode_frame(BATCH_REQUEST, requests)

    def decode_batch_request(self, payload: bytes, *, marshaller: Any = None) -> list:
        """Parse a wire batch back into a list of request dictionaries."""
        return self.read_frame(BATCH_REQUEST, payload, marshaller)

    def encode_batch_response(self, responses: list) -> bytes:
        """Serialise a list of response dictionaries into one wire message."""
        return self.encode_frame(BATCH_RESPONSE, responses)

    def decode_batch_response(self, payload: bytes, *, marshaller: Any = None) -> list:
        """Parse a wire batch back into a list of response dictionaries."""
        return self.read_frame(BATCH_RESPONSE, payload, marshaller)

    # -- cost model ----------------------------------------------------------

    #: Fixed processing charge to the simulated clock, in seconds, once per
    #: message whatever the number of calls it carries (envelope building,
    #: header packing, parser setup) — the amortisation that makes batching
    #: pay off.  Values are relative: text protocols pay more than binary ones.
    processing_overhead: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Framing(NamedTuple):
    """How one transport frames one kind of message, resolved at registration."""

    transport: Transport
    #: True for the batch framing, False for the single-call one.
    batch: bool
    #: The validated bytes in front of every such frame (see :func:`frame_prefix`).
    prefix: bytes


class TransportRegistry:
    """Named collection of transports shared by the address spaces of a cluster.

    Registering a transport validates its name and encodes its two frame
    prefixes once; the runtime then frames with :meth:`framing` and splits a
    received frame with :meth:`split_frame`, a table lookup each.
    """

    def __init__(self, transports: Iterable[Transport] = ()) -> None:
        self._transports: Dict[str, Transport] = {}
        #: Transport name -> (single framing, batch framing).
        self._framings: Dict[str, Tuple[Framing, Framing]] = {}
        #: Frame head (a prefix without its newline) -> its framing.
        self._heads: Dict[bytes, Framing] = {}
        for transport in transports:
            self.register(transport)

    def register(self, transport: Transport) -> Transport:
        """Add ``transport``; a name no frame prefix can carry is a
        :class:`~repro._errors.TransportError`."""
        name = transport.name
        framings = (
            Framing(transport, False, frame_prefix(name)),
            Framing(transport, True, frame_prefix(name, batch=True)),
        )
        self._transports[name] = transport
        self._framings[name] = framings
        for framing in framings:
            self._heads[framing.prefix[:-1]] = framing
        return transport

    def framing(self, name: str, batch: bool = False) -> Framing:
        """How the transport called ``name`` frames a single call or a batch."""
        try:
            return self._framings[name][batch]
        except KeyError as exc:
            raise UnknownTransportError(name, self._transports) from exc

    def split_frame(self, payload: bytes) -> Tuple[Framing, bytes]:
        """Split a framed message, in one step, into the framing its prefix
        names and its body.  A prefix that is malformed is a
        :class:`~repro._errors.TransportError`, one naming no registered
        transport an :class:`~repro._errors.UnknownTransportError`."""
        head, newline, body = payload.partition(b"\n")
        framing = self._heads.get(head)
        if framing is None or not newline:
            name, body, batch = parse_frame(payload)
            framing = self.framing(name, batch)
        return framing, body

    def names(self) -> set[str]:
        return set(self._transports)

    def __iter__(self):
        return iter(self._transports.values())

    def __len__(self) -> int:
        return len(self._transports)


#: Frame-prefix suffix marking a message body as a batch.  The receiving
#: address space routes such frames to the transport's batch decoder instead
#: of the single-call one (the wire body additionally self-describes via the
#: protocol's own batch message type).
BATCH_FRAME_MARKER = "!batch"

#: The first byte of every control frame (heartbeats, cache coherence) and of
#: no invocation frame: a transport name may not start with it, so a receiver
#: tells a control frame from an invocation by this one byte.
CONTROL_FRAME_BYTE = b"!"


@functools.lru_cache(maxsize=64)
def frame_prefix(transport_name: str, batch: bool = False) -> bytes:
    """The bytes in front of every (batch) frame ``transport_name`` produces.

    The receiving address space uses the prefix to select the matching
    transport for decoding; this plays the role of the port/endpoint
    dispatching a real middleware stack would perform.  A name that is not
    ASCII, holds a newline or starts with :data:`CONTROL_FRAME_BYTE` (and,
    for a batch, one holding :data:`BATCH_FRAME_MARKER`) is a
    :class:`~repro._errors.TransportError`.  A name is validated and encoded
    once: the prefix is remembered.
    """
    if "\n" in transport_name or not transport_name.isascii():
        raise TransportError("transport names must be ASCII without newlines")
    if transport_name[:1] == "!":
        raise TransportError(
            "transport names must not start with '!', the prefix reserved for control frames"
        )
    if batch:
        if BATCH_FRAME_MARKER in transport_name:
            raise TransportError(
                f"transport names must not contain {BATCH_FRAME_MARKER!r}"
            )
        transport_name += BATCH_FRAME_MARKER
    return transport_name.encode("ascii") + b"\n"


def frame_message(transport_name: str, body: bytes) -> bytes:
    """Prefix a wire message with the transport that produced it."""
    return frame_prefix(transport_name) + body


#: Frame prefixes for heartbeat probes.  Pings travel on the same simulated
#: links as invocations (and pay the same delivery rules) but bypass the
#: transport codecs entirely: a node answers a ping before any decoding, so
#: liveness probing works regardless of which protocols the node speaks.
PING_FRAME_PREFIX = b"!ping\n"
PONG_FRAME_PREFIX = b"!pong\n"


def frame_ping(sequence: int) -> bytes:
    """Frame one heartbeat probe carrying a monotonically increasing sequence."""
    return PING_FRAME_PREFIX + str(sequence).encode("ascii")


def frame_pong(sequence: int) -> bytes:
    """Frame the answer to a heartbeat probe, echoing its sequence."""
    return PONG_FRAME_PREFIX + str(sequence).encode("ascii")


def parse_heartbeat(payload: bytes) -> int:
    """Extract the sequence number from a framed ping or pong."""
    for prefix in (PING_FRAME_PREFIX, PONG_FRAME_PREFIX):
        if payload.startswith(prefix):
            try:
                return int(payload[len(prefix):])
            except ValueError as exc:
                raise TransportError("malformed heartbeat frame: bad sequence") from exc
    raise TransportError("not a heartbeat frame")


#: Frame prefixes for the cache-coherence control plane.  Like heartbeat
#: probes, these travel on the same simulated links as invocations (paying
#: the same delivery rules) but bypass the transport codecs entirely: a node
#: processes them before any protocol decoding, so coherence works regardless
#: of which transports the node speaks.
#:
#: ``!inv``  — a write-invalidation frame: the owning address space tells a
#: caching client to drop its entries for the listed object identifiers
#: *before* the triggering write is acknowledged.
#: ``!sub``  — a cache subscription: a client registers interest in one
#: object's invalidations for a lease (simulated seconds).
INV_FRAME_PREFIX = b"!inv\n"
INV_ACK_FRAME_PREFIX = b"!invack\n"
SUB_FRAME_PREFIX = b"!sub\n"
SUB_ACK_FRAME_PREFIX = b"!suback\n"

#: Prefix marking a response payload that carries piggybacked invalidations
#: in front of the real framed response.  When the client that issued a write
#: is itself a cache subscriber, the owning space rides the invalidation on
#: the (batch) response instead of paying a separate ``!inv`` message.
INV_PIGGYBACK_PREFIX = b"!inv+\n"


def frame_invalidation(
    object_ids: Iterable[str], epoch: Optional[int] = None
) -> bytes:
    """Frame one write-invalidation carrying the stale object identifiers.

    ``epoch`` stamps the frame with the sending replica group's promotion
    epoch (quorum mode): receivers track the highest epoch seen per object
    and reject frames claiming an older one, so a fenced ex-primary's late
    ``!inv`` traffic cannot masquerade as current coherence control.  An
    unstamped frame (``epoch=None``, the pre-quorum wire form) is always
    accepted — dropping cache entries is conservative.
    """
    ids = sorted(object_ids)
    if epoch is None:
        return INV_FRAME_PREFIX + json.dumps(ids).encode("ascii")
    body = {"epoch": int(epoch), "ids": ids}
    return INV_FRAME_PREFIX + json.dumps(body, sort_keys=True).encode("ascii")


def parse_invalidation_body(payload: bytes) -> tuple[List[str], Optional[int]]:
    """Extract ``(object_ids, epoch)`` from a framed invalidation.

    Accepts both wire forms: the legacy bare JSON list (``epoch`` comes back
    ``None``) and the epoch-stamped ``{"ids": [...], "epoch": N}`` object.
    """
    if not payload.startswith(INV_FRAME_PREFIX):
        raise TransportError("not an invalidation frame")
    try:
        body = json.loads(payload[len(INV_FRAME_PREFIX):])
    except ValueError as exc:
        raise TransportError("malformed invalidation frame: bad body") from exc
    if isinstance(body, list):
        return [str(object_id) for object_id in body], None
    if isinstance(body, dict) and isinstance(body.get("ids"), list):
        try:
            epoch = int(body["epoch"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(
                "malformed invalidation frame: bad epoch"
            ) from exc
        return [str(object_id) for object_id in body["ids"]], epoch
    raise TransportError("malformed invalidation frame: body is not a list")


def frame_invalidation_ack(count: int) -> bytes:
    """Frame the answer to an invalidation, echoing how many ids it carried."""
    return INV_ACK_FRAME_PREFIX + str(count).encode("ascii")


def frame_subscription(
    object_id: str,
    node_id: str,
    lease: float,
    cacheable: Iterable[str] = (),
) -> bytes:
    """Frame one cache subscription for ``object_id`` from ``node_id``.

    ``lease`` bounds the subscription in simulated seconds; it must be a
    positive number.  ``cacheable`` carries member names the client
    *declares* side-effect-free — the owning space honours them in addition
    to the implementation's own ``@cacheable`` markers, so policies caching
    a foreign deployment (no implementation class at hand) stay coherent
    rather than self-invalidating on every read.
    """
    body = {
        "object_id": object_id,
        "node": node_id,
        "lease": lease,
        "cacheable": sorted(cacheable),
    }
    return SUB_FRAME_PREFIX + json.dumps(body, sort_keys=True).encode("ascii")


def parse_subscription(payload: bytes) -> dict:
    """Extract ``{"object_id", "node", "lease"}`` from a subscription frame.

    A frame without ``object_id`` or ``node``, or whose ``lease`` is missing,
    not a number, or not a positive finite number, is a
    :class:`~repro._errors.TransportError`.
    """
    if not payload.startswith(SUB_FRAME_PREFIX):
        raise TransportError("not a subscription frame")
    try:
        body = json.loads(payload[len(SUB_FRAME_PREFIX):])
    except ValueError as exc:
        raise TransportError("malformed subscription frame: bad body") from exc
    if not isinstance(body, dict) or "object_id" not in body or "node" not in body:
        raise TransportError("malformed subscription frame: missing fields")
    lease = body.get("lease")
    if type(lease) not in (int, float) or not (lease > 0 and math.isfinite(lease)):
        raise TransportError("malformed subscription frame: lease is not a positive number")
    return body


def frame_subscription_ack() -> bytes:
    """Frame the answer to a cache subscription."""
    return SUB_ACK_FRAME_PREFIX + b"ok"


def attach_invalidations(payload: bytes, object_ids: Iterable[str]) -> bytes:
    """Prepend piggybacked invalidations to a framed response payload.

    The result is ``!inv+\\n<json ids>\\n<original payload>``; the receiving
    side splits it back apart with :func:`split_invalidations` before handing
    the inner payload to the normal response decoding path.
    """
    ids = sorted(object_ids)
    if not ids:
        return payload
    return INV_PIGGYBACK_PREFIX + json.dumps(ids).encode("ascii") + b"\n" + payload


def split_invalidations(payload: bytes) -> tuple[List[str], bytes]:
    """Split piggybacked invalidations off a response payload.

    Returns ``(object_ids, inner_payload)``; a payload without the piggyback
    prefix comes back unchanged with an empty id list.
    """
    if not payload.startswith(INV_PIGGYBACK_PREFIX):
        return [], payload
    rest = payload[len(INV_PIGGYBACK_PREFIX):]
    try:
        header, inner = rest.split(b"\n", 1)
        object_ids = json.loads(header)
    except ValueError as exc:
        raise TransportError("malformed piggybacked invalidation header") from exc
    if not isinstance(object_ids, list):
        raise TransportError("malformed piggybacked invalidation header")
    return [str(object_id) for object_id in object_ids], inner


def unframe_message(payload: bytes) -> tuple[str, bytes]:
    """Split a framed message into (transport name, body)."""
    try:
        name, body = payload.split(b"\n", 1)
        return name.decode("ascii"), body
    except ValueError as exc:  # no newline, or a prefix that is not ASCII
        raise TransportError("malformed framed message: no ASCII transport prefix") from exc


def parse_frame(payload: bytes) -> tuple[str, bytes, bool]:
    """Split a framed message into (transport name, body, is_batch)."""
    name, body = unframe_message(payload)
    if name.endswith(BATCH_FRAME_MARKER):
        return name[: -len(BATCH_FRAME_MARKER)], body, True
    return name, body, False
