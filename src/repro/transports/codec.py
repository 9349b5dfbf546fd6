"""The one binary value codec, and the transport base class built on it.

The RMI-like and CORBA-like transports both need a compact binary encoding of
the wire-value domain (None, bool, int, float, str, list, dict).  This module
is that encoding, once: a tag-length-value stream whose only parameter is the
``alignment`` of its primitives (CORBA's CDR aligns 4- and 8-byte values to
their natural boundaries; the RMI-like stream is packed), so the two protocols
share every line of value handling while producing different bytes.

The tags, one byte each: 0 ``None``, 1 ``True``, 2 ``False``, 3 an 8-byte
int, 4 an 8-byte float, 5 a string (a 4-byte length, then UTF-8), 6 a list (a
4-byte count, then the items), 7 a map (a 4-byte count, then per entry the key
as length and bytes, untagged, and the value), 8 a record (a message, never a
value: below) and 9 a 4-byte int.  Every writer sends an int that fits in 32
bits as 9 and any other as 3; readers take both, so a frame written before 9
existed, every int in 8 bytes, still reads.  Numbers are big-endian and ints
signed.

* :func:`encode_value` / :func:`decode_value` — round-trip ONE wire value.
  Dispatch is on the exact type, most frequent first; subclasses (an
  ``IntEnum``, an ``OrderedDict``, a tuple) fall back to an ``isinstance``
  ladder and travel as their base type::

      assert decode_value(encode_value([1, "two", None])) == [1, "two", None]
      assert encode_value(True) == b"\\x01"               # a tag, not an int
      assert encode_value(7).hex() == "0900000007"        # 4 bytes: it fits in 32 bits
      assert encode_value("ab", alignment=8).hex() == "05000000" "00000002" "6162"

  ``alignment=1`` produces the RMI-like packed stream; ``alignment=8``
  produces the CDR-style aligned stream::

      message = {"member": "submit", "args": [1, 2.5, "sku"]}
      packed = encode_value(message)                      # RMI-like stream
      aligned = encode_value(message, alignment=8)        # CDR-style padding
      assert decode_value(packed) == message
      assert decode_value(aligned, alignment=8) == message
      assert len(aligned) >= len(packed)                  # padding costs bytes

  Decoders must use the producer's alignment — the streams are not
  self-describing on that axis (the transport name in the frame carries it).
  Alignment is relative to the start of the value stream, never to a protocol
  header in front of it.

Which code writes what.  **Values** go through the walk: wire values, and a
:class:`~repro.transports.base.Live` marker's value as the bytes of
``encode_value(marshaller.to_wire(value))``, read back live given a
``marshaller`` (a map holding the tree's ``"__kind__"`` key whole through
``from_wire``, so the old all-tagged form still reads).  **Messages** go through
:class:`BinaryTransport`: a message whose keys are exactly one of its kind's
shapes (``_SHAPES``), in order, is a *positional record*, as GIOP and JRMP
carry a call: the tag ``_TAG_RECORD`` (8), a header naming the shape, then the
field values with no names (leaves and lists or maps of leaves in place, any
other value through the walk at its offset).  A request's header is its field
count plus 4 with ``ctx``; 5 and 6 name the records written while requests
named their interface, read and never written.  A header that is no shape of
the frame's kind is a ``TransportError``.  Every other message (an error
response, a permuted, partial or foreign dict, a value that is no dict) is
written by the walk as a keyed map, and read as one; so is every message of a
frame written before records.  Either way ``args`` items, ``kwargs`` values
and ``result`` are read live given a marshaller.

Every failure — a value outside the wire domain, an integer beyond 64 bits,
a truncated or over-long stream, an unknown tag, invalid UTF-8, nesting deeper
than the interpreter's stack — raises :class:`~repro.api.errors.TransportError`;
a live value that cannot be marshalled, or a tree that does not hold
together, raises :class:`~repro.api.errors.SerializationError`.

:class:`BinaryTransport` holds the frame encoder and decoder of a binary
protocol; a concrete protocol (``rmi.py``, ``corba.py``) is a description
over it: name, alignment, a message-type code per frame kind, how its header
is packed and opened, and its ``processing_overhead``.
"""

from __future__ import annotations

import abc
import struct
from itertools import repeat
from struct import Struct
from typing import Any, Dict

from repro._errors import SerializationError, TransportError
from repro.transports import base
from repro.transports.base import BATCH_KINDS, Live, Transport, Tree

_TAG_NONE = 0
_TAG_TRUE = 1
_TAG_FALSE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_LIST = 6
_TAG_MAP = 7
_TAG_RECORD = 8  # a message: its fields by position, no names (never inside a value)
_TAG_SMALL_INT = 9  # an int that fits in 32 bits, in 4 bytes (_TAG_INT: 8 bytes)
_SINGLETONS = (None, True, False)  # by tag

_UINT32 = Struct("!I")
_INT32 = Struct("!i")
_INT64 = Struct("!q")
_FLOAT64 = Struct("!d")
# One pack call writes a tag, the pad up to the value's boundary and the
# value; the index is the pad length (always 0 in a packed stream).
_TAG_UINT32 = tuple(Struct(f"!B{pad}xI") for pad in range(4))
_TAG_INT32 = tuple(Struct(f"!B{pad}xi") for pad in range(4))
_TAG_INT64 = tuple(Struct(f"!B{pad}xq") for pad in range(8))
_TAG_FLOAT64 = tuple(Struct(f"!B{pad}xd") for pad in range(8))
_PADS = tuple(bytes(pad) for pad in range(4))
_PACKED = (_TAG_UINT32[0].pack, _TAG_INT32[0].pack, _TAG_INT64[0].pack, _TAG_FLOAT64[0].pack,
           _UINT32.pack)
#: What Python raises where a stream does not meet the binary format.
_WRITE_ERRORS = (struct.error, OverflowError, UnicodeEncodeError, RecursionError)
_READ_ERRORS = (struct.error, IndexError, UnicodeDecodeError, RecursionError)

#: The subclass fallback, in the order the wire domain is tested: what an
#: instance of a *subclass* of a wire type travels as.
_WIRE_BASES = (int, float, str, list, tuple, dict)

#: The record shapes of a frame kind's messages: header -> field names, in order (a
#: request's header is its field count, plus 4 with ``ctx``; 5 and 6 are read, never written).
_CALL, _OLD = ("target", "member", "args"), ("target", "interface", "member", "args", "kwargs")
_REQUESTS = {3: _CALL, 4: (*_CALL, "kwargs"), 8: (*_CALL, "ctx"), 9: (*_CALL, "kwargs", "ctx"),
             5: _OLD, 6: (*_OLD, "ctx")}
_RESPONSES = {1: ("result",)}
_SHAPES = {base.REQUEST: _REQUESTS, base.BATCH_REQUEST: _REQUESTS,
           base.RESPONSE: _RESPONSES, base.BATCH_RESPONSE: _RESPONSES}
#: The header value a message is written with, by its field names, per frame kind.
_HEADERS = {kind: {fields: header for header, fields in shapes.items() if "interface" not in fields}
            for kind, shapes in _SHAPES.items()}


def _wire_base(value: Any) -> type:
    for wire_type in _WIRE_BASES:
        if isinstance(value, wire_type):
            return wire_type
    raise TransportError(
        f"value of type {type(value).__name__} is not a wire value; "
        "marshal it before handing it to a transport"
    )


def _unfit(error: BaseException, writing: bool) -> TransportError:
    """The TransportError standing for what Python raised on a stream not in the format."""
    if isinstance(error, RecursionError):
        return TransportError("value is nested too deeply for the binary wire format")
    if writing:
        return TransportError(f"value does not fit the binary wire format: {error}")
    if isinstance(error, UnicodeDecodeError):
        return TransportError(f"binary message carries invalid UTF-8: {error}")
    return TransportError("truncated binary message")


def encode_value(value: Any, alignment: int = 1) -> bytes:
    """Encode one wire value as a tagged stream with the given alignment."""
    buffer = bytearray()
    write = _writer(buffer, alignment)
    try:
        write(value, type(value), None, write)
    except _WRITE_ERRORS as error:
        raise _unfit(error, True) from None
    return bytes(buffer)


def decode_value(payload: bytes, alignment: int = 1, marshaller: Any = None) -> Any:
    """Decode the single value a stream from :func:`encode_value` carries
    (given a ``marshaller``, a tree, into the live value it stands for)."""
    try:
        value, offset = _reader(payload, alignment, marshaller)(0, marshaller is not None)
    except _READ_ERRORS as error:
        raise _unfit(error, False) from None
    if offset != len(payload):  # past the end only where the last string was sliced short
        raise TransportError("truncated binary message" if offset > len(payload)
                             else "trailing bytes after the binary message")
    return value


def _packers(buffer: bytearray, alignment: int) -> tuple:
    """``(tag_uint32, tag_int32, tag_int64, tag_float64, key_length)``, padded for
    ``buffer``'s end."""
    if alignment <= 1:
        return _PACKED
    align4, align8 = min(4, alignment), min(8, alignment)
    return (lambda tag, number: _TAG_UINT32[-(len(buffer) + 1) % align4].pack(tag, number),
            lambda tag, number: _TAG_INT32[-(len(buffer) + 1) % align4].pack(tag, number),
            lambda tag, number: _TAG_INT64[-(len(buffer) + 1) % align8].pack(tag, number),
            lambda tag, number: _TAG_FLOAT64[-(len(buffer) + 1) % align8].pack(tag, number),
            lambda number: _PADS[-len(buffer) % align4] + _UINT32.pack(number))


def _writer(buffer: bytearray, alignment: int) -> Any:
    """The walk over ``buffer``: ``write(value, type(value), None, write)`` appends a wire value
    or a Live marker's tree (handed itself: a closure naming itself is a reference cycle)."""
    tag_uint32, tag_int32, tag_int64, tag_float64, key_length = _packers(buffer, alignment)
    key_heads = ({}, {}, {}, {})  # a map key's head and bytes, by stream offset mod 4

    def write(value: Any, kind: type, marshaller: Any, write: Any) -> None:
        """Append ``value``: a wire value, or a live one given its marshaller."""
        nonlocal buffer
        if kind is str:
            data = value.encode()
            buffer += tag_uint32(_TAG_STR, len(data)) + data
        elif kind is list or (kind is tuple and marshaller is None):
            buffer += tag_uint32(_TAG_LIST, len(value))
            for item in value:
                item_kind = type(item)
                if item_kind is str:  # the most frequent leaf, written in place
                    data = item.encode()
                    buffer += tag_uint32(_TAG_STR, len(data)) + data
                else:
                    write(item, item_kind, marshaller, write)
        elif kind is int:
            # The 32-bit bounds as literals: constants, not global lookups, per int.
            buffer += (tag_int32(_TAG_SMALL_INT, value) if -0x80000000 <= value <= 0x7FFFFFFF
                       else tag_int64(_TAG_INT, value))
        elif kind is dict:
            if marshaller is not None and Tree.KIND in value:  # the tree escapes this map
                wire = marshaller.to_wire(value)
                write(wire, type(wire), None, write)
                return
            buffer += tag_uint32(_TAG_MAP, len(value))
            for key, item in value.items():
                heads = key_heads[len(buffer) & 3]
                head = heads.get(key)
                if head is None:
                    if not isinstance(key, str):
                        raise (TransportError if marshaller is None else SerializationError)(
                            f"map keys must be strings, got {type(key).__name__}"
                        )
                    data = key.encode()
                    head = heads[key] = key_length(len(data)) + data
                buffer += head
                item_kind = type(item)
                if item_kind is str:
                    data = item.encode()
                    buffer += tag_uint32(_TAG_STR, len(data)) + data
                else:
                    write(item, item_kind, marshaller, write)
        elif kind is float:
            buffer += tag_float64(_TAG_FLOAT, value)
        elif value is None:
            buffer.append(_TAG_NONE)
        elif kind is bool:
            buffer.append(_TAG_TRUE if value else _TAG_FALSE)
        elif kind is Live:
            try:
                write(value.value, type(value.value), value.marshaller, write)
            except (struct.error, OverflowError, UnicodeEncodeError):
                value.to_wire()  # a value that cannot be marshalled says so first
                raise
        elif marshaller is None:  # a subclass travels as the wire type it extends
            write(value, _wire_base(value), None, write)
        elif isinstance(value, (dict, list)):  # a live map or list of another type
            write(value, dict if isinstance(value, dict) else list, marshaller, write)
        else:
            wire = marshaller.to_wire(value)
            write(wire, type(wire), None, write)

    return write


def _reader(payload: bytes, alignment: int, marshaller: Any) -> Any:
    """The walk over ``payload``: ``walk(offset, live)`` is the value at ``offset`` — a wire
    value, or if ``live`` a tree's live value — and its end (``read`` is handed itself too)."""
    offset = 0
    aligned = alignment > 1
    align4, align8 = min(4, alignment), min(8, alignment)
    uint32, int32, int64 = _UINT32.unpack_from, _INT32.unpack_from, _INT64.unpack_from
    float64 = _FLOAT64.unpack_from
    tree_kind = Tree.KIND

    def read(live: bool, read: Any) -> Any:
        nonlocal offset
        tag = payload[offset]
        start = offset + 1
        if tag == _TAG_STR:
            if aligned:
                start += -start % align4
            offset = start + 4 + uint32(payload, start)[0]
            return payload[start + 4 : offset].decode()
        if tag == _TAG_LIST:
            if aligned:
                start += -start % align4
            offset = start + 4
            count = uint32(payload, start)[0]
            return list(map(read, repeat(live, count), repeat(read, count)))
        if tag == _TAG_SMALL_INT:
            if aligned:
                start += -start % align4
            offset = start + 4
            return int32(payload, start)[0]
        if tag == _TAG_INT:
            if aligned:
                start += -start % align8
            offset = start + 8
            return int64(payload, start)[0]
        if tag == _TAG_MAP:
            at = offset
            if aligned:
                start += -start % align4
            offset = start + 4
            result = {}
            for _ in range(uint32(payload, start)[0]):
                key, offset = _read_key(payload, offset, align4)
                if live and key == tree_kind:  # a tree or an escaped map: read whole
                    offset = at
                    return marshaller.from_wire(read(False, read))
                result[key] = read(live, read)
            return result
        if tag == _TAG_FLOAT:
            if aligned:
                start += -start % align8
            offset = start + 8
            return float64(payload, start)[0]
        if tag > _TAG_FALSE:
            raise TransportError(f"unknown wire tag {tag}")
        offset = start
        return _SINGLETONS[tag]

    def walk(at: int, live: bool) -> tuple:
        nonlocal offset
        offset = at
        return read(live, read), offset

    return walk


def _read_key(payload: bytes, offset: int, align4: int) -> tuple:
    """The map key at ``offset`` and the offset where it ends."""
    start = offset + -offset % align4
    end = start + 4 + _UINT32.unpack_from(payload, start)[0]
    return payload[start + 4 : end].decode(), end


class BinaryTransport(Transport):
    """A binary protocol as a description over the shared value codec.

    Subclasses set ``name``, ``processing_overhead``, ``alignment`` and the
    message-type code of each frame kind, and say how their header is packed
    in front of an encoded body and checked and stripped off a received
    payload.  The description lives in class attributes, so an instance needs
    no ``__init__``.

    A batch frame's body is the list of its messages as one tagged value (one
    stream, so one alignment run: the framing cost is paid once per batch); a
    single frame's body is its one message, bare.  In both, a message of one
    of its kind's shapes is a positional record and any other a keyed map;
    given a marshaller, the live values are read in the same pass.
    """

    #: Alignment of 4- and 8-byte primitives in the body (1 = packed).
    alignment: int = 1
    #: The protocol's message-type code per frame kind.
    message_types: Dict[str, int]

    @abc.abstractmethod
    def pack_header(self, message_type: int, body: bytes) -> bytes:
        """The protocol header that precedes ``body``."""

    @abc.abstractmethod
    def open_header(self, payload: bytes, expected_type: int) -> bytes:
        """Check the header of ``payload`` and return the body behind it."""

    def encode_frame(self, kind: str, messages: list) -> bytes:
        buffer, alignment, headers, write = bytearray(), self.alignment, _HEADERS[kind], None
        try:
            tag_uint32, tag_int32, tag_int64, tag_float64, key_length = _packers(buffer, alignment)
            if kind in BATCH_KINDS:
                buffer += tag_uint32(_TAG_LIST, len(messages))
            for message in messages if kind in BATCH_KINDS else messages[:1]:
                if type(message) is not dict or (header := headers.get(tuple(message))) is None:
                    write = write or _writer(buffer, alignment)  # a keyed map, or no map
                    write(message, type(message), None, write)
                    continue
                buffer += tag_uint32(_TAG_RECORD, header)
                for field in message.values():
                    cls = type(field)
                    if cls is str:  # the most frequent field, written in place
                        data = field.encode()
                        buffer += tag_uint32(_TAG_STR, len(data)) + data
                        continue
                    # One loop writes any other leaf, or each leaf of a list or map.
                    keyed = cls is dict
                    if keyed or cls is list:
                        buffer += tag_uint32(_TAG_MAP if keyed else _TAG_LIST, len(field))
                    for item in field.items() if keyed else field if cls is list else (field,):
                        if keyed:
                            key, item = item
                            if type(key) is not str:
                                raise TransportError(
                                    f"map keys must be strings, got {type(key).__name__}")
                            data = key.encode()
                            buffer += key_length(len(data)) + data
                        cls = type(item)
                        if cls is str:
                            data = item.encode()
                            buffer += tag_uint32(_TAG_STR, len(data)) + data
                        elif cls is int:
                            buffer += (tag_int32(_TAG_SMALL_INT, item)
                                       if -0x80000000 <= item <= 0x7FFFFFFF
                                       else tag_int64(_TAG_INT, item))
                        elif cls is float:
                            buffer += tag_float64(_TAG_FLOAT, item)
                        elif item is None:
                            buffer.append(_TAG_NONE)
                        elif cls is bool:
                            buffer.append(_TAG_TRUE if item else _TAG_FALSE)
                        else:
                            write = write or _writer(buffer, alignment)
                            write(item, cls, None, write)
        except _WRITE_ERRORS as error:
            raise _unfit(error, True) from None
        return self.pack_header(self.message_types[kind], buffer) + buffer

    def read_frame(self, kind: str, payload: bytes, marshaller: Any = None) -> list:
        payload = self.open_header(payload, self.message_types[kind])
        alignment, batch, shapes = self.alignment, kind in BATCH_KINDS, _SHAPES[kind]
        align4, align8 = min(4, alignment), min(8, alignment)
        aligned, live, uint32 = alignment > 1, marshaller is not None, _UINT32.unpack_from
        messages, offset, count, walk = [], 0, 1, None
        try:
            if batch and payload[0] != _TAG_LIST:
                raise TransportError("binary batch did not contain a list")
            if batch:
                offset = 5 + -1 % align4  # past the list's tag and count
                count = uint32(payload, offset - 4)[0]
            for _ in range(count):
                tag, start = payload[offset], offset + 1
                if tag != _TAG_RECORD and tag != _TAG_MAP:
                    walk = walk or _reader(payload, alignment, marshaller)
                    message, offset = walk(offset, False)
                    messages.append(message)
                    continue
                if aligned:
                    start += -start % align4
                offset, size, message = start + 4, uint32(payload, start)[0], {}
                # A record names its fields by position; a keyed map before each value.
                fields = shapes.get(size) if tag == _TAG_RECORD else repeat(None, size)
                if fields is None:
                    raise TransportError(f"a record header {size} in a {kind} frame "
                                         f"(its shapes are {', '.join(map(str, sorted(shapes)))})")
                for key in fields:
                    if key is None:
                        key, offset = _read_key(payload, offset, align4)
                    tag, start = payload[offset], offset + 1
                    if tag == _TAG_STR:  # the most frequent field, read in place
                        if aligned:
                            start += -start % align4
                        offset = start + 4 + uint32(payload, start)[0]
                        message[key] = payload[start + 4 : offset].decode()
                        continue
                    # One loop reads another leaf, or each leaf of a list or map (not a tree).
                    keyed = tag == _TAG_MAP and not (live and key == "result")
                    if keyed or tag == _TAG_LIST:
                        if aligned:
                            start += -start % align4
                        offset, size = start + 4, uint32(payload, start)[0]
                        field = {} if keyed else []
                    else:
                        size, field = 1, None
                    for _ in range(size):
                        if keyed:
                            name, offset = _read_key(payload, offset, align4)
                        tag, start = payload[offset], offset + 1
                        if tag == _TAG_STR:
                            if aligned:
                                start += -start % align4
                            offset = start + 4 + uint32(payload, start)[0]
                            item = payload[start + 4 : offset].decode()
                        elif tag == _TAG_SMALL_INT:
                            if aligned:
                                start += -start % align4
                            offset = start + 4
                            item = _INT32.unpack_from(payload, start)[0]
                        elif tag == _TAG_INT or tag == _TAG_FLOAT:
                            if aligned:
                                start += -start % align8
                            offset = start + 8
                            item = (_INT64 if tag == _TAG_INT else _FLOAT64).unpack_from(
                                payload, start)[0]
                        elif tag <= _TAG_FALSE:
                            offset, item = start, _SINGLETONS[tag]
                        else:  # a nested value, or a tree under "result": the walk's
                            walk = walk or _reader(payload, alignment, marshaller)
                            item, offset = walk(offset, live and (
                                key == "kwargs" if keyed else key in ("args", "result")))
                        if keyed:
                            field[name] = item
                        elif field is None:
                            field = item
                        else:
                            field.append(item)
                    message[key] = field
                messages.append(message)
        except _READ_ERRORS as error:
            raise _unfit(error, False) from None
        if offset != len(payload):  # past the end only where the last string was sliced short
            raise TransportError("truncated binary message" if offset > len(payload)
                                 else "trailing bytes after the binary message")
        return messages

    decode_frame = read_frame
