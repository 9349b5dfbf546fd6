"""The one binary value codec, and the transport base class built on it.

The RMI-like and CORBA-like transports both need a compact binary encoding of
the wire-value domain (None, bool, int, float, str, list, dict).  This module
is that encoding, once: a tag-length-value stream whose only parameter is the
``alignment`` of its primitives (CORBA's CDR aligns 4- and 8-byte values to
their natural boundaries; the RMI-like stream is packed), so the two protocols
share every line of value handling while producing different bytes.

* :func:`encode_value` / :func:`decode_value` — round-trip ONE wire value.
  Dispatch is on the exact type, most frequent first; subclasses (an
  ``IntEnum``, an ``OrderedDict``, a tuple) fall back to an ``isinstance``
  ladder and travel as their base type::

      assert decode_value(encode_value([1, "two", None])) == [1, "two", None]
      assert encode_value(True) == b"\\x01"               # a tag, not an int
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

Every failure — a value outside the wire domain, an integer beyond 64 bits,
a truncated or over-long stream, an unknown tag, invalid UTF-8, nesting deeper
than the interpreter's stack — raises :class:`~repro.api.errors.TransportError`.

:class:`BinaryTransport` holds the frame encoder and decoder of a binary
protocol; a concrete protocol (``rmi.py``, ``corba.py``) is a description
over it: name, alignment, a message-type code per frame kind, how its header
is packed and opened, and its ``processing_overhead``.
"""

from __future__ import annotations

import abc
import struct
from struct import Struct
from typing import Any, Dict

from repro._errors import TransportError
from repro.transports.base import BATCH_KINDS, Transport

_TAG_NONE = 0
_TAG_TRUE = 1
_TAG_FALSE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_LIST = 6
_TAG_MAP = 7
_SINGLETONS = (None, True, False)  # by tag

_UINT32 = Struct("!I")
_INT64 = Struct("!q")
_FLOAT64 = Struct("!d")
# One pack call writes a tag, the pad up to the value's boundary and the
# value; the index is the pad length (always 0 in a packed stream).
_TAG_UINT32 = tuple(Struct(f"!B{pad}xI") for pad in range(4))
_TAG_INT64 = tuple(Struct(f"!B{pad}xq") for pad in range(8))
_TAG_FLOAT64 = tuple(Struct(f"!B{pad}xd") for pad in range(8))
_PADS = tuple(bytes(pad) for pad in range(4))

#: The subclass fallback, in the order the wire domain is tested: what an
#: instance of a *subclass* of a wire type travels as.
_WIRE_BASES = (int, float, str, list, tuple, dict)


def _wire_base(value: Any) -> type:
    for base in _WIRE_BASES:
        if isinstance(value, base):
            return base
    raise TransportError(
        f"value of type {type(value).__name__} is not a wire value; "
        "marshal it before handing it to a transport"
    )


def encode_value(value: Any, alignment: int = 1) -> bytes:
    """Encode one wire value as a tagged stream with the given alignment."""
    buffer = bytearray()
    if alignment > 1:
        align4, align8 = min(4, alignment), min(8, alignment)

        def tag_uint32(tag: int, number: int) -> bytes:
            return _TAG_UINT32[-(len(buffer) + 1) % align4].pack(tag, number)

        def tag_int64(tag: int, number: int) -> bytes:
            return _TAG_INT64[-(len(buffer) + 1) % align8].pack(tag, number)

        def tag_float64(tag: int, number: float) -> bytes:
            return _TAG_FLOAT64[-(len(buffer) + 1) % align8].pack(tag, number)

        def key_length(number: int) -> bytes:
            return _PADS[-len(buffer) % align4] + _UINT32.pack(number)

    else:
        tag_uint32, tag_int64, tag_float64 = (
            _TAG_UINT32[0].pack, _TAG_INT64[0].pack, _TAG_FLOAT64[0].pack,
        )
        key_length = _UINT32.pack

    def write(value: Any, kind: type) -> None:
        nonlocal buffer
        if kind is str:
            data = value.encode()
            buffer += tag_uint32(_TAG_STR, len(data)) + data
        elif kind is list or kind is tuple:
            buffer += tag_uint32(_TAG_LIST, len(value))
            for item in value:
                item_kind = type(item)
                if item_kind is str:  # the most frequent leaf, written in place
                    data = item.encode()
                    buffer += tag_uint32(_TAG_STR, len(data)) + data
                else:
                    write(item, item_kind)
        elif kind is int:
            buffer += tag_int64(_TAG_INT, value)
        elif kind is dict:
            buffer += tag_uint32(_TAG_MAP, len(value))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TransportError(
                        f"wire map keys must be strings, got {type(key).__name__}"
                    )
                data = key.encode()
                buffer += key_length(len(data)) + data
                item_kind = type(item)
                if item_kind is str:
                    data = item.encode()
                    buffer += tag_uint32(_TAG_STR, len(data)) + data
                else:
                    write(item, item_kind)
        elif kind is float:
            buffer += tag_float64(_TAG_FLOAT, value)
        elif value is None:
            buffer.append(_TAG_NONE)
        elif kind is bool:
            buffer.append(_TAG_TRUE if value else _TAG_FALSE)
        else:  # a subclass travels as the wire type it extends
            write(value, _wire_base(value))

    try:
        write(value, type(value))
        return bytes(buffer)
    except (struct.error, OverflowError, UnicodeEncodeError) as exc:
        raise TransportError(f"value does not fit the binary wire format: {exc}") from None
    except RecursionError:
        raise TransportError("value is nested too deeply for the binary wire format") from None
    finally:
        # ``write`` names itself, which is a reference cycle: unhooked here,
        # the buffer is freed on return instead of at the next GC pass.
        write = None


def decode_value(payload: bytes, alignment: int = 1) -> Any:
    """Decode the single value a stream from :func:`encode_value` carries."""
    offset = 0
    aligned = alignment > 1
    align4, align8 = min(4, alignment), min(8, alignment)
    uint32, int64, float64 = _UINT32.unpack_from, _INT64.unpack_from, _FLOAT64.unpack_from

    def read() -> Any:
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
            if count == 2:  # every Marshaller map entry is a [key, value] pair
                return [read(), read()]
            return [read() for _ in range(count)]
        if tag == _TAG_INT:
            if aligned:
                start += -start % align8
            offset = start + 8
            return int64(payload, start)[0]
        if tag == _TAG_MAP:
            if aligned:
                start += -start % align4
            offset = start + 4
            result = {}
            for _ in range(uint32(payload, start)[0]):
                start = offset + -offset % align4 if aligned else offset
                offset = start + 4 + uint32(payload, start)[0]
                key = payload[start + 4 : offset].decode()
                result[key] = read()
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

    try:
        value = read()
    except (struct.error, IndexError):
        raise TransportError("truncated binary message") from None
    except UnicodeDecodeError as exc:
        raise TransportError(f"binary message carries invalid UTF-8: {exc}") from None
    except RecursionError:
        raise TransportError("binary message is nested too deeply") from None
    finally:
        read = None  # same cycle as in encode_value; it would pin the payload
    if offset > len(payload):
        # A string longer than the rest of the stream was sliced short, and
        # every read after it fails; only the last value gets this far.
        raise TransportError("truncated binary message")
    if offset < len(payload):
        raise TransportError("trailing bytes after the binary message")
    return value


class BinaryTransport(Transport):
    """A binary protocol as a description over the shared value codec.

    Subclasses set ``name``, ``processing_overhead``, ``alignment`` and the
    message-type code of each frame kind, and say how their header is packed
    in front of an encoded body and checked and stripped off a received
    payload.  The description lives in class attributes, so an instance needs
    no ``__init__``.

    A batch frame's body is the list of its messages as one tagged value (one
    stream, so one alignment run: the framing cost is paid once per batch); a
    single frame's body is its one message, bare.
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
        body = encode_value(messages if kind in BATCH_KINDS else messages[0], self.alignment)
        return self.pack_header(self.message_types[kind], body) + body

    def decode_frame(self, kind: str, payload: bytes) -> list:
        value = decode_value(
            self.open_header(payload, self.message_types[kind]), self.alignment
        )
        if kind not in BATCH_KINDS:
            return [value]
        if type(value) is not list:
            raise TransportError("binary batch did not contain a list")
        return value
