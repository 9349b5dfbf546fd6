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

* Live values, in the same walk: :func:`encode_value` writes a
  :class:`~repro.transports.base.Live` marker's tree bytes straight from the
  value (tree heads, pair heads, leaves in place; the Marshaller only asked
  for references, bytes, sets and primitive subclasses), and given a
  ``marshaller`` :func:`decode_value` reads them straight back.

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
import functools
import struct
from struct import Struct
from typing import Any, Dict

from repro._errors import SerializationError, TransportError
from repro.transports.base import BATCH_KINDS, Live, Transport, Tree

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

#: How :func:`_decode` reads a value: as a wire value (``None``), as a tree's
#: live value (``_LIVE``), or as an envelope around live values — (how a list's
#: items are read, how a map's values are by key, how its other values are).
_LIVE = "live"
_PLAIN = (None, {}, None)
_MESSAGE = (None, {"args": (_LIVE, {}, None), "kwargs": (None, {}, _LIVE), "result": _LIVE}, None)
_MESSAGES = (_MESSAGE, {}, None)


def _wire_base(value: Any) -> type:
    for base in _WIRE_BASES:
        if isinstance(value, base):
            return base
    raise TransportError(
        f"value of type {type(value).__name__} is not a wire value; "
        "marshal it before handing it to a transport"
    )


@functools.lru_cache(maxsize=None)
def _tree_layout(alignment: int) -> tuple:
    """The tree's fixed bytes at stream offset ``r`` mod 4, as encode_value writes them:
    ``heads[r][dict|list|tuple]`` up to a node's item count, ``pairs[r]`` to a key's length."""
    heads, pairs = [None] * 4, [None] * 4
    for lead in ("", "a", "ab", "abc"):  # puts what follows at each offset mod 4
        offset = len(encode_value([lead], alignment))
        heads[offset & 3] = {
            kind: encode_value([lead, {Tree.KIND: name, Tree.ITEMS: []}], alignment)[offset:-4]
            for kind, name in ((dict, Tree.MAP), (list, Tree.LIST), (tuple, Tree.TUPLE))
        }
        pairs[offset & 3] = encode_value([lead, ["", None]], alignment)[offset:-5]
    return heads, pairs


def encode_value(value: Any, alignment: int = 1) -> bytes:
    """Encode one wire value as a tagged stream with the given alignment."""
    buffer = bytearray()
    uint32 = _UINT32.pack
    heads = pairs = None  # the tree layout, looked up at the first Live marker
    if alignment > 1:
        align4, align8 = min(4, alignment), min(8, alignment)

        def tag_uint32(tag: int, number: int) -> bytes:
            return _TAG_UINT32[-(len(buffer) + 1) % align4].pack(tag, number)

        def tag_int64(tag: int, number: int) -> bytes:
            return _TAG_INT64[-(len(buffer) + 1) % align8].pack(tag, number)

        def tag_float64(tag: int, number: float) -> bytes:
            return _TAG_FLOAT64[-(len(buffer) + 1) % align8].pack(tag, number)

        def key_length(number: int) -> bytes:
            return _PADS[-len(buffer) % align4] + uint32(number)

    else:
        tag_uint32, tag_int64, tag_float64 = (
            _TAG_UINT32[0].pack, _TAG_INT64[0].pack, _TAG_FLOAT64[0].pack,
        )
        key_length = uint32

    def write(value: Any, kind: type, marshaller: Any) -> None:
        """Append ``value``: a wire value, or a live one given its marshaller."""
        nonlocal buffer, heads, pairs
        if kind is str:
            data = value.encode()
            buffer += tag_uint32(_TAG_STR, len(data)) + data
        elif kind is list or kind is tuple:
            buffer += (tag_uint32(_TAG_LIST, len(value)) if marshaller is None
                       else heads[len(buffer) & 3][kind] + uint32(len(value)))
            for item in value:
                item_kind = type(item)
                if item_kind is str:  # the most frequent leaf, written in place
                    data = item.encode()
                    buffer += tag_uint32(_TAG_STR, len(data)) + data
                else:
                    write(item, item_kind, marshaller)
        elif kind is int:
            buffer += tag_int64(_TAG_INT, value)
        elif kind is dict:
            buffer += (tag_uint32(_TAG_MAP, len(value)) if marshaller is None
                       else heads[len(buffer) & 3][dict] + uint32(len(value)))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise (TransportError if marshaller is None else SerializationError)(
                        f"map keys must be strings, got {type(key).__name__}"
                    )
                data = key.encode()
                buffer += (key_length(len(data)) if marshaller is None
                           else pairs[len(buffer) & 3] + uint32(len(data))) + data
                item_kind = type(item)
                if item_kind is str:
                    data = item.encode()
                    buffer += tag_uint32(_TAG_STR, len(data)) + data
                else:
                    write(item, item_kind, marshaller)
        elif kind is float:
            buffer += tag_float64(_TAG_FLOAT, value)
        elif value is None:
            buffer.append(_TAG_NONE)
        elif kind is bool:
            buffer.append(_TAG_TRUE if value else _TAG_FALSE)
        elif kind is Live:
            if heads is None:
                heads, pairs = _tree_layout(alignment)
            try:
                write(value.value, type(value.value), value.marshaller)
            except (struct.error, OverflowError, UnicodeEncodeError):
                value.to_wire()  # a value that cannot be marshalled says so first
                raise
        elif marshaller is None:  # a subclass travels as the wire type it extends
            write(value, _wire_base(value), None)
        # A live value of another type, in Marshaller.to_wire's order:
        elif isinstance(value, (dict, list, tuple)):
            write(value, next(b for b in (dict, list, tuple) if isinstance(value, b)), marshaller)
        else:
            wire = marshaller.to_wire(value)
            write(wire, type(wire), None)

    try:
        write(value, type(value), None)
        return bytes(buffer)
    except (struct.error, OverflowError, UnicodeEncodeError) as exc:
        raise TransportError(f"value does not fit the binary wire format: {exc}") from None
    except RecursionError:
        raise TransportError("value is nested too deeply for the binary wire format") from None
    finally:
        # ``write`` names itself, which is a reference cycle: unhooked here,
        # the buffer is freed on return instead of at the next GC pass.
        write = None


def decode_value(payload: bytes, alignment: int = 1, marshaller: Any = None) -> Any:
    """Decode the single value a stream from :func:`encode_value` carries
    (given a ``marshaller``, a tree, into the live value it stands for)."""
    return _decode(payload, alignment, marshaller, None if marshaller is None else _LIVE)


def _decode(payload: bytes, alignment: int, marshaller: Any, how: Any) -> Any:
    offset = 0
    aligned = alignment > 1
    align4, align8 = min(4, alignment), min(8, alignment)
    uint32, int64, float64 = _UINT32.unpack_from, _INT64.unpack_from, _FLOAT64.unpack_from
    startswith = payload.startswith
    heads, pairs = _tree_layout(alignment) if marshaller is not None else (None, None)

    def read(how: Any) -> Any:
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
            if how is not None and how is not _LIVE:
                how = how[0]
            if count == 2:  # every Marshaller map entry is a [key, value] pair
                return [read(how), read(how)]
            return [read(how) for _ in range(count)]
        if tag == _TAG_INT:
            if aligned:
                start += -start % align8
            offset = start + 8
            return int64(payload, start)[0]
        if tag == _TAG_MAP:
            if how is _LIVE:
                return read_tree(offset)
            if aligned:
                start += -start % align4
            offset = start + 4
            _, fields, other = how or _PLAIN
            result = {}
            for _ in range(uint32(payload, start)[0]):
                start = offset + -offset % align4 if aligned else offset
                offset = start + 4 + uint32(payload, start)[0]
                key = payload[start + 4 : offset].decode()
                result[key] = read(fields[key] if key in fields else other)
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

    def read_tree(at: int) -> Any:
        """The live value of the tree whose map starts at ``at``."""
        nonlocal offset
        for kind, head in heads[at & 3].items():
            if startswith(head, at):
                offset = at + len(head) + 4
                count = uint32(payload, offset - 4)[0]
                if kind is not dict:
                    items = [read(_LIVE) for _ in range(count)]
                    return items if kind is list else tuple(items)
                result = {}
                for _ in range(count):
                    pair = pairs[offset & 3]
                    if not startswith(pair, offset):
                        break
                    start = offset + len(pair)
                    offset = start + 4 + uint32(payload, start)[0]
                    key = payload[start + 4 : offset].decode()
                    result[key] = read(_LIVE)
                else:
                    return result
                break
        offset = at  # not the layout Marshaller.to_wire writes: the tree as it is
        return marshaller.from_wire(read(None))

    try:
        value = read(how)
    except (struct.error, IndexError):
        raise TransportError("truncated binary message") from None
    except UnicodeDecodeError as exc:
        raise TransportError(f"binary message carries invalid UTF-8: {exc}") from None
    except RecursionError:
        raise TransportError("binary message is nested too deeply") from None
    finally:
        read = read_tree = None  # same cycle as in encode_value; it would pin the payload
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
    single frame's body is its one message, bare.  Given a marshaller, the
    live values are read in the same pass.
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

    def read_frame(self, kind: str, payload: bytes, marshaller: Any = None) -> list:
        batch = kind in BATCH_KINDS
        how = None if marshaller is None else _MESSAGES if batch else _MESSAGE
        body = self.open_header(payload, self.message_types[kind])
        value = _decode(body, self.alignment, marshaller, how)
        if not batch:
            return [value]
        if type(value) is not list:
            raise TransportError("binary batch did not contain a list")
        return value

    decode_frame = read_frame
