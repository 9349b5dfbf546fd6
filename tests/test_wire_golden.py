"""Golden wire bytes: every transport's frames, pinned to the byte.

``golden_wire.json`` holds the hex of each frame below as the encoders
produce it, so a codec change that moves a single byte (a pad, a tag, a
length) fails here rather than in a simulated-clock number three layers up.
Three sections hold frames of the same messages as written before, read
only: each must still read to its message as it was written, and be served as
the current frame is.  ``full_ids`` holds every transport's frames from before
a request's target was the serving node's object key (``server:12``, not
``12``) and before ints that fit in 32 bits went out in 4 bytes (tag 9: every
int took 8).  ``keyed`` and ``named_records`` hold rmi and corba frames from
before that too, when every request named its interface and carried its
kwargs, empty or not: ``keyed`` from before messages became positional
records (every message a keyed map), ``named_records`` positional records of
five or six fields.  The fixed message set covers the
whole wire-value domain — the strings, int64 edges, floats and containers
the codec special-cases — plus one order twice: in the tagged tree form
(``{"__kind__": "map", "items": [[key, value], ...]}``, every list tagged too)
that the Marshaller wrote before plain containers, which every decoder must
still read, and as the plain map ``Marshaller.to_wire`` writes now, which is
what the ledger's ``batch_payload`` workload ships (the ``plain_order_*``
cases).

Regenerate (only when the wire format is *meant* to change) with
``PYTHONPATH=src:tests python tests/test_wire_golden.py``; the three earlier
sections are carried over as they are.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

import matrix
from repro.api.errors import SerializationError, TransportError
from repro.runtime.cluster import Cluster
from repro.runtime.invocation import read_request
from repro.runtime.serialization import Marshaller
from repro.transports import base, codec

GOLDEN_PATH = Path(__file__).with_name("golden_wire.json")

ORDER = {
    "customer": "Zoë ✓",
    "priority": True,
    "notes": None,
    "lines": [
        {
            "sku": f"sku-{index:03d}",
            "quantity": index + 1,
            "unit_price": (index * 37 % 500) / 4.0,
            "tags": ["x" * (index % 3), "𝄞"],
        }
        for index in range(16)
    ],
}


def _tagged(value):
    """``value`` in the tree form that tagged every container: a map as its
    ``[key, value]`` pairs, a list under ``items``."""
    if isinstance(value, dict):
        return {"__kind__": "map", "items": [[key, _tagged(item)] for key, item in value.items()]}
    if isinstance(value, list):
        return {"__kind__": "list", "items": [_tagged(item) for item in value]}
    return value


WIRE_ORDER = _tagged(ORDER)
PLAIN_ORDER = Marshaller(None).to_wire(ORDER)

REQUEST = {
    "target": "12",
    "member": "submit",
    "args": [
        "", "héllo wörld ✓", "𝄞😀", -(2**63), 2**63 - 1, 0, -0.0, 1e308, None, True, False,
        [], {}, [[], [{}], {"k": [1, [2, {"x": None}]]}],
        WIRE_ORDER,
    ],
    "kwargs": {"overwrite": False, "limit": 10, "note": "ключ"},
    "ctx": {"i": 7, "t": "tenant-a", "d": 1.25, "x": "t42", "p": "s7"},
}
SMALL_REQUEST = {"target": "3", "member": "lookup", "args": ["key-1"]}
RESPONSE = {"result": WIRE_ORDER}
PLAIN_ORDER_REQUEST = {**SMALL_REQUEST, "member": "submit", "args": [PLAIN_ORDER]}
ERROR_RESPONSE = {"error": {"type": "KeyError", "message": "missing ключ 𝄞"}}

#: message name -> (encoder, decoder, message)
CASES = {
    "request": ("encode_request", "decode_request", REQUEST),
    "response": ("encode_response", "decode_response", RESPONSE),
    "error_response": ("encode_response", "decode_response", ERROR_RESPONSE),
    "batch_request": (
        "encode_batch_request", "decode_batch_request", [SMALL_REQUEST, REQUEST, SMALL_REQUEST],
    ),
    "batch_response": (
        "encode_batch_response", "decode_batch_response",
        [{"result": 7}, ERROR_RESPONSE, RESPONSE, {"result": None}],
    ),
    "plain_order_request": ("encode_request", "decode_request", PLAIN_ORDER_REQUEST),
    "plain_order_response": ("encode_response", "decode_response", {"result": PLAIN_ORDER}),
}
TRANSPORTS = {codec.name: codec for codec in matrix.CODECS}
BINARY = matrix.BINARY
#: The node that serves every request here, whose object keys the targets are.
NODE = "server"
#: The golden section of every transport's frames written while a target was
#: a full id and every int took 8 bytes.
FULL_IDS = "full_ids"
#: The golden sections of rmi/corba frames written while requests named their
#: interface: before records, and as records of five or six fields.
KEYED, NAMED_RECORDS = "keyed", "named_records"
EARLIER = (FULL_IDS, KEYED, NAMED_RECORDS)
#: The interface each request's target was named with in those frames.
INTERFACES = {"12": "Orders_O_Int", "3": "Catalog_O_Int"}


def full_id(message):
    """``message`` (or a batch of them) as a request was written while its
    target was the object's full id; a response as it is."""
    if isinstance(message, list):
        return list(map(full_id, message))
    if "member" not in message:
        return message
    return {**message, "target": f"{NODE}:{message['target']}"}


def named(message):
    """``message`` (or a batch of them) as a request was written while it named
    its interface and always carried its kwargs; a response as it is."""
    if isinstance(message, list):
        return list(map(named, message))
    if "member" not in message:
        return message
    old = {"target": f"{NODE}:{message['target']}", "interface": INTERFACES[message["target"]],
           "member": message["member"], "args": message["args"],
           "kwargs": message.get("kwargs", {})}
    if "ctx" in message:
        old["ctx"] = message["ctx"]
    return old


def named_record_frame(transport, kind, message):
    """``message`` framed as a record whose header is its field count, as a
    request naming its interface was (the codec reads such records, never
    writes them)."""
    headers, fields = codec._HEADERS[kind], tuple(message)
    headers[fields] = len(fields)
    try:
        return transport.encode_frame(kind, [message])
    finally:
        del headers[fields]


def served(decoded):
    """What a serving space reads of a decoded request, or batch of them, a
    response kept as it is."""
    messages = decoded if isinstance(decoded, list) else [decoded]
    return [read_request(message, NODE) if "member" in message else message
            for message in messages]


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="ascii"))


def _frames(names=tuple(TRANSPORTS)):
    return [(name, case) for name in names for case in CASES]


def test_the_order_is_marshaller_shaped_and_survives():
    marshaller = Marshaller(None)
    # The Marshaller writes the order as the plain map it is ...
    assert PLAIN_ORDER == ORDER and "__kind__" not in PLAIN_ORDER
    assert type(PLAIN_ORDER["lines"]) is list and len(PLAIN_ORDER["lines"]) >= 16
    assert marshaller.from_wire(PLAIN_ORDER) == ORDER
    # ... and still reads the tagged form it wrote before.
    assert WIRE_ORDER["__kind__"] == "map"
    lines = dict(WIRE_ORDER["items"])["lines"]
    assert lines["__kind__"] == "list" and len(lines["items"]) >= 16
    assert marshaller.from_wire(WIRE_ORDER) == ORDER


@pytest.mark.parametrize("name,case", _frames())
def test_encoders_reproduce_the_golden_bytes(name, case):
    encode, _, message = CASES[case]
    assert getattr(TRANSPORTS[name], encode)(message).hex() == _golden()[name][case]


@pytest.mark.parametrize("name,case", _frames())
def test_decoders_read_the_golden_bytes(name, case):
    _, decode, message = CASES[case]
    decoded = getattr(TRANSPORTS[name], decode)(bytes.fromhex(_golden()[name][case]))
    assert decoded == message
    # ``==`` cannot tell -0.0 from 0.0, True from 1 or a reordered map.
    assert repr(decoded) == repr(message)


#: section -> (the transports it holds frames of, what a message was written as).
WRITTEN_AS = {FULL_IDS: (tuple(TRANSPORTS), full_id), KEYED: (BINARY, named),
              NAMED_RECORDS: (BINARY, named)}


@pytest.mark.parametrize("name,case,section", [
    (name, case, section) for section in EARLIER for name, case in _frames(WRITTEN_AS[section][0])
])
def test_decoders_read_the_earlier_golden_bytes(name, case, section):
    _, decode, message = CASES[case]
    decode = getattr(TRANSPORTS[name], decode)
    earlier = bytes.fromhex(_golden()[section][name][case])
    current = bytes.fromhex(_golden()[name][case])
    assert repr(decode(earlier)) == repr(WRITTEN_AS[section][1](message))
    assert served(decode(earlier)) == served(decode(current))
    live = _live_reader(decode)
    assert repr(served(live(earlier))) == repr(served(live(current)))


@pytest.mark.parametrize("name", BINARY)
def test_a_named_record_has_five_or_six_fields_and_a_current_one_its_shape(name):
    """The ``named_records`` requests are records (tag 8) whose header is their
    field count; the current ones carry the header of their shape."""
    transport = TRANSPORTS[name]
    at = 1 if transport.alignment == 1 else 4  # past the record tag and its pad

    def header(rows, case):
        frame = bytes.fromhex(rows[case])
        body = transport.open_header(frame, transport.message_types[base.REQUEST])
        assert body[0] == 8
        return int.from_bytes(body[at : at + 4], "big")

    cases = ("plain_order_request", "request")  # without ctx, then with it
    assert [header(_golden()[NAMED_RECORDS][name], case) for case in cases] == [5, 6]
    assert [header(_golden()[name], case) for case in cases] == [3, 9]


def _damaged(frame: bytes):
    """Every strict prefix of ``frame``, then every single-byte mutation."""
    for length in range(len(frame)):
        yield frame[:length]
    for position, byte in enumerate(frame):
        # In turn: a neighbouring tag or length, a flipped sign or UTF-8 lead
        # bit, all bits.  The order's 16 lines put every field under each.
        mutant = byte ^ (0x01, 0x80, 0xFF)[position % 3]
        yield frame[:position] + bytes((mutant,)) + frame[position + 1 :]


def _live_reader(decode):
    marshaller = Cluster(("server",)).space("server").marshaller
    return functools.partial(decode, marshaller=marshaller)


#: reader -> (how it wraps a decoder, the errors it may raise on damage).  The
#: tree read returns wire trees; the live read hands them to a marshaller.
READERS = {
    "tree": (lambda decode: decode, (TransportError,)),
    "live": (_live_reader, (TransportError, SerializationError)),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("name,case", _frames(BINARY))
def test_damaged_binary_frames_read_or_raise_typed_errors(name, case, reader):
    """Every strict prefix and every single-byte mutation: a value or one of
    the reader's typed errors — never ``struct.error``, ``IndexError``,
    ``UnicodeDecodeError`` or a silently accepted tail."""
    wrap, allowed = READERS[reader]
    decode = wrap(getattr(TRANSPORTS[name], CASES[case][1]))
    for payload in _damaged(bytes.fromhex(_golden()[name][case])):
        try:
            decode(payload)
        except allowed:
            pass


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                **{
                    name: {
                        case: getattr(transport, encode)(message).hex()
                        for case, (encode, _, message) in CASES.items()
                    }
                    for name, transport in TRANSPORTS.items()
                },
                **{section: _golden()[section] for section in EARLIER},
            },
            indent=1,
        )
        + "\n",
        encoding="ascii",
    )
    print(f"wrote {GOLDEN_PATH}")
