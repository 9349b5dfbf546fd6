"""Property-based round-trip tests for the wire layer.

Every transport must satisfy ``decode(encode(x)) == x`` over the whole
wire-value domain (None, bool, int64, float, str, list, dict) — for single
requests and responses AND for batches — because transport
interchangeability, the paper's central claim, only holds if no protocol is
lossy.  Hypothesis drives the generators; the CORBA cases exercise the CDR
alignment machinery of :mod:`repro.transports.codec` with adversarial
string-length / primitive interleavings.  The binary codec's one pass from
live values to bytes and back must equal the Marshaller's tree walked by the
wire codec, byte for byte and value for value, and so must the records rmi and
corba write and read their messages as.  Containers travel as plain maps and
lists on every transport, in both directions: a user map shaped like a tree
arrives as that map, what the tree tags keeps its reading, and the tagged form
the Marshaller wrote before still reads live.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import matrix
import sample_app
import test_wire_golden as golden
from repro.api.errors import SerializationError, TransportError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import place_classes_on
from repro.runtime.cluster import Cluster
from repro.runtime.invocation import read_request
from repro.runtime.serialization import Marshaller
from repro.transports.base import (
    BATCH_KINDS,
    BATCH_REQUEST,
    BATCH_RESPONSE,
    REQUEST,
    RESPONSE,
    Live,
    frame_message,
    frame_prefix,
)
from repro.transports.codec import decode_value, encode_value


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- the wire-value domain ---------------------------------------------------
#
# Integers are bounded to int64 (the binary codec packs them as ``!q``);
# floats exclude NaN (NaN != NaN breaks equality, not the codecs); text
# excludes surrogates (not UTF-8-encodable) but deliberately includes
# control characters, XML metacharacters and astral-plane symbols.

wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=True),
    st.text(max_size=40),
)

wire_values = st.recursive(
    wire_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=12), children, max_size=4),
    ),
    max_leaves=12,
)

request_dicts = st.fixed_dictionaries(
    {
        "target": st.text(max_size=20),
        "member": st.text(max_size=20),
        "args": st.lists(wire_values, max_size=4),
    },
    optional={
        "kwargs": st.dictionaries(st.text(max_size=12), wire_values, max_size=3),
        # An empty ctx is never written (request_dict leaves it out), and SOAP drops it.
        "ctx": st.dictionaries(st.text(max_size=3), wire_values, min_size=1, max_size=3),
    },
)

response_dicts = st.one_of(
    st.fixed_dictionaries({"result": wire_values}),
    st.fixed_dictionaries(
        {
            "error": st.fixed_dictionaries(
                {"type": st.text(max_size=20), "message": st.text(max_size=60)}
            )
        }
    ),
)


# -- single messages ---------------------------------------------------------


@pytest.mark.parametrize("transport", matrix.CODECS, ids=lambda t: t.name)
class TestSingleMessageProperties:
    @_SETTINGS
    @given(request=request_dicts)
    def test_request_round_trip(self, transport, request):
        assert transport.decode_request(transport.encode_request(request)) == request

    @_SETTINGS
    @given(response=response_dicts)
    def test_response_round_trip(self, transport, response):
        assert transport.decode_response(transport.encode_response(response)) == response


# -- batches -----------------------------------------------------------------


@pytest.mark.parametrize("transport", matrix.CODECS, ids=lambda t: t.name)
class TestBatchProperties:
    @_SETTINGS
    @given(requests=st.lists(request_dicts, max_size=5))
    def test_batch_request_round_trip(self, transport, requests):
        payload = transport.encode_batch_request(requests)
        assert transport.decode_batch_request(payload) == requests

    @_SETTINGS
    @given(responses=st.lists(response_dicts, max_size=5))
    def test_batch_response_round_trip(self, transport, responses):
        payload = transport.encode_batch_response(responses)
        assert transport.decode_batch_response(payload) == responses

    @_SETTINGS
    @given(requests=st.lists(request_dicts, min_size=1, max_size=3))
    def test_batch_order_is_preserved(self, transport, requests):
        decoded = transport.decode_batch_request(transport.encode_batch_request(requests))
        assert [r["member"] for r in decoded] == [r["member"] for r in requests]


# -- CDR alignment edge cases ------------------------------------------------


class TestCdrAlignmentProperties:
    """The CORBA path pads primitives to natural boundaries; padding must be
    transparent no matter how string lengths shift the stream offset."""

    @_SETTINGS
    @given(value=wire_values)
    def test_aligned_codec_round_trip(self, value):
        message = {"v": value}
        assert decode_value(encode_value(message, alignment=8), alignment=8) == message

    @_SETTINGS
    @given(
        prefix=st.text(max_size=9),
        numbers=st.lists(
            st.one_of(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.floats(allow_nan=False),
            ),
            max_size=6,
        ),
    )
    def test_odd_length_strings_before_aligned_primitives(self, prefix, numbers):
        """Strings of arbitrary byte length force every possible misalignment
        ahead of 4- and 8-byte primitives."""
        message = {"prefix": prefix, "numbers": numbers, "tail": prefix + "x"}
        assert decode_value(encode_value(message, alignment=8), alignment=8) == message

    @_SETTINGS
    @given(messages=st.lists(st.fixed_dictionaries({"s": st.text(max_size=7), "f": st.floats(allow_nan=False)}), max_size=5))
    def test_aligned_batch_round_trip(self, messages):
        """Batch items share one alignment stream; each item must still decode."""
        payload = encode_value(messages, alignment=8)
        assert decode_value(payload, alignment=8) == messages

    @_SETTINGS
    @given(depth_seed=st.lists(st.text(max_size=3), min_size=1, max_size=5))
    def test_nested_containers_keep_alignment_transparent(self, depth_seed):
        """Containers nest the stream deeper while padding accumulates."""
        value: object = 3.5
        for text in depth_seed:
            value = {"k" + text: [value, text, 7]}
        message = {"v": value}
        assert decode_value(encode_value(message, alignment=8), alignment=8) == message


# -- one pass from live values to bytes, and back ------------------------------
#
# Live values the Marshaller sends: the leaves at their edges (int64 limits,
# -0.0, infinities, astral and lone-surrogate text — the last cannot be
# encoded either way), bytes, sets and frozensets, an IntEnum, tuples,
# OrderedDicts, list and tuple subclasses and non-string keys (which cannot
# be marshalled either way), nested; and a leaf wrapped eight deep.


class Colour(IntEnum):
    RED = 1
    BLUE = 2


class Row(list):
    pass


class Pair(tuple):
    pass


_hashable = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4))

live_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([-0.0, float("inf"), float("-inf")]),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.sampled_from(["𝄞😀", "lone \ud800", "\udfff"]),
    st.binary(max_size=8),
    st.sampled_from(list(Colour)),
    st.sets(_hashable, max_size=3),
    st.frozensets(_hashable, max_size=3),
)


def _containers(children):
    items = st.lists(children, max_size=3)
    entries = st.dictionaries(st.text(max_size=6), children, max_size=3)
    return st.one_of(
        items, items.map(tuple), items.map(Row), items.map(Pair),
        entries, entries.map(OrderedDict),
        st.dictionaries(st.integers(0, 3), children, min_size=1, max_size=2),
    )


live_values = st.recursive(live_leaves, _containers, max_leaves=12)
_WRAPS = (
    lambda v: [v], lambda v: (v,), lambda v: Row([v]), lambda v: Pair((v,)),
    lambda v: {"k": v}, lambda v: OrderedDict(k=v),
)


def _nested(leaf_and_wraps):
    value, wraps = leaf_and_wraps
    for wrap in wraps:
        value = wrap(value)
    return value


deep_values = st.tuples(
    live_leaves, st.lists(st.sampled_from(_WRAPS), min_size=8, max_size=8)
).map(_nested)


def _same(left, right):
    """Equal, and of the same types all the way down (``==`` alone cannot tell
    -0.0 from 0.0, True from 1 or a tuple from a list)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(_same, left, right))
    if isinstance(left, dict):
        return list(left) == list(right) and all(_same(left[key], right[key]) for key in left)
    if isinstance(left, float):
        return repr(left) == repr(right)
    return left == right


@pytest.mark.parametrize("alignment", [1, 8])
class TestOnePassProperties:
    @_SETTINGS
    @given(value=st.one_of(live_values, deep_values))
    def test_live_bytes_are_the_trees_and_read_back_as_from_wire_reads_it(
        self, alignment, value
    ):
        marshaller = Marshaller(None)  # the values hold no references
        try:
            tree = encode_value(marshaller.to_wire(value), alignment)
        except (SerializationError, TransportError) as error:
            with pytest.raises(type(error)):
                encode_value(Live(value, marshaller), alignment)
            return
        assert encode_value(Live(value, marshaller), alignment) == tree
        assert _same(
            decode_value(tree, alignment, marshaller=marshaller),
            marshaller.from_wire(decode_value(tree, alignment)),
        )


# -- records read as the keyed walk form does -----------------------------------
#
# rmi and corba write a message whose keys are one of its kind's shapes as a
# positional record (no field names, leaves in place) and hand anything else
# to the walk as a keyed map.  Whatever the frame — requests with leaf, nested
# and Live arguments, with and without kwargs and ctx; results, trees and
# errors; unknown, misplaced and non-string keys; messages that are not dicts;
# batches mixing them — it is written exactly when the walk can write its
# messages, and it reads to the message as the walk reads it back, with the
# Marshaller applied where the frames read live.  So does the keyed walk form
# of the same messages (every rmi/corba frame written before records).

_MARSHALLER = Marshaller(None)  # the values hold no references
_FIELDS = ("target", "interface", "member", "args", "kwargs", "ctx", "result", "error", "type",
           "message")


def _tree(value):
    try:
        return _MARSHALLER.to_wire(value)
    except SerializationError:
        return None


#: Live values that marshal, so that a frame carrying them is written and read.
_marshallable = st.recursive(
    st.one_of(wire_scalars, st.binary(max_size=4), st.sampled_from(list(Colour)),
              st.frozensets(st.integers(-3, 3), max_size=2)),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=6,
)
_arguments = st.one_of(
    wire_scalars, wire_values,
    st.one_of(_marshallable, live_values).map(lambda value: Live(value, _MARSHALLER)),
)
_record_messages = st.one_of(
    st.fixed_dictionaries(
        {
            "target": st.text(max_size=8),
            "member": st.text(max_size=8),
            "args": st.lists(_arguments, max_size=3),
        },
        optional={
            "kwargs": st.dictionaries(st.text(max_size=6), _arguments, max_size=2),
            "ctx": st.dictionaries(st.text(max_size=3), wire_values, max_size=3),
        },
    ),
    st.fixed_dictionaries(  # as a request was written while it named its interface
        {
            "target": st.text(max_size=8),
            "interface": st.text(max_size=8),
            "member": st.text(max_size=8),
            "args": st.lists(_arguments, max_size=3),
            "kwargs": st.dictionaries(st.text(max_size=6), _arguments, max_size=2),
        },
        optional={"ctx": st.dictionaries(st.text(max_size=3), wire_values, max_size=3)},
    ),
    st.fixed_dictionaries({"result": st.one_of(wire_values, live_values.map(_tree))}),
    response_dicts,
    wire_values,  # not a dict
    st.dictionaries(st.one_of(st.sampled_from(_FIELDS), st.text(max_size=4)), wire_values,
                    max_size=4),
    st.dictionaries(st.integers(0, 3), wire_values, min_size=1, max_size=2),
)


def _walked(body, alignment, batch, marshaller):
    """The walk's reading of a body, with the Marshaller applied where the records read live."""
    value = decode_value(body, alignment)
    messages = value if batch else [value]
    if marshaller is None:
        return messages
    read = []
    for message in messages:
        if type(message) is dict:
            message = dict(message)
            for key, field in message.items():
                if key == "args" and type(field) is list:
                    message[key] = [marshaller.from_wire(item) for item in field]
                elif key == "kwargs" and type(field) is dict:
                    message[key] = {name: marshaller.from_wire(item) for name, item in field.items()}
                elif key == "result":
                    message[key] = marshaller.from_wire(field)
        read.append(message)
    return read


def _same_outcome(expected, actual):
    """Run both; the same value (``_same``) or the same exception type."""
    try:
        wanted = expected()
    except (SerializationError, TransportError) as error:
        with pytest.raises(type(error)) as raised:
            actual()
        assert type(raised.value) is type(error)
        return None
    got = actual()
    assert _same(got, wanted)
    return got


@pytest.mark.parametrize("transport", matrix.BINARY_CODECS, ids=lambda t: t.name)
class TestRecordProperties:
    @settings(_SETTINGS, max_examples=120)
    @given(
        kind=st.sampled_from([REQUEST, RESPONSE, BATCH_REQUEST, BATCH_RESPONSE]),
        messages=st.lists(_record_messages, min_size=1, max_size=4),
    )
    def test_a_frame_and_its_keyed_walk_form_read_to_the_message(
        self, transport, kind, messages
    ):
        batch = kind in BATCH_KINDS
        messages = messages if batch else messages[:1]
        alignment = transport.alignment
        try:
            keyed = encode_value(messages if batch else messages[0], alignment)
        except (SerializationError, TransportError) as error:
            with pytest.raises(type(error)) as raised:
                transport.encode_frame(kind, messages)
            assert type(raised.value) is type(error)
            return
        header = transport.pack_header(transport.message_types[kind], keyed)
        frame = transport.encode_frame(kind, messages)
        for marshaller in (None, _MARSHALLER):
            for payload in (frame, header + keyed):
                _same_outcome(
                    lambda: _walked(keyed, alignment, batch, marshaller),
                    lambda: transport.read_frame(kind, payload, marshaller),
                )


#: The first tag of a message's body: a positional record, a keyed map.
RECORD_TAG, MAP_TAG = 8, 7
SMALL = golden.SMALL_REQUEST
KWARGS, CTX = {"limit": 10}, {"i": 7, "t": "tenant-a"}
#: Each request shape, and its record header: the field count, plus 4 with ctx.
SHAPES = {
    "no kwargs or ctx": (SMALL, 3),
    "kwargs": ({**SMALL, "kwargs": KWARGS}, 4),
    "ctx": ({**SMALL, "ctx": CTX}, 8),
    "kwargs and ctx": ({**SMALL, "kwargs": KWARGS, "ctx": CTX}, 9),
}
#: Requests that are no record shape: they travel keyed, as every request did before.
KEYED_REQUESTS = {
    "member missing": {key: value for key, value in SMALL.items() if key != "member"},
    "permuted": dict(reversed(SMALL.items())),
    "ctx before kwargs": {**SMALL, "ctx": CTX, "kwargs": KWARGS},
    "extra key": {**SMALL, "extra": 1},
    "ctx and an extra key": {**SMALL, "ctx": CTX, "extra": None},
    "named interface": golden.named(SMALL),
}


def _body(transport, kind, messages):
    frame = transport.encode_frame(kind, messages)
    return transport.open_header(frame, transport.message_types[kind])


def _count_at(transport):
    """Where the body's first record header or map count starts (after the tag and its pad)."""
    return 4 if transport.alignment > 1 else 1


def _verdict(request):
    try:
        return read_request(request, "server")
    except TransportError as error:
        return type(error)


@pytest.mark.parametrize("transport", matrix.BINARY_CODECS, ids=lambda t: t.name)
class TestRecordShapes:
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_a_request_of_each_shape_travels_as_a_record_with_its_own_header(
        self, transport, shape
    ):
        message, header = SHAPES[shape]
        body = _body(transport, REQUEST, [message])
        start = _count_at(transport)
        assert body[0] == RECORD_TAG and int.from_bytes(body[start : start + 4], "big") == header
        assert b"target" not in body and b"kwargs" not in body and b"Catalog" not in body
        decoded = transport.decode_request(transport.encode_request(message))
        assert repr(decoded) == repr(message)
        assert _verdict(decoded) == _verdict(message)

    def test_a_result_travels_as_a_record_and_an_error_keyed(self, transport):
        assert _body(transport, RESPONSE, [{"result": [1, "x"]}])[0] == RECORD_TAG
        error = golden.ERROR_RESPONSE
        assert _body(transport, RESPONSE, [error])[0] == MAP_TAG
        responses = [{"result": None}, error, {"result": 1, "extra": 2}]
        assert transport.decode_batch_response(transport.encode_batch_response(responses)) == (
            responses
        )

    @pytest.mark.parametrize("case", sorted(KEYED_REQUESTS))
    def test_a_request_of_no_shape_travels_keyed_and_reads_as_before(self, transport, case):
        message = KEYED_REQUESTS[case]
        assert _body(transport, REQUEST, [message])[0] == MAP_TAG
        for decoded in (
            transport.decode_request(transport.encode_request(message)),
            transport.decode_batch_request(transport.encode_batch_request([SMALL, message]))[1],
        ):
            assert repr(decoded) == repr(message)
            assert _verdict(decoded) == _verdict(message)
        assert (_verdict(message) is TransportError) == (case == "member missing")
        if case == "named interface":
            assert _verdict(message) == _verdict(SMALL)

    @pytest.mark.parametrize("kind,message,headers", [
        (REQUEST, SMALL, (0, 1, 2, 7, 10, 2**32 - 1)),
        (RESPONSE, {"result": "x"}, (0, 2, 3, 5, 6)),
    ], ids=["request", "response"])
    def test_a_record_header_that_is_no_shape_of_its_kind_is_a_transport_error(
        self, transport, kind, message, headers
    ):
        body, start = _body(transport, kind, [message]), _count_at(transport)
        code = transport.message_types[kind]
        for header in headers:
            bad = body[:start] + header.to_bytes(4, "big") + body[start + 4 :]
            for marshaller in (None, _MARSHALLER):
                with pytest.raises(TransportError, match="record header"):
                    transport.read_frame(kind, transport.pack_header(code, bad) + bad, marshaller)

    @pytest.mark.parametrize("kind", [REQUEST, BATCH_REQUEST])
    def test_a_record_naming_its_interface_reads_by_its_five_or_six_fields(self, transport, kind):
        """A record written while a request named its interface has its field
        count as its header: 5 is never read as the shape ``(target, member,
        args, kwargs, ctx)``, and 6 is read too."""
        for message, header in ((SMALL, 5), ({**SMALL, "ctx": CTX}, 6)):
            old = golden.named(message)
            frame = golden.named_record_frame(transport, kind, old)
            if kind == REQUEST:
                body = transport.open_header(frame, transport.message_types[kind])
                start = _count_at(transport)
                assert body[0] == RECORD_TAG
                assert int.from_bytes(body[start : start + 4], "big") == header
            for marshaller in (None, _MARSHALLER):
                (decoded,) = transport.read_frame(kind, frame, marshaller)
                assert repr(decoded) == repr(old)
                assert _verdict(decoded) == _verdict(message)


# -- containers on every transport, both ways -----------------------------------
#
# A call carries its argument to a keeper on the server and gets it back as
# the result, over each transport in a single-call and a batch frame.  The
# client and the server share a transformed application, so a map misread as
# a reference would arrive as the keeper itself or as a proxy.


class Keeper:
    """Keeps each argument it is handed and hands it back."""

    def __init__(self):
        self.kept = []

    def keep(self, value):
        self.kept.append(value)
        return value


def _keeper_cluster():
    app = ApplicationTransformer(place_classes_on({})).transform(
        [sample_app.X, sample_app.Y, sample_app.Z]
    )
    cluster = Cluster(("client", "server"))
    app.deploy(cluster, default_node="client")
    keeper = Keeper()
    return cluster, keeper, cluster.space("server").export(keeper)


def _kept_and_returned(transport, framing, build):
    """``build(reference)`` sent to the keeper: what was sent, what arrived
    there and what came back."""
    cluster, keeper, reference = _keeper_cluster()
    client, value = cluster.space("client"), build(reference)
    if framing == "single":
        result = client.invoke_remote(reference, "keep", (value,), transport=transport)
    else:
        (outcome,) = client.invoke_remote_many(
            [(reference, "keep", (value,), {})], transport=transport
        )
        result = outcome.unwrap()
    (argument,) = keeper.kept
    return value, argument, result


def _shaped_like(reference):
    """A user map with the keys and values of ``reference``'s wire form."""
    return {
        "__kind__": "ref", "object_id": reference.object_id,
        "node_id": reference.node_id, "interface": reference.interface_name,
    }


@pytest.mark.parametrize("framing", ["single", "batch"])
@pytest.mark.parametrize("transport", matrix.TRANSPORTS)
class TestContainersOnEveryTransport:
    @pytest.mark.parametrize("build", [
        _shaped_like,
        lambda reference: {"ref": _shaped_like(reference), "tree": {"__kind__": "list"}},
        lambda reference: [_shaped_like(reference), {"__kind__": "map", "items": [["a", 1]]}],
    ], ids=["bare", "in_a_map", "in_a_list"])
    def test_a_user_map_shaped_like_a_tree_arrives_as_that_map(self, transport, framing, build):
        sent, argument, result = _kept_and_returned(transport, framing, build)
        assert _same(argument, sent) and _same(result, sent)

    def test_what_the_tree_tags_keeps_its_reading_inside_a_plain_map(self, transport, framing):
        sent = {
            "tuple": (1, "a", None), "frozenset": frozenset({1, 2}), "bytes": b"\x00\xff",
            "intenum": Colour.BLUE, "ordered": OrderedDict(b=[1], a=(2,)),
        }
        # A frozenset reads as a set, an IntEnum as its int and an OrderedDict
        # as a dict in its order, as they did when every container was tagged.
        read = {
            "tuple": (1, "a", None), "frozenset": {1, 2}, "bytes": b"\x00\xff",
            "intenum": 2, "ordered": {"b": [1], "a": (2,)},
        }
        _, argument, result = _kept_and_returned(transport, framing, lambda reference: sent)
        assert _same(argument, read) and _same(result, read)

    def test_the_tagged_form_of_an_order_still_reads_live(self, transport, framing):
        cluster, keeper, reference = _keeper_cluster()
        codec = cluster.space("server").transports.framing(transport).transport
        request = {
            "target": reference.object_id, "interface": reference.interface_name,
            "member": "keep", "args": [golden.WIRE_ORDER], "kwargs": {},
        }
        response = {"result": golden.WIRE_ORDER}
        marshaller = cluster.space("client").marshaller
        if framing == "single":
            payload = frame_message(transport, codec.encode_request(request))
            read = codec.decode_response(codec.encode_response(response), marshaller=marshaller)
        else:
            payload = frame_prefix(transport, batch=True) + codec.encode_batch_request([request])
            (read,) = codec.decode_batch_response(codec.encode_batch_response([response]),
                                                  marshaller=marshaller)
        cluster.network.send_request("client", "server", payload)
        assert _same(keeper.kept, [golden.ORDER])
        assert _same(read["result"], golden.ORDER)
