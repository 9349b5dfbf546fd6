"""Unit tests for the interchangeable transports (SOAP, RMI, CORBA, in-process)."""

from __future__ import annotations

import enum
import gc
from collections import OrderedDict

import pytest

import matrix
from repro.api.errors import TransportError, UnknownTransportError
from repro.runtime.cluster import Cluster
from repro.transports.base import (
    BATCH_REQUEST,
    REQUEST,
    TransportRegistry,
    frame_message,
    unframe_message,
)
from repro.transports.codec import decode_value, encode_value
from repro.transports.corba import CorbaTransport
from repro.transports.inproc import InProcTransport
from repro.transports.rmi import RmiTransport
from repro.transports.soap import SoapTransport

_MARSHALLER = Cluster(("server",)).space("server").marshaller

SAMPLE_REQUEST = {
    "target": "server:12",
    "member": "put",
    "args": ["key-1", 42, 3.5, True, None, [1, 2, 3], {"nested": "map"}],
    "kwargs": {"overwrite": False},
}


@pytest.mark.parametrize("transport", matrix.CODECS, ids=lambda t: t.name)
class TestRoundTrips:
    """What ``test_wire_golden.py``'s frames leave out; a request, a result,
    an error and non-ASCII text round-trip there, bytes pinned both ways."""

    def test_empty_arguments(self, transport):
        request = {"target": "t", "member": "m", "args": []}
        decoded = transport.decode_request(transport.encode_request(request))
        assert decoded == request

    def test_malformed_payload_raises(self, transport):
        with pytest.raises(TransportError):
            transport.decode_request(b"\x00\x01garbage that is not a message")


class TestRelativeCosts:
    """The paper's transports differ in verbosity; the ordering must hold."""

    def test_soap_messages_are_larger_than_binary_ones(self):
        soap = SoapTransport().encode_request(SAMPLE_REQUEST)
        rmi = RmiTransport().encode_request(SAMPLE_REQUEST)
        corba = CorbaTransport().encode_request(SAMPLE_REQUEST)
        assert len(soap) > len(corba) > len(rmi)

    def test_processing_overhead_ordering(self):
        assert SoapTransport().processing_overhead > CorbaTransport().processing_overhead
        assert CorbaTransport().processing_overhead > RmiTransport().processing_overhead
        assert InProcTransport().processing_overhead == 0.0

    def test_message_type_confusion_is_detected(self):
        rmi = RmiTransport()
        request_payload = rmi.encode_request(SAMPLE_REQUEST)
        with pytest.raises(TransportError):
            rmi.decode_response(request_payload)

    def test_corba_header_carries_body_length(self):
        corba = CorbaTransport()
        payload = corba.encode_request(SAMPLE_REQUEST)
        with pytest.raises(TransportError):
            corba.decode_request(payload[:-1])  # truncated body


class _Colour(enum.IntEnum):
    RED = 3


class _Name(str):
    pass


class TestBinaryCodec:
    def test_scalar_round_trips(self):
        for value in (None, True, False, 0, -17, 2**40, 3.25, "text", ""):
            assert decode_value(encode_value(value)) == value

    def test_nested_structures(self):
        value = {"list": [1, [2, {"x": None}]], "flag": True}
        assert decode_value(encode_value(value)) == value

    def test_alignment_round_trip(self):
        value = {"a": 1, "b": [1.5, 2.5], "c": "padded"}
        assert decode_value(encode_value(value, alignment=8), alignment=8) == value

    def test_non_string_map_keys_rejected(self):
        with pytest.raises(TransportError):
            encode_value({1: "x"})

    def test_unmarshallable_python_object_rejected(self):
        with pytest.raises(TransportError):
            encode_value(object())

    def test_truncated_stream_detected(self):
        payload = encode_value({"k": "value"})
        with pytest.raises(TransportError):
            decode_value(payload[:-3])

    @pytest.mark.parametrize("alignment", [1, 8])
    def test_integers_beyond_int64_are_a_typed_error(self, alignment):
        for value in (2**63, -(2**63) - 1, 2**100):
            with pytest.raises(TransportError, match="does not fit"):
                encode_value({"a": value}, alignment=alignment)

    def test_unencodable_text_is_a_typed_error(self):
        with pytest.raises(TransportError, match="does not fit"):
            encode_value("lone surrogate \ud800")

    def test_invalid_utf8_is_a_typed_error(self):
        as_value = bytes.fromhex("0700000001" "00000001" "61" "0500000001" "ff")
        as_key = bytes.fromhex("0700000001" "00000001" "ff" "00")
        for payload in (as_value, as_key):
            with pytest.raises(TransportError, match="invalid UTF-8"):
                decode_value(payload)

    def test_nesting_beyond_the_stack_is_a_typed_error(self):
        depth = 100_000
        nested: list = []
        for _ in range(depth):
            nested = [nested]
        with pytest.raises(TransportError, match="nested too deeply"):
            encode_value(nested)
        with pytest.raises(TransportError, match="nested too deeply"):
            decode_value(bytes.fromhex("0600000001") * depth + b"\x00")

    @pytest.mark.parametrize("transport", matrix.BINARY_CODECS, ids=lambda t: t.name)
    def test_trailing_bytes_are_refused(self, transport):
        payload = transport.encode_request(SAMPLE_REQUEST)
        with pytest.raises(TransportError):
            transport.decode_request(payload + b"\x00")
        with pytest.raises(TransportError, match="trailing bytes"):
            decode_value(encode_value(SAMPLE_REQUEST) + b"\x00")

    @pytest.mark.parametrize("transport", matrix.BINARY_CODECS, ids=lambda t: t.name)
    def test_round_trips_leave_no_cyclic_garbage(self, transport):
        """The reader and writer are self-recursive closures — a reference cycle
        unless unhooked, which would pin every payload until the next GC pass."""
        gc.collect()
        gc.disable()
        try:
            for _ in range(200):
                assert transport.decode_request(transport.encode_request(SAMPLE_REQUEST)) == (
                    SAMPLE_REQUEST
                )
                with pytest.raises(TransportError):
                    transport.decode_request(transport.encode_request(SAMPLE_REQUEST)[:-2])
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "value, decoded, expected_hex",
        [
            (_Colour.RED, 3, "0900000003"),
            (_Name("ab"), "ab", "05000000026162"),
            ({_Name("k"): _Name("v")}, {"k": "v"}, "0700000001000000016b050000000176"),
            (
                OrderedDict([("b", 1), ("a", None)]),
                {"b": 1, "a": None},
                "070000000200000001620900000001000000016100",
            ),
            (
                (1, "x", (None,)),
                [1, "x", [None]],
                "06000000030900000001050000000178060000000100",
            ),
            (True, True, "01"),
            (False, False, "02"),
            (1, 1, "0900000001"),
        ],
        ids=["IntEnum", "str-subclass", "str-subclass-key", "OrderedDict", "tuple",
             "True", "False", "one"],
    )
    def test_subclasses_travel_as_their_base_type(self, value, decoded, expected_hex):
        """Bytes pinned to the ``isinstance`` ladder's output (an int that fits
        in 32 bits in its 4-byte form, tag 9)."""
        assert encode_value(value).hex() == expected_hex
        result = decode_value(bytes.fromhex(expected_hex))
        assert result == decoded and type(result) is type(decoded)

    def test_alignment_pads_after_an_odd_length_string(self):
        # tag, pad to 4, count | tag, pad, length, "abc" | tag, int32 (at 16, no pad)
        aligned = "06000000" "00000002" "05000000" "00000003" "616263" "09" "00000007"
        assert encode_value(["abc", 7], alignment=8).hex() == aligned
        assert decode_value(bytes.fromhex(aligned), alignment=8) == ["abc", 7]
        # Map keys carry no tag: pad to 4, length, bytes.
        aligned_map = (
            "07000000" "00000002" "00000003" "616263" "09" "00000007"
            "00000001" "6b" "04" "000000000000" "3ff8000000000000"
        )
        assert encode_value({"abc": 7, "k": 1.5}, alignment=8).hex() == aligned_map
        assert decode_value(bytes.fromhex(aligned_map), alignment=8) == {"abc": 7, "k": 1.5}


#: An int at each edge of the two widths -> the tag it travels under: 9 (4 bytes)
#: from -2**31 to 2**31 - 1, 3 (8 bytes) outside.
INT_EDGES = {-(2**63): 3, -(2**31) - 1: 3, -(2**31): 9, 2**31 - 1: 9, 2**31: 3, 2**63 - 1: 3}


@pytest.mark.parametrize("value", sorted(INT_EDGES))
@pytest.mark.parametrize("offset", range(8))
@pytest.mark.parametrize("transport", matrix.BINARY_CODECS, ids=lambda t: t.name)
class TestIntWidths:
    """Each int edge behind a string of ``offset`` bytes, so its tag lands at
    every stream offset mod 8, in the packed (rmi) and the aligned (corba)
    stream: the walk's bytes pinned, and the record loop's frames read back."""

    def test_the_walk_writes_the_narrowest_width_aligned_to_itself(
        self, transport, offset, value
    ):
        alignment = transport.alignment
        stream = encode_value(["x" * offset, value], alignment)
        # list tag and count, string tag and length (each count padded to 4 when aligned)
        at = (10 if alignment == 1 else 16) + offset
        tag, width = INT_EDGES[value], 4 if INT_EDGES[value] == 9 else 8
        start = at + 1 + (-(at + 1) % width if alignment > 1 else 0)
        assert stream[at] == tag and stream[at + 1 : start] == bytes(start - at - 1)
        assert len(stream) == start + width
        assert int.from_bytes(stream[start:], "big", signed=True) == value
        assert decode_value(stream, alignment) == ["x" * offset, value]

    def test_a_record_carries_it_in_place_in_lists_in_maps_and_nested(
        self, transport, offset, value
    ):
        request = {"target": "1", "member": "m", "args": ["x" * offset, value, [value, offset]],
                   "kwargs": {"k" * offset: value}, "ctx": {"i": value}}
        for kind, messages in ((REQUEST, [request]), (BATCH_REQUEST, [request, request])):
            frame = transport.encode_frame(kind, messages)
            for marshaller in (None, _MARSHALLER):
                assert repr(transport.read_frame(kind, frame, marshaller)) == repr(messages)

    def test_every_int_still_reads_in_8_bytes(self, transport, offset, value):
        """As every int was written before tag 9 (the golden ``full_ids`` frames)."""
        alignment = transport.alignment
        stream = encode_value(["x" * offset, 2**40], alignment)  # tag 3, 8 bytes last
        stream = stream[:-8] + value.to_bytes(8, "big", signed=True)
        assert decode_value(stream, alignment) == ["x" * offset, value]


class TestRegistryAndFraming:
    def test_registry_lookup(self):
        registry = TransportRegistry(matrix.CODECS)
        assert registry.names() == {"soap", "rmi", "corba", "inproc"}
        assert len(registry) == 4

    def test_unknown_transport_raises_with_available_listing(self):
        registry = TransportRegistry([RmiTransport()])
        with pytest.raises(UnknownTransportError) as excinfo:
            registry.framing("iiop")
        assert "rmi" in str(excinfo.value)

    def test_frame_unframe_round_trip(self):
        framed = frame_message("soap", b"<xml/>")
        assert unframe_message(framed) == ("soap", b"<xml/>")

    def test_frame_preserves_binary_bodies_containing_newlines(self):
        framed = frame_message("rmi", b"line1\nline2")
        name, body = unframe_message(framed)
        assert name == "rmi" and body == b"line1\nline2"

    def test_unframe_rejects_malformed_payload(self):
        with pytest.raises(TransportError):
            unframe_message(b"no-prefix-here")

    def test_a_transport_name_that_is_not_ascii_is_refused_both_ways(self):
        with pytest.raises(TransportError):
            frame_message("rmï", b"body")
        with pytest.raises(TransportError):
            unframe_message("rmï".encode() + b"\nbody")

    def test_soap_rejects_non_wire_values(self):
        with pytest.raises(TransportError):
            SoapTransport().encode_request({"target": "t", "member": "m", "args": [object()], "kwargs": {}})
