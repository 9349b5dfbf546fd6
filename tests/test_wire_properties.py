"""Property-based round-trip tests for the wire layer.

Every transport must satisfy ``decode(encode(x)) == x`` over the whole
wire-value domain (None, bool, int64, float, str, list, dict) — for single
requests and responses AND for batches — because transport
interchangeability, the paper's central claim, only holds if no protocol is
lossy.  Hypothesis drives the generators; the CORBA cases exercise the CDR
alignment machinery of :mod:`repro.transports.codec` with adversarial
string-length / primitive interleavings.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.transports.codec import decode_value, encode_value
from repro.transports.corba import CorbaTransport
from repro.transports.inproc import InProcTransport
from repro.transports.rmi import RmiTransport
from repro.transports.soap import SoapTransport

ALL_TRANSPORTS = [SoapTransport(), RmiTransport(), CorbaTransport(), InProcTransport()]

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
        "interface": st.text(max_size=20),
        "member": st.text(max_size=20),
        "args": st.lists(wire_values, max_size=4),
        "kwargs": st.dictionaries(st.text(max_size=12), wire_values, max_size=3),
    }
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


@pytest.mark.parametrize("transport", ALL_TRANSPORTS, ids=lambda t: t.name)
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


@pytest.mark.parametrize("transport", ALL_TRANSPORTS, ids=lambda t: t.name)
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
