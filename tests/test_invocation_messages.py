"""Regression tests for the message dicts and the two functions that read them.

Covers the error-response asymmetry fix — ``read_response`` must tolerate
missing ``"error"`` keys and reject malformed payloads with a typed
:class:`~repro.api.errors.TransportError` instead of ``KeyError`` /
``AttributeError`` — plus the typed errors for a batch frame that does not
carry a list, and for a message in it that is not a dictionary.
"""

from __future__ import annotations

import json

import pytest

from repro.api.errors import RemoteInvocationError, TransportError
from repro.runtime.cluster import default_transport_registry
from repro.runtime.invocation import read_request, read_response, request_dict, response_dict
from repro.runtime.remote_ref import RemoteRef
from repro.transports.base import BATCH_REQUEST, BATCH_RESPONSE
from repro.transports.codec import encode_value

TRANSPORTS = {transport.name: transport for transport in default_transport_registry()}


class TestResponseFromDict:
    def test_success_payload(self):
        assert read_response({"result": 5}) == (5, None)

    def test_missing_error_and_result_keys_is_a_none_result(self):
        assert read_response({}) == (None, None)

    def test_error_none_means_success(self):
        assert read_response({"error": None, "result": 3}) == (3, None)

    def test_error_payload(self):
        value, error = read_response({"error": {"type": "KeyError", "message": "missing"}})
        assert value is None
        assert isinstance(error, RemoteInvocationError)
        assert error.remote_type == "KeyError"
        assert error.remote_message == "missing"

    def test_error_with_missing_fields_gets_defaults(self):
        _, error = read_response({"error": {}})
        assert error.remote_type == "Exception"
        assert error.remote_message == ""

    @pytest.mark.parametrize("payload", [None, [], "oops", 7, {"result": 1, "x": 2}.keys()])
    def test_non_dict_payload_raises_typed_error(self, payload):
        with pytest.raises(TransportError):
            read_response(payload)

    @pytest.mark.parametrize("error", ["boom", 13, ["type", "message"], True])
    def test_non_dict_error_raises_typed_error(self, error):
        with pytest.raises(TransportError):
            read_response({"error": error})

    def test_round_trip_through_dict_form(self):
        assert read_response(response_dict([1, 2])) == ([1, 2], None)
        _, error = read_response(response_dict(error=ValueError("bad")))
        assert (error.remote_type, error.remote_message) == ("ValueError", "bad")


class TestBatchMessages:
    def _requests(self, count=3):
        return [
            request_dict(RemoteRef(f"server:{i}", "server", "I"), "m", [i], {"k": i}, None)
            for i in range(count)
        ]

    def test_batch_dict_round_trip(self):
        for transport in TRANSPORTS.values():
            again = transport.decode_batch_request(
                transport.encode_batch_request(self._requests())
            )
            fields = [read_request(request, "server") for request in again]
            assert [target for target, *_ in fields] == ["server:0", "server:1", "server:2"]
            assert [args for _, _, args, _, _ in fields] == [[0], [1], [2]]

    def test_batch_response_dict_round_trip_and_error_count(self):
        responses = [response_dict(1), response_dict(error=KeyError("x"))]
        for transport in TRANSPORTS.values():
            again = transport.decode_batch_response(transport.encode_batch_response(responses))
            outcomes = [read_response(response) for response in again]
            assert outcomes[0] == (1, None)
            assert [error is not None for _, error in outcomes] == [False, True]
            assert outcomes[1][1].remote_type == "KeyError"

    @pytest.mark.parametrize("payload", [None, {}, "not-a-list", 4])
    def test_batch_from_non_list_raises_typed_error(self, payload):
        """A well-formed batch frame around something that is not a list."""
        rmi = TRANSPORTS["rmi"]
        for code, decode in (
            (rmi.message_types[BATCH_REQUEST], rmi.decode_batch_request),
            (rmi.message_types[BATCH_RESPONSE], rmi.decode_batch_response),
        ):
            with pytest.raises(TransportError):
                decode(b"JR" + bytes((code,)) + encode_value(payload))
        inproc = TRANSPORTS["inproc"]
        with pytest.raises(TransportError):
            inproc.decode_batch_request(json.dumps({"batch": payload}).encode())
        with pytest.raises(TransportError):
            inproc.decode_batch_response(json.dumps({"responses": payload}).encode())

    def test_batch_response_with_malformed_item_raises_typed_error(self):
        """The transport answers for the frame; a message that is not a dict,
        or whose ``error`` is not one, is refused where it is read."""
        rmi, inproc = TRANSPORTS["rmi"], TRANSPORTS["inproc"]
        for responses in (
            rmi.decode_batch_response(b"JR\x53" + encode_value([{"result": 1}, "not-a-dict"])),
            inproc.decode_batch_response(b'{"responses":[{"result":1},7]}'),
            rmi.decode_batch_response(b"JR\x53" + encode_value([{"result": 1}, {"error": "boom"}])),
        ):
            assert read_response(responses[0]) == (1, None)
            with pytest.raises(TransportError):
                read_response(responses[1])

    @pytest.mark.parametrize("request_", [None, 7, "text", ["target"], {}])
    def test_a_request_that_is_not_a_request_dict_raises_typed_error(self, request_):
        with pytest.raises(TransportError):
            read_request(request_, "server")
