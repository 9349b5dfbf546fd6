"""Regression tests for the invocation message types.

Covers the error-response asymmetry fix — ``InvocationResponse.from_dict``
must tolerate missing ``"error"`` keys and reject malformed payloads with a
typed :class:`~repro.api.errors.TransportError` instead of ``KeyError`` /
``AttributeError`` — plus the dictionary forms of the batch messages.
"""

from __future__ import annotations

import pytest

from repro.api.errors import TransportError
from repro.runtime.invocation import (
    InvocationBatch,
    InvocationBatchResponse,
    InvocationRequest,
    InvocationResponse,
)


class TestResponseFromDict:
    def test_success_payload(self):
        response = InvocationResponse.from_dict({"result": 5})
        assert not response.is_error
        assert response.result == 5

    def test_missing_error_and_result_keys_is_a_none_result(self):
        response = InvocationResponse.from_dict({})
        assert not response.is_error
        assert response.result is None

    def test_error_none_means_success(self):
        response = InvocationResponse.from_dict({"error": None, "result": 3})
        assert not response.is_error
        assert response.result == 3

    def test_error_payload(self):
        response = InvocationResponse.from_dict(
            {"error": {"type": "KeyError", "message": "missing"}}
        )
        assert response.is_error
        assert response.error_type == "KeyError"
        assert response.error_message == "missing"

    def test_error_with_missing_fields_gets_defaults(self):
        response = InvocationResponse.from_dict({"error": {}})
        assert response.is_error
        assert response.error_type == "Exception"
        assert response.error_message == ""

    @pytest.mark.parametrize("payload", [None, [], "oops", 7, {"result": 1, "x": 2}.keys()])
    def test_non_dict_payload_raises_typed_error(self, payload):
        with pytest.raises(TransportError):
            InvocationResponse.from_dict(payload)

    @pytest.mark.parametrize("error", ["boom", 13, ["type", "message"], True])
    def test_non_dict_error_raises_typed_error(self, error):
        with pytest.raises(TransportError):
            InvocationResponse.from_dict({"error": error})

    def test_round_trip_through_dict_form(self):
        for response in (
            InvocationResponse.for_result([1, 2]),
            InvocationResponse.for_exception(ValueError("bad")),
        ):
            again = InvocationResponse.from_dict(response.to_dict())
            assert again.is_error == response.is_error
            assert again.result == response.result
            assert again.error_type == response.error_type


class TestBatchMessages:
    def _requests(self, count=3):
        return [
            InvocationRequest(f"server:{i}", "I", "m", [i], {"k": i})
            for i in range(count)
        ]

    def test_batch_dict_round_trip(self):
        batch = InvocationBatch(self._requests())
        again = InvocationBatch.from_dicts(batch.to_dicts())
        assert len(again) == 3
        assert [r.target_id for r in again] == ["server:0", "server:1", "server:2"]
        assert [r.args for r in again] == [[0], [1], [2]]

    def test_batch_response_dict_round_trip_and_error_count(self):
        responses = InvocationBatchResponse(
            [
                InvocationResponse.for_result(1),
                InvocationResponse.for_exception(KeyError("x")),
            ]
        )
        again = InvocationBatchResponse.from_dicts(responses.to_dicts())
        assert len(again) == 2
        assert again.error_count == 1
        assert not again.responses[0].is_error
        assert again.responses[1].error_type == "KeyError"

    @pytest.mark.parametrize("payload", [None, {}, "not-a-list", 4])
    def test_batch_from_non_list_raises_typed_error(self, payload):
        with pytest.raises(TransportError):
            InvocationBatch.from_dicts(payload)
        with pytest.raises(TransportError):
            InvocationBatchResponse.from_dicts(payload)

    def test_batch_response_with_malformed_item_raises_typed_error(self):
        with pytest.raises(TransportError):
            InvocationBatchResponse.from_dicts([{"error": "not-a-dict"}])
