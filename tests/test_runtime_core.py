"""Unit tests for remote references, invocation messages and the naming service."""

from __future__ import annotations

import pytest

from repro.api.errors import NamingError
from repro.runtime.invocation import InvocationRequest, InvocationResponse
from repro.runtime.naming import NamingService
from repro.runtime.remote_ref import ObjectIdAllocator, RemoteRef, reference_of


class TestObjectIdAllocator:
    def test_ids_are_unique_and_deterministic(self):
        allocator = ObjectIdAllocator("node-1")
        first, second = allocator.allocate(), allocator.allocate()
        assert first == "node-1:1"
        assert second == "node-1:2"

    def test_different_nodes_never_collide(self):
        a = ObjectIdAllocator("a").allocate()
        b = ObjectIdAllocator("b").allocate()
        assert a != b


class TestRemoteRef:
    def _ref(self) -> RemoteRef:
        return RemoteRef("server:7", "server", "Cache_O_Int")

    def test_wire_round_trip(self):
        ref = self._ref()
        assert RemoteRef.from_wire(ref.to_wire()) == ref

    def test_wire_form_is_tagged(self):
        wire = self._ref().to_wire()
        assert RemoteRef.is_wire_ref(wire)
        assert not RemoteRef.is_wire_ref({"object_id": "x"})
        assert not RemoteRef.is_wire_ref("server:7")

    def test_located_on(self):
        ref = self._ref()
        assert ref.located_on("server")
        assert not ref.located_on("client")

    def test_with_node_rewrites_location(self):
        moved = self._ref().with_node("backup")
        assert moved.node_id == "backup"
        assert moved.object_id == "server:7"

    def test_refs_are_hashable_value_objects(self):
        assert self._ref() == self._ref()
        assert len({self._ref(), self._ref()}) == 1

    def test_reference_of_plain_object_is_none(self):
        assert reference_of(object()) is None


class TestInvocationMessages:
    def test_request_dict_round_trip(self):
        request = InvocationRequest("server:1", "Y_O_Int", "n", [3], {"named": True})
        assert InvocationRequest.from_dict(request.to_dict()) == request

    def test_request_defaults(self):
        request = InvocationRequest.from_dict({"target": "t", "interface": "I", "member": "m"})
        assert request.args == [] and request.kwargs == {}

    def test_successful_response_round_trip(self):
        response = InvocationResponse.for_result(41)
        decoded = InvocationResponse.from_dict(response.to_dict())
        assert not decoded.is_error
        assert decoded.result == 41

    def test_error_response_round_trip(self):
        response = InvocationResponse.for_exception(KeyError("missing"))
        decoded = InvocationResponse.from_dict(response.to_dict())
        assert decoded.is_error
        assert decoded.error_type == "KeyError"
        assert "missing" in decoded.error_message

    def test_none_result_is_not_an_error(self):
        decoded = InvocationResponse.from_dict(InvocationResponse.for_result(None).to_dict())
        assert not decoded.is_error
        assert decoded.result is None


class TestNamingService:
    def _ref(self, name: str = "obj") -> RemoteRef:
        return RemoteRef(f"server:{name}", "server", "Cache_O_Int")

    def test_bind_and_lookup(self):
        naming = NamingService()
        naming.bind("cache", self._ref())
        assert naming.lookup("cache") == self._ref()
        assert "cache" in naming
        assert len(naming) == 1

    def test_double_bind_is_rejected(self):
        naming = NamingService()
        naming.bind("cache", self._ref())
        with pytest.raises(NamingError):
            naming.bind("cache", self._ref("other"))

    def test_rebind_replaces(self):
        naming = NamingService()
        naming.bind("cache", self._ref())
        naming.rebind("cache", self._ref("other"))
        assert naming.lookup("cache").object_id == "server:other"

    def test_lookup_unknown_name_raises(self):
        with pytest.raises(NamingError):
            NamingService().lookup("ghost")

    def test_maybe_lookup_returns_none(self):
        assert NamingService().maybe_lookup("ghost") is None

    def test_unbind(self):
        naming = NamingService()
        naming.bind("cache", self._ref())
        naming.unbind("cache")
        assert "cache" not in naming
        with pytest.raises(NamingError):
            naming.unbind("cache")

    def test_names_listing(self):
        naming = NamingService()
        naming.bind("a", self._ref("a"))
        naming.bind("b", self._ref("b"))
        assert naming.names() == {"a", "b"}
