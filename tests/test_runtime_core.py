"""Unit tests for remote references, invocation messages and the naming service."""

from __future__ import annotations

import pytest

from repro.api.errors import NamingError, RemoteInvocationError
from repro.runtime.invocation import read_request, read_response, request_dict, response_dict
from repro.runtime.naming import NamingService
from repro.runtime.remote_ref import ObjectIdAllocator, RemoteRef, reference_of
from repro.runtime.serialization import Marshaller
from repro.transports.base import Tree


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
        assert wire[Tree.KIND] == Tree.REF
        assert Marshaller(None).from_wire({"object_id": "x"}) == {"object_id": "x"}

    def test_located_on(self):
        ref = self._ref()
        assert ref.located_on("server")
        assert not ref.located_on("client")

    def test_refs_are_hashable_value_objects(self):
        assert self._ref() == self._ref()
        assert len({self._ref(), self._ref()}) == 1

    def test_reference_of_plain_object_is_none(self):
        assert reference_of(object()) is None


class TestInvocationMessages:
    REFERENCE = RemoteRef("server:1", "server", "Y_O_Int")

    def test_request_dict_round_trip(self):
        request = request_dict(self.REFERENCE, "n", [3], {"named": True}, {"i": 4})
        assert list(request) == ["target", "member", "args", "kwargs", "ctx"]
        assert read_request(request, "server") == ("server:1", "n", [3], {"named": True}, {"i": 4})

    def test_an_empty_context_and_empty_kwargs_stay_off_the_wire(self):
        for context in (None, {}):
            request = request_dict(self.REFERENCE, "n", [], {}, context)
            assert list(request) == ["target", "member", "args"]
            assert read_request(request, "server") == ("server:1", "n", [], {}, None)

    def test_a_request_naming_its_interface_reads_as_one_that_does_not(self):
        """A request decoded from a frame written when requests named their
        interface: the name is not read, an empty kwargs is no kwargs."""
        old = {"target": "server:1", "interface": "Y_O_Int", "member": "n", "args": [3],
               "kwargs": {}}
        assert read_request(old, "server") == read_request(
            request_dict(self.REFERENCE, "n", [3], {}, None), "server")

    def test_a_request_names_its_target_by_the_key_on_its_node(self):
        request = request_dict(self.REFERENCE, "n", [], {}, None)
        assert request["target"] == self.REFERENCE.key == "1"
        assert read_request(request, "server")[0] == "server:1"

    @pytest.mark.parametrize("reference", [
        RemoteRef("server:1", "other", "I"),      # moved: its id names another node
        RemoteRef("serverx:1", "server", "I"),    # a node that is a prefix of another
        RemoteRef("server:1:2", "server", "I"),   # a key with a colon in it
        RemoteRef("server:", "server", "I"),      # no key at all
    ], ids=["other node", "longer node", "colon in key", "empty key"])
    def test_an_id_that_does_not_start_with_its_node_travels_whole(self, reference):
        request = request_dict(reference, "n", [], {}, None)
        assert request["target"] == reference.key == reference.object_id
        assert read_request(request, reference.node_id)[0] == reference.object_id

    def test_a_reference_travelling_as_a_value_keeps_its_full_id_and_node(self):
        reference = self.REFERENCE
        assert reference.key == "1"
        request = request_dict(reference, "n", [reference.to_wire()], {}, None)
        (wire,) = read_request(request, "server")[2]
        assert RemoteRef.from_wire(wire) == reference
        assert (wire["object_id"], wire["node_id"]) == ("server:1", "server")

    def test_successful_response_round_trip(self):
        assert read_response(response_dict(41)) == (41, None)

    def test_error_response_round_trip(self):
        value, error = read_response(response_dict(error=KeyError("missing")))
        assert value is None
        assert isinstance(error, RemoteInvocationError)
        assert error.remote_type == "KeyError"
        assert "missing" in error.remote_message

    def test_none_result_is_not_an_error(self):
        assert read_response(response_dict(None)) == (None, None)


class TestNamingService:
    def _ref(self, name: str = "obj") -> RemoteRef:
        return RemoteRef(f"server:{name}", "server", "Cache_O_Int")

    def test_bind_and_lookup(self):
        naming = NamingService()
        naming.rebind("cache", self._ref())
        assert naming.lookup("cache") == self._ref()
        assert "cache" in naming
        assert naming.names() == {"cache"}

    def test_rebind_replaces(self):
        naming = NamingService()
        naming.rebind("cache", self._ref())
        naming.rebind("cache", self._ref("other"))
        assert naming.lookup("cache").object_id == "server:other"

    def test_lookup_unknown_name_raises(self):
        with pytest.raises(NamingError):
            NamingService().lookup("ghost")

    def test_maybe_lookup_returns_none(self):
        assert NamingService().maybe_lookup("ghost") is None

    def test_unbind(self):
        naming = NamingService()
        naming.rebind("cache", self._ref())
        naming.unbind("cache")
        assert "cache" not in naming
        with pytest.raises(NamingError):
            naming.unbind("cache")

    def test_names_listing(self):
        naming = NamingService()
        naming.rebind("a", self._ref("a"))
        naming.rebind("b", self._ref("b"))
        assert naming.names() == {"a", "b"}

    def test_a_second_retirement_re_points_every_forward_instead_of_chaining(self):
        naming = NamingService()
        first, second, third = self._ref("1"), self._ref("2"), self._ref("3")
        naming.forward([first], second)
        naming.forward([second], third)
        assert naming.forwarded(first) == naming.forwarded(second) == third
        assert naming.forwards == {first: third, second: third}
        assert naming.forwarded(third) is None

    def test_a_lazy_forward_runs_only_when_a_stale_reference_is_used(self):
        naming, exports = NamingService(), []

        def export():
            exports.append(self._ref("copy"))
            return exports[-1]

        naming.forward([self._ref("old")], export)
        assert exports == []
        assert naming.forwarded(self._ref("old")) == self._ref("copy")
        assert len(exports) == 1

    def test_drop_forwards_forgets_every_entry_leading_to_a_reference(self):
        naming = NamingService()
        naming.forward([self._ref("1"), self._ref("2")], self._ref("3"))
        naming.forward([self._ref("4")], self._ref("5"))
        naming.drop_forwards(self._ref("3"))
        assert naming.forwarded(self._ref("1")) is None
        assert naming.forwarded(self._ref("4")) == self._ref("5")
