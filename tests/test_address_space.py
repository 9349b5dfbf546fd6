"""Unit tests for address spaces, marshalling and the cluster bundle."""

from __future__ import annotations

import pytest

import sample_app
from local_instances import new_local
from repro.api.errors import SerializationError, UnknownObjectError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import place_classes_on
from repro.runtime.cluster import Cluster, default_transport_registry

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]


@pytest.fixture
def deployed():
    app = ApplicationTransformer(place_classes_on({"Y": "server"})).transform(CLASSES)
    cluster = Cluster(("client", "server"))
    app.deploy(cluster, default_node="client")
    return app, cluster


class TestExportAndLookup:
    def test_export_assigns_reference_and_registers_object(self, deployed):
        app, cluster = deployed
        server = cluster.space("server")
        implementation = new_local(app, "Y", 1)
        reference = server.export(implementation)
        assert reference.node_id == "server"
        assert reference.interface_name == "Y_O_Int"
        assert server.lookup_local_object(reference.object_id) is implementation

    def test_export_is_idempotent_per_object(self, deployed):
        app, cluster = deployed
        server = cluster.space("server")
        implementation = new_local(app, "Y", 1)
        assert server.export(implementation) == server.export(implementation)
        assert len(server.exported_objects()) == 1

    def test_export_plain_object_uses_type_name(self, deployed):
        _, cluster = deployed
        reference = cluster.space("server").export(["plain"], interface_name=None)
        assert reference.interface_name == "list"

    def test_unexport_removes_object(self, deployed):
        app, cluster = deployed
        server = cluster.space("server")
        implementation = new_local(app, "Y", 1)
        reference = server.export(implementation)
        server.unexport(reference)
        with pytest.raises(UnknownObjectError):
            server.lookup_local_object(reference.object_id)
        assert server.reference_for(implementation) is None

    def test_reference_for_exported_object(self, deployed):
        app, cluster = deployed
        server = cluster.space("server")
        implementation = new_local(app, "Y", 1)
        reference = server.export(implementation)
        assert server.reference_for(implementation) == reference
        assert server.reference_for(object()) is None


class TestMarshalling:
    def test_primitives_and_containers_round_trip(self, deployed):
        _, cluster = deployed
        marshaller = cluster.space("client").marshaller
        for value in (None, 1, 2.5, True, "text", [1, [2, 3]], (4, 5), {"k": "v"}, {1, 2}, b"raw"):
            assert marshaller.from_wire(marshaller.to_wire(value)) == value

    def test_transformed_objects_pass_by_reference(self, deployed):
        app, cluster = deployed
        client = cluster.space("client")
        implementation = new_local(app, "Y", 6)
        wire = client.marshaller.to_wire(implementation)
        assert wire["__kind__"] == "ref"
        assert wire["node_id"] == "client"
        # Unmarshalling on the same node returns the very same object.
        assert client.marshaller.from_wire(wire) is implementation

    def test_unmarshalling_foreign_reference_builds_a_proxy(self, deployed):
        app, cluster = deployed
        server = cluster.space("server")
        client = cluster.space("client")
        reference = server.export(new_local(app, "Y", 6))
        resolved = client.marshaller.from_wire(reference.to_wire())
        assert (type(resolved).__name__, resolved._transport) == ("Y_O_Proxy", "rmi")
        assert resolved.n(1) == 7

    def test_proxy_arguments_reuse_their_reference(self, deployed):
        app, cluster = deployed
        client = cluster.space("client")
        remote_y = app.new("Y", 2)  # proxy to server
        wire = client.marshaller.to_wire(remote_y)
        assert wire["node_id"] == "server"

    def test_unmarshallable_values_are_rejected(self, deployed):
        _, cluster = deployed
        marshaller = cluster.space("client").marshaller
        with pytest.raises(SerializationError):
            marshaller.to_wire(object())
        with pytest.raises(SerializationError):
            marshaller.to_wire({1: "non-string key"})

    def test_unknown_wire_kind_rejected(self, deployed):
        _, cluster = deployed
        marshaller = cluster.space("client").marshaller
        with pytest.raises(SerializationError):
            marshaller.from_wire({"__kind__": "alien"})


class TestCluster:
    def test_cluster_creates_connected_spaces(self):
        cluster = Cluster(("a", "b", "c"))
        assert set(cluster.node_ids()) == {"a", "b", "c"}
        assert "a" in cluster
        assert cluster.default_node_id == "a"

    def test_unknown_node_lookup(self):
        with pytest.raises(KeyError):
            Cluster(("a",)).space("z")

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster(())

    def test_default_registry_contains_all_transports(self):
        assert default_transport_registry().names() == {"soap", "rmi", "corba", "inproc"}
