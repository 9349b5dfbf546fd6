"""Unit tests for transformed applications deployed across address spaces."""

from __future__ import annotations

import pytest

import sample_app
from local_instances import new_local
from repro.api.errors import PolicyError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, place_classes_on, remote
from repro.runtime.cluster import Cluster
from repro.transports.base import TransportRegistry
from repro.transports.corba import CorbaTransport
from repro.transports.rmi import RmiTransport

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]


class TestDeployment:
    def test_deploy_binds_every_space_to_the_application(self):
        app = ApplicationTransformer().transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        for space in cluster.spaces():
            assert space.application is app
        assert app.is_bound
        assert app.current_space.node_id == "client"

    def test_a_placement_set_before_deploy_takes_effect(self):
        app = ApplicationTransformer().transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.policy.set_class("Y", instances=remote("server"), statics=remote("server"))
        app.deploy(cluster, default_node="client")
        proxy = app.new("Y", 5)
        assert (type(proxy).__name__, proxy._transport) == ("Y_O_Proxy", "rmi")
        assert len(cluster.space("server").exported_objects()) == 1

    def test_default_node_defaults_to_first_cluster_node(self):
        app = ApplicationTransformer().transform(CLASSES)
        cluster = Cluster(("alpha", "beta"))
        app.deploy(cluster)
        assert app.current_space.node_id == "alpha"


class TestRemoteCreation:
    @pytest.fixture
    def deployed(self):
        app = ApplicationTransformer(place_classes_on({"Y": "server"})).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        return app, cluster

    def test_factory_returns_proxy_for_remote_classes(self, deployed):
        app, _ = deployed
        y = app.new("Y", 5)
        assert (type(y).__name__, y._transport) == ("Y_O_Proxy", "rmi")

    def test_remote_object_lives_on_the_target_node(self, deployed):
        app, cluster = deployed
        app.new("Y", 5)
        assert len(cluster.space("server").exported_objects()) == 1
        assert len(cluster.space("client").exported_objects()) == 0

    def test_remote_and_local_instances_behave_identically(self, deployed):
        app, _ = deployed
        remote_y = app.new("Y", 5)
        local_y = new_local(app, "Y", 5)
        assert remote_y.n(3) == local_y.n(3) == 8

    def test_remote_initialisation_goes_through_init(self, deployed):
        app, cluster = deployed
        y = app.new("Y", 9)
        assert y.get_base() == 9
        assert cluster.metrics.total_messages > 0

    def test_mixed_graph_local_holder_remote_collaborator(self, deployed):
        """X stays local, Y is remote; X.m still reaches through the proxy."""
        app, _ = deployed
        y = app.new("Y", 5)
        x = app.new("X", y)
        assert type(x).__name__ == "X_O_Local"
        assert x.m(3) == 8

    def test_objects_created_on_their_home_node_are_local(self, deployed):
        """When the executing node equals the placement target, no proxy is used."""
        app, _ = deployed
        with app.executing_on("server"):
            y = app.new("Y", 5)
        assert type(y).__name__ == "Y_O_Local"

    def test_transport_choice_follows_policy(self):
        app = ApplicationTransformer(
            place_classes_on({"Y": "server"}, transport="soap")
        ).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        y = app.new("Y", 1)
        assert (type(y).__name__, y._transport) == ("Y_O_Proxy", "soap")


class TestDynamicHandles:
    def test_dynamic_policy_produces_redirector_handles(self):
        policy = all_local_policy(dynamic=True)
        app = ApplicationTransformer(policy).transform(CLASSES)
        app.deploy(Cluster(("client", "server")), default_node="client")
        y = app.new("Y", 4)
        assert type(y).__name__ == "Y_O_Redirector"
        assert y.n(1) == 5
        assert app.handles() == [y]

    def test_dynamic_remote_handles_wrap_proxies(self):
        policy = all_local_policy()
        policy.set_class("Y", instances=remote("server", dynamic=True))
        app = ApplicationTransformer(policy).transform(CLASSES)
        app.deploy(Cluster(("client", "server")), default_node="client")
        y = app.new("Y", 4)
        assert type(y).__name__ == "Y_O_Redirector"
        meta = y.meta
        assert meta.is_remote and meta.node_id == "server"
        assert y.n(6) == 10

    def test_statics_remain_consistent_per_node(self):
        app = ApplicationTransformer(place_classes_on({"X": "server"})).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        # The statics proxy on the client and direct access on the server see
        # the same singleton state.
        client_view = app.statics("X")
        with app.executing_on("server"):
            server_view = app.statics("X")
        replacement = new_local(app, "Z", 3)
        server_view.set_z(replacement)
        assert client_view.p(5) == 15


class TestReferencePassingAcrossSpaces:
    def test_passing_a_local_object_to_a_remote_one_exports_it(self):
        """Arguments of transformed types travel by reference, not by copy."""
        app = ApplicationTransformer(place_classes_on({"X": "server"})).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        y = app.new("Y", 7)          # local on client
        x = app.new("X", y)          # remote on server, receives a reference to y
        assert (type(x).__name__, x._transport) == ("X_O_Proxy", "rmi")
        assert x.m(3) == 10
        # The callback from server to client for y.n() generated traffic both ways.
        assert cluster.metrics.messages_between("server", "client") > 0

    def test_remote_reference_returned_to_its_home_resolves_locally(self):
        app = ApplicationTransformer(place_classes_on({"X": "server"})).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        y = app.new("Y", 7)
        x = app.new("X", y)
        returned = x.get_y()
        # The reference came back to the node where the object lives, so the
        # runtime hands back the local implementation, not a proxy to a proxy.
        assert type(returned).__name__ == "Y_O_Local"
        assert returned.n(1) == 8


def _cluster_speaking(*transports):
    """A client/server cluster that registers only ``transports``."""
    return Cluster(("client", "server"), transports=TransportRegistry(transports))


class TestRemoteTransportCheck:
    """A remote placement over a transport the cluster does not register is
    refused when the application is deployed, the first moment the cluster's
    transports are known."""

    def test_remote_placement_over_an_unregistered_transport_is_refused_at_deploy(self):
        policy = place_classes_on({"Y": "server"}, transport="bogus")
        app = ApplicationTransformer(policy).transform(CLASSES)
        with pytest.raises(PolicyError, match="'Y'.*'bogus'"):
            app.deploy(Cluster(("client", "server")), default_node="client")
        assert not app.is_bound

    def test_remote_static_placement_is_checked_too(self):
        policy = all_local_policy()
        policy.set_class("Z", statics=remote("server", transport="corba"))
        app = ApplicationTransformer(policy).transform(CLASSES)
        with pytest.raises(PolicyError, match="'Z'.*'corba'"):
            app.deploy(_cluster_speaking(RmiTransport()), default_node="client")

    def test_the_refusal_lists_the_registered_transports(self):
        policy = place_classes_on({"Y": "server"}, transport="soap")
        app = ApplicationTransformer(policy).transform(CLASSES)
        with pytest.raises(PolicyError, match=r"\(transports: corba, rmi\)"):
            app.deploy(_cluster_speaking(RmiTransport(), CorbaTransport()), default_node="client")

    def test_an_unsubstitutable_class_needs_no_registered_transport(self):
        policy = all_local_policy()
        policy.set_class("Y", substitutable=False, instances=remote("server", transport="bogus"))
        app = ApplicationTransformer(policy).transform(CLASSES)
        assert app.transformed_classes() == {"X", "Z"}
        app.deploy(Cluster(("client", "server")), default_node="client")

    def test_a_remote_placement_over_a_registered_transport_binds_it(self):
        policy = place_classes_on({"Y": "server"}, transport="corba")
        app = ApplicationTransformer(policy).transform(CLASSES)
        app.deploy(_cluster_speaking(CorbaTransport()), default_node="client")
        handle = app.new("Y", 2)
        assert (type(handle).__name__, handle._transport) == ("Y_O_Proxy", "corba")
        assert handle.n(3) == 5

    def test_local_decisions_need_no_registered_transport(self):
        app = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        app.deploy(_cluster_speaking(CorbaTransport()), default_node="client")
        assert app.new("Y", 2).n(3) == 5
