"""Unit tests for dynamic distribution-boundary changes."""

from __future__ import annotations

import pytest

import sample_app
from repro.api.errors import RedistributionError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController
from repro.transports.base import parse_frame

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]


@pytest.fixture
def controller_setup():
    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(CLASSES)
    cluster = Cluster(("client", "server", "backup"))
    app.deploy(cluster, default_node="client")
    return app, cluster, DistributionController(app, cluster)


class TestMakeRemote:
    def test_local_object_becomes_remote(self, controller_setup):
        app, cluster, controller = controller_setup
        y = app.new("Y", 5)
        change = controller.make_remote(y, "server")
        assert change.operation == "make_remote"
        assert controller.boundary_of(y) == ("remote", "server")
        assert y.n(1) == 6
        assert cluster.metrics.total_messages > 0

    def test_state_is_preserved_across_the_boundary_change(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        y.set_base(50)
        controller.make_remote(y, "server")
        assert y.get_base() == 50

    def test_references_held_by_other_objects_follow(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        x = app.new("X", y)
        controller.make_remote(y, "server")
        assert x.m(3) == 8  # X still reaches Y through the rebound handle

    def test_making_an_object_remote_twice_on_same_node_fails(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        controller.make_remote(y, "server")
        with pytest.raises(RedistributionError):
            controller.make_remote(y, "server")

    def test_transport_can_be_chosen_per_move(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        controller.make_remote(y, "server", transport="soap")
        assert type(y.meta.target).__name__ == "Y_O_Proxy_SOAP"

    def test_non_dynamic_objects_cannot_be_redistributed(self, controller_setup):
        app, _, controller = controller_setup
        plain = app.new_local("Y", 5)
        with pytest.raises(RedistributionError):
            controller.make_remote(plain, "server")


class TestMakeLocalAndMove:
    def test_remote_object_can_be_brought_home(self, controller_setup):
        app, cluster, controller = controller_setup
        y = app.new("Y", 5)
        controller.make_remote(y, "server")
        controller.make_local(y)
        assert controller.boundary_of(y) == ("local", "client")
        before = cluster.metrics.total_messages
        assert y.n(2) == 7
        assert cluster.metrics.total_messages == before  # local again: no traffic

    def test_make_local_on_local_object_fails(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        with pytest.raises(RedistributionError):
            controller.make_local(y)

    def test_move_between_remote_nodes(self, controller_setup):
        app, cluster, controller = controller_setup
        y = app.new("Y", 5)
        controller.make_remote(y, "server")
        change = controller.move(y, "backup")
        assert change.operation == "move"
        assert controller.boundary_of(y) == ("remote", "backup")
        assert cluster.space("server").object_count() == 0
        assert cluster.space("backup").object_count() == 1
        assert y.n(4) == 9

    def test_move_of_a_local_object_is_equivalent_to_make_remote(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        controller.move(y, "server")
        assert controller.boundary_of(y) == ("remote", "server")

    def test_move_to_the_same_node_fails(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        controller.make_remote(y, "server")
        with pytest.raises(RedistributionError):
            controller.move(y, "server")


class TestTransportExchange:
    def test_set_transport_swaps_the_proxy_in_place(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        controller.make_remote(y, "server", transport="rmi")
        controller.set_transport(y, "corba")
        assert type(y.meta.target).__name__ == "Y_O_Proxy_CORBA"
        assert y.n(1) == 6

    @pytest.mark.xfail(
        strict=True,
        reason="TransformedApplication._remote_leg takes the transport "
        "from the policy, not from the proxy set_transport just rebound; fixing it moves "
        "figure1_boundary's wire_bytes_per_call/sim_us_per_call, so it needs its own "
        "re-baseline",
    )
    def test_set_transport_changes_the_protocol_on_the_wire(self, controller_setup, monkeypatch):
        app, cluster, controller = controller_setup
        y = app.new("Y", 5)
        controller.make_remote(y, "server", transport="rmi")
        controller.set_transport(y, "corba")
        frames = []
        send_request = cluster.network.send_request

        def recording(source, destination, payload, **kwargs):
            frames.append(payload)
            return send_request(source, destination, payload, **kwargs)

        monkeypatch.setattr(cluster.network, "send_request", recording)
        assert y.n(1) == 6  # issued on "client", served on "server"
        assert [parse_frame(frame)[0] for frame in frames] == ["corba"]

    def test_set_transport_requires_a_remote_object(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        with pytest.raises(RedistributionError):
            controller.set_transport(y, "soap")


class TestChangeLog:
    def test_every_applied_change_is_recorded(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        controller.make_remote(y, "server")
        controller.set_transport(y, "soap")
        controller.make_local(y)
        assert [change.operation for change in controller.changes] == [
            "make_remote",
            "set_transport",
            "make_local",
        ]

    def test_changes_record_class_and_target(self, controller_setup):
        app, _, controller = controller_setup
        y = app.new("Y", 5)
        change = controller.make_remote(y, "server", transport="soap")
        assert change.class_name == "Y"
        assert change.node_id == "server"
        assert change.transport == "soap"
