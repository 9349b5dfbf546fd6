"""Experiment E7: remote and non-remote versions of a class are interchangeable.

The use of extracted interfaces makes the local implementation and the SOAP,
RMI and CORBA proxies interchangeable: the same driver code produces the same
results whichever implementation the policy selects, and the transport of an
already-running object can be exchanged without the callers noticing.
"""

from __future__ import annotations

import pytest

import matrix
import sample_app
from local_instances import new_local
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, place_classes_on, remote
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController
from repro.workloads.figure1 import A, B, C, run_figure1_plain, run_figure1_scenario

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]


def _deploy(transport: str):
    app = ApplicationTransformer(
        place_classes_on({"Y": "server"}, transport=transport)
    ).transform(CLASSES)
    cluster = Cluster(("client", "server"))
    app.deploy(cluster, default_node="client")
    return app, cluster


class TestSameResultOnEveryTransport:
    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    def test_remote_result_matches_local_result(self, transport):
        local_app = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        local_y = local_app.new("Y", 5)
        expected = local_app.new("X", local_y).m(3)

        app, _ = _deploy(transport)
        y = app.new("Y", 5)
        assert (type(y).__name__, y._transport) == ("Y_O_Proxy", transport)
        assert app.new("X", y).m(3) == expected

    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    def test_figure1_scenario_is_transport_independent(self, transport):
        oracle = run_figure1_plain()
        app = ApplicationTransformer(
            place_classes_on({"C": "server"}, transport=transport)
        ).transform([A, B, C])
        app.deploy(Cluster(("client", "server")), default_node="client")
        assert run_figure1_scenario(app).as_tuple() == oracle.as_tuple()

    def test_exceptions_cross_every_transport(self):
        for transport in matrix.TRANSPORTS:
            app, _ = _deploy(transport)
            y = app.new("Y", None)  # base None: n() raises TypeError remotely
            assert matrix.outcome(y.n, 1) == matrix.remote("TypeError")


def _run(transport: str, calls: int = 10):
    """The cluster after ``calls`` remote calls of ``Y.n`` over ``transport``."""
    app, cluster = _deploy(transport)
    y = app.new("Y", 5)
    for value in range(calls):
        y.n(value)
    return cluster


class TestTransportCostOrdering:
    def test_soap_moves_more_bytes_than_corba_than_rmi(self):
        def sent(transport):
            return _run(transport).metrics.total_bytes

        assert sent("soap") > sent("corba") > sent("rmi")

    def test_soap_costs_more_simulated_time_than_rmi(self):
        assert _run("soap").clock.now > _run("rmi").clock.now

    def test_message_counts_are_identical_across_transports(self):
        """Interchangeability: the protocols differ in cost, not in structure."""
        counts = {_run(transport, 5).metrics.total_messages for transport in matrix.TRANSPORTS}
        assert len(counts) == 1


class TestMixedAndSwappedTransports:
    def test_different_classes_can_use_different_transports(self):
        policy = all_local_policy()
        policy.set_class("Y", instances=remote("server", transport="soap"))
        policy.set_class("Z", instances=remote("server", transport="corba"))
        app = ApplicationTransformer(policy).transform(CLASSES)
        app.deploy(Cluster(("client", "server")), default_node="client")
        y, z = app.new("Y", 1), app.new("Z", 2)
        assert (type(y).__name__, y._transport) == ("Y_O_Proxy", "soap")
        assert (type(z).__name__, z._transport) == ("Z_O_Proxy", "corba")

    def test_transport_swap_mid_run_preserves_behaviour(self):
        policy = all_local_policy()
        policy.set_class("Y", instances=remote("server", dynamic=True))
        app = ApplicationTransformer(policy).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        controller = DistributionController(app, cluster)

        y = app.new("Y", 5)
        first = y.n(1)
        for transport in matrix.TRANSPORTS:
            controller.set_transport(y, transport)
            assert y.n(1) == first

    def test_callers_only_depend_on_the_interface(self):
        """A holder written against Y_O_Int accepts local, proxy and handle alike."""
        app, cluster = _deploy("rmi")
        interface = app.artifacts("Y").instance_interface_cls
        remote_y = app.new("Y", 5)
        local_y = new_local(app, "Y", 5)
        assert isinstance(remote_y, interface) and isinstance(local_y, interface)
        x = app.new("X", remote_y)
        x_local = app.new("X", local_y)
        assert x.m(2) == x_local.m(2)
