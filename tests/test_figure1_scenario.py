"""Experiment E1: the Figure 1 re-distribution scenario.

Objects of class A and class B hold references to a shared instance of class
C.  The application is transformed so that the instance of C is remote to its
reference holders: the local instance is replaced by a proxy Cp to the remote
implementation C'.  The tests check that the scenario produces identical
results (a) untransformed, (b) transformed but all-local, (c) transformed
with C remote, and (d) after dynamically moving C at run time.
"""

from __future__ import annotations

import pytest

from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, local, place_classes_on
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController
from repro.workloads.figure1 import A, B, C, run_figure1_plain, run_figure1_scenario

CLASSES = [A, B, C]
VALUES = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def oracle():
    return run_figure1_plain(VALUES)


class TestLocalEquivalence:
    def test_transformed_local_run_matches_original(self, oracle):
        app = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        result = run_figure1_scenario(app, VALUES)
        assert result.as_tuple() == oracle.as_tuple()

    def test_expected_totals(self, oracle):
        # a adds each value once, b adds it doubled: total = 3 * sum(values).
        assert oracle.total == 3 * sum(VALUES)
        assert oracle.a_recorded == len(VALUES)
        assert oracle.b_recorded == len(VALUES)


class TestRemoteSharedObject:
    def _remote_app(self):
        app = ApplicationTransformer(place_classes_on({"C": "server"})).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        return app, cluster

    def test_remote_run_matches_original(self, oracle):
        app, _cluster = self._remote_app()
        result = run_figure1_scenario(app, VALUES)
        assert result.as_tuple() == oracle.as_tuple()

    def test_shared_instance_is_a_proxy(self):
        app, _cluster = self._remote_app()
        shared = app.new("C", "shared")
        assert (type(shared).__name__, shared._transport) == ("C_O_Proxy", "rmi")

    def test_a_and_b_share_the_same_remote_instance(self, oracle):
        """Both holders observe each other's updates through the shared C'."""
        app, cluster = self._remote_app()
        shared = app.new("C", "probe")
        a = app.new("A", shared)
        b = app.new("B", shared)
        a.record(10)
        assert b.running_average() == pytest.approx(10.0)
        b.record(5)
        assert shared.get_total() == 20
        assert cluster.metrics.total_messages > 0

    def test_remote_run_generates_network_traffic(self):
        app, cluster = self._remote_app()
        run_figure1_scenario(app, VALUES)
        assert cluster.metrics.total_messages > 0
        assert cluster.clock.now > 0.0

    def test_local_run_generates_no_network_traffic(self):
        app = ApplicationTransformer(all_local_policy()).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        run_figure1_scenario(app, VALUES)
        assert cluster.metrics.total_messages == 0


class TestDynamicRedistributionOfC:
    def test_moving_c_mid_run_preserves_results(self, oracle):
        """C starts local, is moved to the server half-way, results unchanged."""
        policy = all_local_policy()
        policy.set_class("C", instances=local(dynamic=True))
        app = ApplicationTransformer(policy).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        controller = DistributionController(app, cluster)

        shared = app.new("C", "shared")
        a = app.new("A", shared)
        b = app.new("B", shared)

        midpoint = len(VALUES) // 2
        for value in VALUES[:midpoint]:
            a.record(value)
            b.record(value)

        before_messages = cluster.metrics.total_messages
        controller.make_remote(shared, "server")

        for value in VALUES[midpoint:]:
            a.record(value)
            b.record(value)

        assert shared.get_total() == oracle.total
        assert shared.describe() == oracle.description
        # The second half of the run really went over the network.
        assert cluster.metrics.total_messages > before_messages

    def test_boundary_can_move_back(self, oracle):
        policy = all_local_policy()
        policy.set_class("C", instances=local(dynamic=True))
        app = ApplicationTransformer(policy).transform(CLASSES)
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        controller = DistributionController(app, cluster)

        shared = app.new("C", "shared")
        a = app.new("A", shared)
        controller.make_remote(shared, "server")
        a.record(2)
        controller.make_local(shared)
        a.record(3)
        assert shared.get_total() == 5
        kind, node = controller.boundary_of(shared)
        assert kind == "local"
