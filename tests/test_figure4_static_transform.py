"""Experiment E3: reproduce Figure 4 — static-member transformation of X.

Figure 4 lists the artifacts generated for the static members of the sample
class X: the interface ``X_C_Int`` (accessor pair for the static field ``z``
plus the former static method ``p``), the singleton ``X_C_Local`` whose ``p``
is now an instance method using ``get_z()``, and per-transport proxies.
"""

from __future__ import annotations

import pytest

import sample_app
from local_instances import new_local
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, place_classes_on
from repro.runtime.cluster import Cluster


def _signature(interface, name):
    return next((s for s in interface.methods if s.name == name), None)


@pytest.fixture(scope="module")
def app():
    return ApplicationTransformer(all_local_policy()).transform(
        [sample_app.X, sample_app.Y, sample_app.Z]
    )


@pytest.fixture(scope="module")
def sources(app):
    return app.emit_sources("X")


class TestFigure4Interface:
    def test_class_interface_members_match_figure(self, app):
        """X_C_Int declares exactly get_z, set_z and p."""
        interface = app.artifacts("X").class_interface
        assert interface.method_names() == ["get_z", "set_z", "p"]

    def test_static_field_type_is_adapted(self, app):
        interface = app.artifacts("X").class_interface
        assert _signature(interface, "get_z").return_type.name == "Z_O_Int"

    def test_emitted_interface_matches_listing(self, sources):
        source = sources["X_C_Int"]
        for expected in ("def get_z(self)", "def set_z(self, z)", "def p(self, i)"):
            assert expected in source


class TestFigure4Singleton:
    def test_emitted_singleton_matches_listing(self, sources):
        source = sources["X_C_Local"]
        assert "class X_C_Local(X_C_Int):" in source
        # Former static method p uses the receiver's accessor, as in the figure.
        assert "return self.get_z().q(i)" in source
        # Singleton declarations.
        assert "def get_me(cls):" in source

    def test_statics_are_made_non_static(self, app):
        singleton = app.statics("X")
        # p is now an ordinary bound method on the singleton instance.
        assert singleton.p(3) == 126  # Z(42).q(3)

    def test_uniqueness_semantics_via_singleton(self, app):
        assert app.statics("X") is app.statics("X")

    def test_static_state_is_shared_through_the_singleton(self, app):
        singleton = app.statics("X")
        replacement = new_local(app, "Z", 2)
        original = singleton.get_z()
        try:
            singleton.set_z(replacement)
            assert app.statics("X").p(10) == 20
        finally:
            singleton.set_z(original)


class TestFigure4Proxies:
    def test_one_class_proxy_serves_every_transport(self, sources):
        assert "class X_C_Proxy(_repro_Proxy, X_C_Int):" in sources["X_C_Proxy"]

    def test_remote_statics_behave_like_local_statics(self):
        """The static singleton can itself live on a remote node."""
        local_app = ApplicationTransformer(all_local_policy()).transform(
            [sample_app.X, sample_app.Y, sample_app.Z]
        )
        expected = local_app.statics("X").p(4)

        remote_app = ApplicationTransformer(
            place_classes_on({"X": "server"})
        ).transform([sample_app.X, sample_app.Y, sample_app.Z])
        cluster = Cluster(("client", "server"))
        remote_app.deploy(cluster, default_node="client")
        statics = remote_app.statics("X")
        assert (type(statics).__name__, statics._transport) == ("X_C_Proxy", "rmi")
        assert statics.p(4) == expected
        assert cluster.metrics.total_messages > 0
