"""Experiment E2: reproduce Figure 3 — instance-member transformation of X.

The paper's Figure 3 lists the artifacts generated for the instance members
of the sample class X of Figure 2: the interface ``X_O_Int`` (accessor pair
for the field ``y`` plus the method ``m``), the non-remote implementation
``X_O_Local`` (parameter-less constructor, accessors, ``m`` rewritten to call
``get_y()``), and proxy classes per transport whose methods perform remote
calls on the real object.  These tests check both the emitted source and the
live generated classes against that listing.
"""

from __future__ import annotations

import pytest

import sample_app
from local_instances import new_local
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy


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


class TestFigure3Interface:
    def test_interface_members_match_figure(self, app):
        """X_O_Int declares exactly get_y, set_y and m."""
        interface = app.artifacts("X").instance_interface
        assert interface.method_names() == ["get_y", "set_y", "m"]

    def test_accessor_types_use_interface_types(self, app):
        """get_y returns Y_O_Int and set_y takes Y_O_Int (type adaptation)."""
        interface = app.artifacts("X").instance_interface
        assert _signature(interface, "get_y").return_type.name == "Y_O_Int"
        assert _signature(interface, "set_y").parameters[0].type.name == "Y_O_Int"

    def test_emitted_interface_matches_listing(self, sources):
        source = sources["X_O_Int"]
        for expected in ("def get_y(self)", "def set_y(self, y)", "def m(self, j)"):
            assert expected in source


class TestFigure3Local:
    def test_emitted_local_matches_listing(self, sources):
        source = sources["X_O_Local"]
        # Parameter-less constructor.
        assert "def __init__(self):" in source
        # Accessor pair backed by a private attribute.
        assert "def get_y(self):" in source and "def set_y(self, y):" in source
        # m performs interface calls: get_y() and n(j).
        assert "return self.get_y().n(j)" in source

    def test_live_local_behaviour(self, app):
        y = new_local(app, "Y", 5)
        x = app.artifacts("X").local_cls()
        x.set_y(y)
        assert x.m(3) == 8

    def test_local_constructor_takes_no_parameters(self, app):
        import inspect

        signature = inspect.signature(app.artifacts("X").local_cls.__init__)
        assert list(signature.parameters) == ["self"]


class TestFigure3Proxies:
    def test_one_proxy_serves_every_transport(self, sources):
        """Figure 3 shows a SOAP and an RMI proxy because Java stubs differ per
        protocol; here the protocol is named by the proxy's binding."""
        assert "class X_O_Proxy(_repro_Proxy, X_O_Int):" in sources["X_O_Proxy"]
        assert not any("Proxy_" in name for name in sources)

    def test_proxy_methods_perform_remote_calls(self, sources):
        source = sources["X_O_Proxy"]
        for member in ("get_y", "set_y", "m"):
            assert f"def {member}(" in source
        assert "return self._call('m', (j,))" in source

    def test_local_and_proxy_share_the_interface(self, app):
        interface = app.artifacts("X").instance_interface_cls
        assert issubclass(app.artifacts("X").local_cls, interface)
        assert issubclass(app.artifacts("X").proxy_cls, interface)

    def test_interchangeability_of_implementations(self, app):
        """Any implementation of X_O_Int can serve behind the same reference."""
        y = new_local(app, "Y", 1)

        class Stub(app.artifacts("X").instance_interface_cls):
            def get_y(self):
                return y

            def set_y(self, value):
                pass

            def m(self, j):
                return -j

        values = []
        for implementation in (new_local(app, "X", y), Stub()):
            values.append(implementation.m(4))
        assert values == [5, -4]
