"""Experiment E4: reproduce Figure 5 — the factories generated for X.

Figure 5 lists ``X_O_Factory`` (``make`` choosing the implementation per
policy, ``init(that, y)`` carrying the original constructor body) and
``X_C_Factory`` (``discover`` returning the static singleton, ``clinit``
replaying the static initialiser ``z = new Z(Y.K)`` through the factories of
the classes it mentions).
"""

from __future__ import annotations

import pytest

import sample_app
from local_instances import new_local
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, place_classes_on
from repro.runtime.cluster import Cluster


@pytest.fixture(scope="module")
def app():
    return ApplicationTransformer(all_local_policy()).transform(
        [sample_app.X, sample_app.Y, sample_app.Z]
    )


@pytest.fixture(scope="module")
def sources(app):
    return app.emit_sources("X")


class TestObjectFactory:
    def test_emitted_factory_matches_listing(self, sources):
        source = sources["X_O_Factory"]
        assert "class X_O_Factory:" in source
        assert "def make(cls):" in source
        assert "def init(that, y" in source
        assert "that.set_y(y)" in source

    def test_make_is_the_policy_point(self, sources):
        assert "policy" in sources["X_O_Factory"]

    def test_factory_has_one_init_per_constructor(self, app):
        factory = app.factory("X")
        assert callable(factory.init)
        assert callable(factory.make)
        assert callable(factory.create)

    def test_init_initialises_an_existing_instance(self, app):
        y = new_local(app, "Y", 2)
        x = app.factory("X").make()
        app.factory("X").init(x, y)
        assert x.get_y() is y

    def test_creation_sites_use_create(self, app):
        """Rewritten constructor calls route through the factory composition."""
        y = app.factory("Y").create(9)
        assert y.get_base() == 9


class TestClassFactory:
    def test_emitted_class_factory_matches_listing(self, sources):
        source = sources["X_C_Factory"]
        assert "class X_C_Factory:" in source
        assert "def discover(cls):" in source
        assert "def clinit(that):" in source
        # The static initialiser of Figure 2/5: t = Z_O_Factory.make();
        # Z_O_Factory.init(t, Y_C_Factory.discover().get_K()); that.set_z(t)
        assert "t = Z_O_Factory.make()" in source
        assert "Z_O_Factory.init(t, Y_C_Factory.discover().get_K())" in source
        assert "that.set_z(t)" in source

    def test_discover_initialises_exactly_once(self, app):
        singleton = app.class_factory("X").discover()
        z_first = singleton.get_z()
        again = app.class_factory("X").discover()
        assert again.get_z() is z_first

    def test_clinit_uses_the_discovered_constant(self, app):
        """The Z built by clinit is seeded with Y.K (42)."""
        singleton = app.class_factory("X").discover()
        assert singleton.get_z().q(1) == 42

    def test_clinit_can_be_replayed_on_a_fresh_implementation(self, app):
        fresh = app.artifacts("X").class_local_cls()
        app.class_factory("X").clinit(fresh)
        assert fresh.p(2) == 84

    def test_y_class_factory_carries_the_constant(self, app):
        assert app.statics("Y").get_K() == 42


class TestFactoriesAreTheOnlyImplementationAwarePoints:
    def test_rewritten_code_contains_no_implementation_names(self, app):
        """Generated method bodies mention interfaces and factories only."""
        for class_name in ("X", "Y", "Z"):
            for member, source in app.artifacts(class_name).rewritten_sources.items():
                assert "_O_Local" not in source
                assert "_O_Proxy" not in source

    def test_policy_switch_changes_only_factory_behaviour(self):
        """The same transformed code yields local or remote objects per policy."""
        classes = [sample_app.X, sample_app.Y, sample_app.Z]

        local_app = ApplicationTransformer(all_local_policy()).transform(classes)
        local_y = local_app.new("Y", 3)
        assert type(local_y).__name__ == "Y_O_Local"

        remote_app = ApplicationTransformer(place_classes_on({"Y": "server"})).transform(classes)
        remote_app.deploy(Cluster(("client", "server")), default_node="client")
        remote_y = remote_app.new("Y", 3)
        assert (type(remote_y).__name__, remote_y._transport) == ("Y_O_Proxy", "rmi")

        # Both satisfy the same extracted interface and behave identically.
        assert local_y.n(4) == remote_y.n(4) == 7
