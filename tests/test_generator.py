"""Unit tests for the live-class generator (interfaces, locals, proxies, factories)."""

from __future__ import annotations

import inspect

import pytest

import sample_app
from repro.api.errors import GenerationError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy


@pytest.fixture
def app():
    return ApplicationTransformer(all_local_policy()).transform(
        [sample_app.X, sample_app.Y, sample_app.Z]
    )


class TestGeneratedInterfaces:
    def test_interface_classes_are_abstract(self, app):
        interface = app.artifacts("X").instance_interface_cls
        assert inspect.isabstract(interface)
        with pytest.raises(TypeError):
            interface()  # cannot instantiate an abstract interface

    def test_interface_metadata(self, app):
        interface = app.artifacts("X").instance_interface_cls
        assert interface._repro_interface_name == "X_O_Int"
        assert interface._repro_source_class == "X"
        assert interface._repro_kind == "instance"

    def test_interface_declares_accessors_and_methods(self, app):
        interface = app.artifacts("X").instance_interface_cls
        assert hasattr(interface, "get_y")
        assert hasattr(interface, "set_y")
        assert hasattr(interface, "m")

    def test_class_interface_declares_static_members(self, app):
        interface = app.artifacts("X").class_interface_cls
        assert interface.__name__ == "X_C_Int"
        assert hasattr(interface, "get_z") and hasattr(interface, "p")


class TestGeneratedLocals:
    def test_local_implements_interface(self, app):
        assert issubclass(app.artifacts("X").local_cls, app.artifacts("X").instance_interface_cls)

    def test_local_has_parameterless_constructor(self, app):
        instance = app.artifacts("X").local_cls()
        assert instance.get_y() is None

    def test_accessors_store_and_return_values(self, app):
        instance = app.artifacts("Y").local_cls()
        instance.set_base(10)
        assert instance.get_base() == 10

    def test_property_view_keeps_original_style_working(self, app):
        instance = app.artifacts("Y").local_cls()
        instance.base = 11
        assert instance.get_base() == 11
        assert instance.base == 11

    def test_rewritten_method_goes_through_accessors(self, app):
        artifacts = app.artifacts("X")
        assert "self.get_y()" in artifacts.rewritten_sources["m"]

    def test_method_behaviour_matches_original(self, app):
        y = app.artifacts("Y").local_cls()
        y.set_base(5)
        x = app.artifacts("X").local_cls()
        x.set_y(y)
        assert x.m(3) == 8

    def test_class_local_is_a_singleton_via_get_me(self, app):
        singleton_cls = app.artifacts("X").class_local_cls
        assert singleton_cls.get_me() is singleton_cls.get_me()

    def test_class_local_static_method_is_instance_level(self, app):
        singleton_cls = app.artifacts("X").class_local_cls
        singleton = singleton_cls.get_me()
        z_local = app.artifacts("Z").local_cls()
        z_local.set_seed(2)
        singleton.set_z(z_local)
        assert singleton.p(10) == 20


class TestGeneratedProxiesAndRedirectors:
    def test_one_proxy_per_interface_follows_convention(self, app):
        artifacts = app.artifacts("X")
        assert artifacts.proxy_cls.__name__ == "X_O_Proxy"
        assert artifacts.class_proxy_cls.__name__ == "X_C_Proxy"

    def test_proxy_implements_interface(self, app):
        artifacts = app.artifacts("X")
        assert issubclass(artifacts.proxy_cls, artifacts.instance_interface_cls)
        assert issubclass(artifacts.class_proxy_cls, artifacts.class_interface_cls)

    def test_proxy_forwards_through_its_space_over_its_transport(self, app):
        calls = []

        class FakeSpace:
            def invoke_remote(self, ref, member, args, kwargs, transport=None):
                calls.append((ref, member, args, transport))
                return "remote-result"

        proxy = app.artifacts("X").proxy_cls("ref-1", FakeSpace(), "soap")
        assert proxy.m(7) == "remote-result"
        assert calls == [("ref-1", "m", (7,), "soap")]

    def test_proxy_reference_accessor(self, app):
        proxy = app.artifacts("Y").proxy_cls("ref-9", "space", "rmi")
        assert proxy.remote_reference() == "ref-9"

    def test_redirector_implements_interface_with_explicit_methods(self, app):
        redirector_cls = app.artifacts("Y").redirector_cls
        assert redirector_cls.__name__ == "Y_O_Redirector"
        assert issubclass(redirector_cls, app.artifacts("Y").instance_interface_cls)
        assert "n" in redirector_cls.__dict__


class TestGeneratedFactories:
    def test_factory_metadata(self, app):
        factory = app.factory("X")
        assert factory.__name__ == "X_O_Factory"
        assert factory._repro_class_name == "X"

    def test_make_returns_interface_implementation(self, app):
        implementation = app.factory("Y").make()
        assert isinstance(implementation, app.artifacts("Y").instance_interface_cls)

    def test_init_replays_constructor(self, app):
        y = app.factory("Y").make()
        app.factory("Y").init(y, 4)
        assert y.get_base() == 4

    def test_create_composes_make_and_init(self, app):
        y = app.factory("Y").create(6)
        assert y.n(1) == 7

    def test_class_factory_discover_returns_singleton(self, app):
        first = app.class_factory("X").discover()
        second = app.class_factory("X").discover()
        assert first is second

    def test_clinit_replays_static_initialisers(self, app):
        singleton = app.class_factory("X").discover()
        z = singleton.get_z()
        assert z is not None
        # Y.K is 42, so the Z constructed by the static initialiser has seed 42.
        assert z.q(2) == 84

    def test_clinit_source_recorded(self, app):
        assert "<clinit>" in app.artifacts("X").rewritten_sources

    def test_unbound_factory_raises(self, app):
        factory = app.factory("X")
        original = factory._repro_application
        factory._repro_application = None
        try:
            with pytest.raises(GenerationError):
                factory.make()
        finally:
            factory._repro_application = original
