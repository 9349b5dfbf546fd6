"""Unit tests for source-code emission of generated artifacts."""

from __future__ import annotations

import ast

import pytest

import sample_app
from repro.core.codegen import emit_class_artifacts, emit_interface, emit_proxy
from repro.core.interfaces import extract_class_interface, extract_instance_interface
from repro.core.introspect import class_model_from_python

TRANSFORMED = {"X", "Y", "Z"}


@pytest.fixture(scope="module")
def universe():
    return {
        cls.__name__: class_model_from_python(cls)
        for cls in (sample_app.X, sample_app.Y, sample_app.Z)
    }


def _parses(source: str) -> ast.Module:
    return ast.parse(source)


def _artifact(universe, class_name: str, artifact: str) -> str:
    return emit_class_artifacts(universe[class_name], TRANSFORMED, universe)[artifact]


class TestInterfaceEmission:
    def test_instance_interface_source(self, universe):
        interface = extract_instance_interface(universe["X"], TRANSFORMED)
        source = emit_interface(interface)
        _parses(source)
        assert "class X_O_Int(abc.ABC):" in source
        assert "def get_y(self):" in source
        assert "def set_y(self, y):" in source
        assert "def m(self, j):" in source

    def test_class_interface_source(self, universe):
        interface = extract_class_interface(universe["X"], TRANSFORMED)
        source = emit_interface(interface)
        _parses(source)
        assert "class X_C_Int(abc.ABC):" in source
        assert "def get_z(self):" in source
        assert "def p(self, i):" in source

    def test_empty_interface_emits_pass(self, universe):
        """No ``pass`` is needed any more: the metadata attributes are the body."""
        interface = extract_class_interface(universe["Z"], TRANSFORMED)
        source = emit_interface(interface)
        _parses(source)
        assert "_repro_interface_name = 'Z_C_Int'" in source
        assert "def " not in source


class TestLocalEmission:
    def test_local_class_source(self, universe):
        source = _artifact(universe, "X", "X_O_Local")
        _parses(source)
        assert "class X_O_Local(X_O_Int):" in source
        assert "def __init__(self):" in source
        assert "self._y = None" in source
        assert "return self.get_y().n(j)" in source

    def test_class_local_source_is_singleton(self, universe):
        source = _artifact(universe, "X", "X_C_Local")
        _parses(source)
        assert "class X_C_Local(X_C_Int):" in source
        assert "# singleton declarations" in source
        assert "def get_me(cls):" in source
        assert "return self.get_z().q(i)" in source


class TestProxyEmission:
    def test_proxy_source_names_no_transport(self, universe):
        interface = extract_instance_interface(universe["X"], TRANSFORMED)
        source = emit_proxy(universe["X"], interface)
        _parses(source)
        assert "class X_O_Proxy(_repro_Proxy, X_O_Int):" in source
        assert "transport of the binding" in source
        assert "_repro_transport" not in source
        assert "return self._call('m', (j,))" in source

    def test_class_proxy_source(self, universe):
        interface = extract_class_interface(universe["X"], TRANSFORMED)
        source = emit_proxy(universe["X"], interface, kind="class")
        _parses(source)
        assert "class X_C_Proxy(_repro_Proxy, X_C_Int):" in source
        assert "def p(self, i):" in source


class TestFactoryEmission:
    def test_object_factory_source(self, universe):
        source = _artifact(universe, "X", "X_O_Factory")
        _parses(source)
        assert "class X_O_Factory:" in source
        assert "def make(cls):" in source
        assert "def init(that, y" in source
        assert "that.set_y(y)" in source
        assert "def create(cls, *args, **kwargs):" in source

    def test_class_factory_source_uses_two_step_initialisation(self, universe):
        source = _artifact(universe, "X", "X_C_Factory")
        _parses(source)
        assert "class X_C_Factory:" in source
        assert "def discover(cls):" in source
        assert "def clinit(that):" in source
        # Figure 5 shape: make, init with the discovered constant, then set.
        assert "t = Z_O_Factory.make()" in source
        assert "Z_O_Factory.init(t, Y_C_Factory.discover().get_K())" in source
        assert "that.set_z(t)" in source

    def test_factory_without_statics_emits_pass(self, universe):
        source = _artifact(universe, "Z", "Z_C_Factory")
        _parses(source)
        assert "pass" in source


class TestWholeClassEmission:
    def test_emit_class_artifacts_covers_all_names(self, universe):
        sources = emit_class_artifacts(universe["X"], TRANSFORMED, universe)
        expected = {
            "X_O_Int", "X_O_Local", "X_C_Int", "X_C_Local",
            "X_O_Redirector", "X_O_Factory", "X_C_Factory", "X_O_Proxy", "X_C_Proxy",
        }
        assert expected == set(sources)

    def test_each_emitted_artifact_is_valid_python(self, universe):
        sources = emit_class_artifacts(universe["X"], TRANSFORMED, universe)
        for name, source in sources.items():
            _parses(source)
