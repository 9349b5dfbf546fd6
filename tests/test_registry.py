"""Unit tests for the transformation registry."""

from __future__ import annotations

import pytest

import sample_app
from repro.api.errors import UnknownClassError
from repro.core.registry import TransformationRegistry
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy


@pytest.fixture(scope="module")
def app():
    return ApplicationTransformer(all_local_policy()).transform(
        [sample_app.X, sample_app.Y, sample_app.Z]
    )


class TestLookups:
    def test_lookup_by_class_name(self, app):
        artifacts = app.registry.artifacts("X")
        assert artifacts.class_name == "X"

    def test_unknown_class_raises(self, app):
        with pytest.raises(UnknownClassError):
            app.registry.artifacts("Ghost")

    def test_lookup_by_interface_name(self, app):
        assert app.registry.class_for_interface("X_O_Int") == "X"
        assert app.registry.class_for_interface("X_C_Int") == "X"
        assert app.registry.artifacts_for_interface("Y_O_Int").class_name == "Y"
        with pytest.raises(UnknownClassError):
            app.registry.class_for_interface("Ghost_O_Int")

    def test_interface_kind(self, app):
        assert app.registry.interface_kind("X_O_Int") == "instance"
        assert app.registry.interface_kind("X_C_Int") == "class"

    def test_membership_and_class_names(self, app):
        registry = app.registry
        assert "X" in registry and "Ghost" not in registry
        assert registry.class_names() == {"X", "Y", "Z"}


class TestNamespace:
    def test_namespace_holds_every_generated_name(self, app):
        namespace = app.registry.namespace
        for class_name in ("X", "Y", "Z"):
            for suffix in ("_O_Int", "_O_Local", "_O_Factory", "_C_Int", "_C_Local", "_C_Factory"):
                assert f"{class_name}{suffix}" in namespace

    def test_fresh_registry_is_empty(self):
        registry = TransformationRegistry()
        assert registry.class_names() == set()
        assert registry.namespace == {}

    def test_registration_indexes_both_interfaces(self, app):
        fresh = TransformationRegistry()
        fresh.register(app.registry.artifacts("Y"))
        assert fresh.class_for_interface("Y_O_Int") == "Y"
        assert fresh.class_for_interface("Y_C_Int") == "Y"
