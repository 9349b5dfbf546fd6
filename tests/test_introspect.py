"""Unit tests for reflection-based class-model construction."""

from __future__ import annotations

import pytest

import sample_app
import sample_unsupported
from repro.core.classmodel import TypeRef, Visibility
from repro.core.introspect import (
    class_model_from_descriptor,
    class_model_from_python,
    is_native_function,
    native,
    type_ref_from_annotation,
    visibility_of,
)


class TestAnnotationHelpers:
    def test_type_ref_from_class_annotation(self):
        assert type_ref_from_annotation(int) == TypeRef("int")

    def test_type_ref_from_string_annotation(self):
        assert type_ref_from_annotation("Order") == TypeRef("Order")

    def test_missing_annotation_maps_to_object(self):
        import inspect

        assert type_ref_from_annotation(inspect.Signature.empty) == TypeRef("object")

    def test_visibility_from_naming_convention(self):
        assert visibility_of("balance") is Visibility.PUBLIC
        assert visibility_of("_internal") is Visibility.PROTECTED
        assert visibility_of("__secret") is Visibility.PRIVATE


class TestNativeMarker:
    def test_decorated_function_is_native(self):
        @native
        def probe():
            return 1

        assert is_native_function(probe)

    def test_builtin_is_native(self):
        assert is_native_function(len)

    def test_plain_function_is_not_native(self):
        def ordinary():
            return 1

        assert not is_native_function(ordinary)


class TestSampleClassIntrospection:
    def test_x_model_members(self):
        model = class_model_from_python(sample_app.X)
        assert model.name == "X"
        assert [f.name for f in model.instance_fields] == ["y"]
        assert [f.name for f in model.static_fields] == ["z"]
        assert [m.name for m in model.instance_methods] == ["m"]
        assert [m.name for m in model.static_methods] == ["p"]
        assert len(model.constructors) == 1

    def test_x_static_initializer_source_is_captured(self):
        model = class_model_from_python(sample_app.X)
        z_field = model.get_field("z")
        assert z_field.is_static
        assert z_field.initializer_source == "Z(Y.K)"

    def test_y_static_constant(self):
        model = class_model_from_python(sample_app.Y)
        k_field = model.get_field("K")
        assert k_field is not None and k_field.is_static
        assert k_field.is_final  # upper-case names are treated as final
        assert k_field.initializer_source == "42"

    def test_constructor_parameters(self):
        model = class_model_from_python(sample_app.X)
        assert [p.name for p in model.constructors[0].parameters] == ["y"]

    def test_method_source_is_available(self):
        model = class_model_from_python(sample_app.X)
        assert "self.y.n(j)" in model.get_method("m").source

    def test_reference_collection_includes_collaborators(self):
        model = class_model_from_python(sample_app.X)
        assert {"Y", "Z"} <= model.referenced_class_names()

    def test_python_class_is_recorded(self):
        model = class_model_from_python(sample_app.Y)
        assert model.python_class is sample_app.Y


class TestSpecialClassIntrospection:
    def test_native_method_detected(self):
        model = class_model_from_python(sample_unsupported.NativeIO)
        assert model.has_native_methods
        assert model.get_method("read_block").is_native
        assert not model.get_method("describe").is_native

    def test_exception_class_flagged(self):
        model = class_model_from_python(sample_unsupported.ProtocolError)
        assert model.is_exception

    def test_superclass_recorded(self):
        model = class_model_from_python(sample_unsupported.RawDevice)
        assert model.superclass_name == "BaseDevice"

    def test_object_superclass_is_ignored(self):
        model = class_model_from_python(sample_unsupported.CleanHelper)
        assert model.superclass_name is None

    def test_rejects_non_class_input(self):
        with pytest.raises(TypeError):
            class_model_from_python(42)  # type: ignore[arg-type]


class TestInstanceFieldDiscovery:
    def test_fields_from_annotations(self):
        class Annotated:
            count: int
            label: str

            def bump(self):
                return self.count

        model = class_model_from_python(Annotated)
        names = {f.name for f in model.instance_fields}
        assert names == {"count", "label"}
        assert model.get_field("count").type == TypeRef("int")

    def test_fields_from_constructor_assignments(self):
        model = class_model_from_python(sample_unsupported.CleanHelper)
        assert [f.name for f in model.instance_fields] == ["value"]

    def test_augmented_assignment_targets_are_found(self):
        class Accumulator:
            def __init__(self):
                self.total = 0

            def add(self, amount):
                self.total += amount
                return self.total

        model = class_model_from_python(Accumulator)
        assert [f.name for f in model.instance_fields] == ["total"]


class TestDescriptorConstruction:
    def test_descriptor_round_trip(self):
        model = class_model_from_descriptor(
            "Widget",
            module="toolkit",
            superclass="Component",
            instance_fields=["width"],
            static_fields=["THEME"],
            instance_methods=["paint"],
            static_methods=["defaults"],
            native_methods=["paint"],
            references=["Canvas"],
        )
        assert model.name == "Widget"
        assert model.superclass_name == "Component"
        assert model.get_field("THEME").is_static
        assert model.get_method("paint").is_native
        assert model.get_method("defaults").is_static
        assert "Canvas" in model.referenced_class_names()

    def test_native_method_not_listed_elsewhere_is_added(self):
        model = class_model_from_descriptor("Driver", native_methods=["poke"])
        assert model.get_method("poke").is_native
