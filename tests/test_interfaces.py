"""Unit tests for interface extraction (paper §2.1 and §2.2)."""

from __future__ import annotations

import pytest

import sample_app
from repro.api.errors import InterfaceExtractionError
from repro.core.classmodel import TypeRef
from repro.core.interfaces import (
    adapt_type,
    class_factory_name,
    class_interface_name,
    class_local_name,
    class_proxy_name,
    extract_class_interface,
    extract_instance_interface,
    getter_name,
    instance_interface_name,
    instance_local_name,
    instance_proxy_name,
    object_factory_name,
    redirector_name,
    setter_name,
)
from repro.core.introspect import class_model_from_python


def _signature(interface, name):
    return next((s for s in interface.methods if s.name == name), None)


class TestNamingScheme:
    """The generated names follow the paper's A_O_Int / A_C_Int convention."""

    def test_interface_names(self):
        assert instance_interface_name("X") == "X_O_Int"
        assert class_interface_name("X") == "X_C_Int"

    def test_implementation_names(self):
        assert instance_local_name("X") == "X_O_Local"
        assert class_local_name("X") == "X_C_Local"

    def test_proxy_names_are_one_per_interface(self):
        assert instance_proxy_name("X") == "X_O_Proxy"
        assert class_proxy_name("X") == "X_C_Proxy"

    def test_factory_and_redirector_names(self):
        assert object_factory_name("X") == "X_O_Factory"
        assert class_factory_name("X") == "X_C_Factory"
        assert redirector_name("X") == "X_O_Redirector"

    def test_accessor_names(self):
        assert getter_name("y") == "get_y"
        assert setter_name("y") == "set_y"


class TestTypeAdaptation:
    def test_transformed_class_type_becomes_interface(self):
        assert adapt_type(TypeRef("Y"), {"Y"}) == TypeRef("Y_O_Int")

    def test_untransformed_class_type_is_untouched(self):
        assert adapt_type(TypeRef("Y"), {"Z"}) == TypeRef("Y")

    def test_primitive_type_is_untouched(self):
        assert adapt_type(TypeRef("int"), {"int"}) == TypeRef("int")


class TestInstanceInterfaceExtraction:
    def _interface(self):
        model = class_model_from_python(sample_app.X)
        return extract_instance_interface(model, {"X", "Y", "Z"})

    def test_interface_name_and_kind(self):
        interface = self._interface()
        assert interface.name == "X_O_Int"
        assert interface.kind == "instance"
        assert interface.source_class == "X"

    def test_fields_become_accessor_pairs(self):
        interface = self._interface()
        names = interface.method_names()
        assert "get_y" in names and "set_y" in names

    def test_instance_methods_are_captured(self):
        interface = self._interface()
        assert "m" in interface.method_names()

    def test_static_members_are_not_in_instance_interface(self):
        interface = self._interface()
        assert "p" not in interface.method_names()
        assert "get_z" not in interface.method_names()

    def test_accessor_metadata(self):
        interface = self._interface()
        getter = _signature(interface, "get_y")
        setter = _signature(interface, "set_y")
        assert getter.accessor_for == "y" and getter.accessor_kind == "get"
        assert setter.accessor_for == "y" and setter.accessor_kind == "set"
        assert setter.parameter_names == ("y",)

    def test_plain_methods_and_accessors_partition(self):
        interface = self._interface()
        accessor_names = {s.name for s in interface.accessors()}
        plain_names = {s.name for s in interface.methods if not s.is_accessor}
        assert accessor_names.isdisjoint(plain_names)
        assert accessor_names | plain_names == set(interface.method_names())

    def test_extracting_from_interface_model_is_an_error(self):
        model = class_model_from_python(sample_app.X)
        model.is_interface = True
        with pytest.raises(InterfaceExtractionError):
            extract_instance_interface(model)


class TestClassInterfaceExtraction:
    def _interface(self):
        model = class_model_from_python(sample_app.X)
        return extract_class_interface(model, {"X", "Y", "Z"})

    def test_interface_name_and_kind(self):
        interface = self._interface()
        assert interface.name == "X_C_Int"
        assert interface.kind == "class"

    def test_static_field_becomes_accessor_pair(self):
        interface = self._interface()
        assert "get_z" in interface.method_names()
        assert "set_z" in interface.method_names()

    def test_static_method_is_captured_non_statically(self):
        interface = self._interface()
        signature = _signature(interface, "p")
        assert signature is not None
        assert signature.parameter_names == ("i",)

    def test_instance_members_are_not_in_class_interface(self):
        interface = self._interface()
        assert "m" not in interface.method_names()
        assert "get_y" not in interface.method_names()

    def test_class_with_no_statics_yields_empty_interface(self):
        model = class_model_from_python(sample_app.Z)
        interface = extract_class_interface(model)
        assert not interface.methods


class TestExtractInterfacesTogether:
    def test_figure3_interface_shape_for_x(self):
        """Figure 3: X_O_Int has exactly get_y, set_y and m."""
        model = class_model_from_python(sample_app.X)
        interface = extract_instance_interface(model, {"X", "Y", "Z"})
        assert interface.method_names() == ["get_y", "set_y", "m"]

    def test_figure4_interface_shape_for_x(self):
        """Figure 4: X_C_Int has exactly get_z, set_z and p."""
        model = class_model_from_python(sample_app.X)
        interface = extract_class_interface(model, {"X", "Y", "Z"})
        assert interface.method_names() == ["get_z", "set_z", "p"]
