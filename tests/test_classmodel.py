"""Unit tests for the class-model intermediate representation."""

from __future__ import annotations


from repro.core.classmodel import (
    ClassModel,
    ClassUniverse,
    ConstructorModel,
    FieldModel,
    MethodModel,
    ParameterModel,
    TypeRef,
    Visibility,
)


class TestTypeRef:
    def test_primitive_types_are_primitive(self):
        for name in ("int", "float", "str", "bool", "None", "bytes"):
            assert TypeRef(name).is_primitive

    def test_container_types_are_containers_not_classes(self):
        assert TypeRef("list").is_container
        assert not TypeRef("list").is_class

    def test_application_type_is_a_class(self):
        ref = TypeRef("Order")
        assert ref.is_class
        assert not ref.is_primitive

    def test_type_ref_is_hashable_and_comparable(self):
        assert TypeRef("X") == TypeRef("X")
        assert len({TypeRef("X"), TypeRef("X"), TypeRef("Y")}) == 2


class TestFieldModel:
    def test_defaults(self):
        field = FieldModel("x")
        assert not field.is_static
        assert not field.is_final
        assert field.visibility is Visibility.PRIVATE


class TestClassModelViews:
    def _model(self) -> ClassModel:
        model = ClassModel("Account", module="bank")
        model.add_field(FieldModel("owner"))
        model.add_field(FieldModel("balance", TypeRef("int")))
        model.add_field(FieldModel("BANK_CODE", is_static=True, is_final=True))
        model.add_method(MethodModel("deposit", (ParameterModel("amount", TypeRef("int")),)))
        model.add_method(MethodModel("open", is_static=True))
        model.add_constructor(ConstructorModel((ParameterModel("owner"),)))
        return model

    def test_instance_and_static_field_views(self):
        model = self._model()
        assert [f.name for f in model.instance_fields] == ["owner", "balance"]
        assert [f.name for f in model.static_fields] == ["BANK_CODE"]

    def test_instance_and_static_method_views(self):
        model = self._model()
        assert [m.name for m in model.instance_methods] == ["deposit"]
        assert [m.name for m in model.static_methods] == ["open"]

    def test_member_names_union(self):
        model = self._model()
        assert model.member_names() == {"owner", "balance", "BANK_CODE", "deposit", "open"}

    def test_lookup_helpers(self):
        model = self._model()
        assert model.get_field("balance").type == TypeRef("int")
        assert model.get_field("missing") is None
        assert model.get_method("deposit") is not None
        assert model.get_method("missing") is None

    def test_add_field_is_idempotent_by_name(self):
        model = self._model()
        before = len(model.fields)
        model.add_field(FieldModel("owner"))
        assert len(model.fields) == before

    def test_has_native_methods_flag(self):
        model = self._model()
        assert not model.has_native_methods
        model.add_method(MethodModel("poke", is_native=True))
        assert model.has_native_methods


class TestReferencedClassNames:
    def test_field_and_signature_types_are_references(self):
        model = ClassModel("Basket")
        model.add_field(FieldModel("owner", TypeRef("Customer")))
        model.add_method(
            MethodModel("add", (ParameterModel("item", TypeRef("Product")),), TypeRef("Receipt"))
        )
        refs = model.referenced_class_names()
        assert {"Customer", "Product", "Receipt"} <= refs

    def test_primitive_types_are_not_references(self):
        model = ClassModel("Basket")
        model.add_field(FieldModel("count", TypeRef("int")))
        assert model.referenced_class_names() == set()

    def test_superclass_and_interfaces_are_references(self):
        model = ClassModel("Child", superclass_name="Parent", interface_names=("Comparable",))
        refs = model.referenced_class_names()
        assert "Parent" in refs and "Comparable" in refs

    def test_self_reference_is_excluded(self):
        model = ClassModel("Node")
        model.referenced_types.add("Node")
        assert "Node" not in model.referenced_class_names()

    def test_constructor_parameter_types_are_references(self):
        model = ClassModel("Session")
        model.add_constructor(ConstructorModel((ParameterModel("store", TypeRef("Store")),)))
        assert "Store" in model.referenced_class_names()


class TestClassUniverse:
    def _universe(self) -> ClassUniverse:
        a = ClassModel("A")
        b = ClassModel("B", superclass_name="A")
        c = ClassModel("C")
        c.referenced_types.add("B")
        c.referenced_types.add("Missing")
        return ClassUniverse([a, b, c])

    def test_lookup(self):
        universe = self._universe()
        assert universe.get("A") is not None
        assert universe.get("B").superclass_name == "A"
        assert universe.get("missing") is None

    def test_unknown_references(self):
        universe = self._universe()
        assert universe.unknown_references() == {"Missing"}

    def test_iteration_and_names(self):
        universe = self._universe()
        assert universe.names() == {"A", "B", "C"}
        assert {m.name for m in universe} == {"A", "B", "C"}
