"""Unit tests for reflection-based class-model construction."""

from __future__ import annotations

import ast
import functools
import inspect
import sys
from collections import Counter

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
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.workloads import orders
from repro.workloads.figure1 import A, B, C


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
        assert ast.unparse(z_field.initializer) == "Z(Y.K)"

    def test_y_static_constant(self):
        model = class_model_from_python(sample_app.Y)
        k_field = model.get_field("K")
        assert k_field is not None and k_field.is_static
        assert k_field.is_final  # upper-case names are treated as final
        assert ast.unparse(k_field.initializer) == "42"

    def test_constructor_parameters(self):
        model = class_model_from_python(sample_app.X)
        assert [p.name for p in model.constructors[0].parameters] == ["y"]

    def test_method_source_is_available(self):
        model = class_model_from_python(sample_app.X)
        assert "self.y.n(j)" in ast.unparse(model.get_method("m").node)

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


def _outside(self, amount):
    return amount + 1


def _logged(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return func(*args, **kwargs)

    return wrapper


class TestMemberDefinitions:
    """A member's ``def`` is found in the one class tree by its code object."""

    def test_alias_and_property_resolve_to_their_own_def(self):
        class Basket:
            def __init__(self):
                self.items = []

            def add(self, item):
                self.items.append(item)

            put = add

            @property
            def size(self):
                return len(self.items)

            @size.setter
            def size(self, value):
                raise AttributeError(value)

        model = class_model_from_python(Basket)
        assert model.get_method("put").node is model.get_method("add").node
        assert model.get_method("put").node.name == "add"
        size = model.get_method("size").node
        assert size.name == "size" and isinstance(size.body[0], ast.Return)  # the getter

    def test_decorated_member_resolves_through_its_wrapper(self):
        class Audited:
            @_logged
            def total(self, amount):
                return amount * 2

        node = class_model_from_python(Audited).get_method("total").node
        assert node.name == "total" and ast.unparse(node.body[0]) == "return amount * 2"

    def test_member_defined_outside_the_class_body_reads_its_own_source(self):
        class Borrower:
            bump = _outside

        node = class_model_from_python(Borrower).get_method("bump").node
        assert node.name == "_outside" and ast.unparse(node.body[0]) == "return amount + 1"


#: The class sets whose transformation the source-read budget holds.
BUDGET_SETS = {
    "figure1": (A, B, C),
    "figure2": (sample_app.X, sample_app.Y, sample_app.Z),
    "orders": (orders.Catalog, orders.OrderStore, orders.CustomerSession),
}


@pytest.mark.parametrize("label", sorted(BUDGET_SETS))
def test_each_class_is_read_once_and_parsed_once(label, monkeypatch):
    """Source reads (``inspect.getsource``/``getsourcelines``) and ``ast.parse``
    calls made from ``repro`` while transforming three classes: one each per
    class.  The module parse inside ``inspect`` that finds a class is not ours."""
    counts: Counter = Counter()

    def counted(module, name, kind):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("repro."):
                counts[kind] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(inspect, "getsource", "read")
    counted(inspect, "getsourcelines", "read")
    counted(ast, "parse", "parse")
    ApplicationTransformer(all_local_policy()).transform(BUDGET_SETS[label])
    assert counts == {"read": 3, "parse": 3}


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
