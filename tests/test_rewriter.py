"""Unit tests for the AST rewriter that adapts method bodies."""

from __future__ import annotations

import ast

import pytest

import sample_app
from repro.api.errors import RewriteError
from repro.core.introspect import class_model_from_python
from repro.core.rewriter import (
    rewrite_constructor_to_init,
    rewrite_expression,
    rewrite_method,
)


def _universe():
    models = {
        cls.__name__: class_model_from_python(cls)
        for cls in (sample_app.X, sample_app.Y, sample_app.Z)
    }
    return models


TRANSFORMED = {"X", "Y", "Z"}


class TestFieldAccessRewriting:
    def test_field_read_becomes_getter_call(self):
        models = _universe()
        rewritten = rewrite_method(models["X"].get_method("m"), models["X"], TRANSFORMED, models)
        assert "self.get_y().n(j)" in rewritten
        assert "self.y" not in rewritten

    def test_field_write_becomes_setter_call(self):
        class Tank:
            def __init__(self):
                self.level = 0

            def fill(self, amount):
                self.level = amount
                return self.level

        model = class_model_from_python(Tank)
        rewritten = rewrite_method(model.get_method("fill"), model, {"Tank"}, {"Tank": model})
        assert "self.set_level(amount)" in rewritten
        assert "return self.get_level()" in rewritten

    def test_augmented_assignment_is_expanded(self):
        class Meter:
            def __init__(self):
                self.reading = 0

            def tick(self, step):
                self.reading += step

        model = class_model_from_python(Meter)
        rewritten = rewrite_method(model.get_method("tick"), model, {"Meter"}, {"Meter": model})
        assert "self.set_reading(self.get_reading() + step)" in rewritten

    def test_non_field_attributes_are_untouched(self):
        class Formatter:
            def __init__(self):
                self.width = 10

            def pad(self, text):
                return text.ljust(self.width)

        model = class_model_from_python(Formatter)
        rewritten = rewrite_method(model.get_method("pad"), model, {"Formatter"}, {"Formatter": model})
        assert "text.ljust(self.get_width())" in rewritten

    def test_chained_access_through_field(self):
        models = _universe()
        rewritten = rewrite_method(models["X"].get_method("m"), models["X"], TRANSFORMED, models)
        # self.y.n(j)  ->  self.get_y().n(j): the call on the fetched value stays.
        assert ".n(j)" in rewritten


class TestConstructorAndStaticRewriting:
    def test_constructor_call_goes_through_factory(self):
        class Builder:
            def __init__(self):
                self.product = None

            def build(self, base):
                self.product = Y(base)  # noqa: F821 - resolved at run time
                return self.product

        model = class_model_from_python(Builder)
        models = _universe()
        models["Builder"] = model
        rewritten = rewrite_method(model.get_method("build"), model, TRANSFORMED | {"Builder"}, models)
        assert "Y_O_Factory.create(base)" in rewritten

    def test_static_field_access_goes_through_class_factory(self):
        class Reader:
            def __init__(self):
                self.last = 0

            def read(self):
                self.last = Y.K  # noqa: F821
                return self.last

        model = class_model_from_python(Reader)
        models = _universe()
        models["Reader"] = model
        rewritten = rewrite_method(model.get_method("read"), model, TRANSFORMED | {"Reader"}, models)
        assert "Y_C_Factory.discover().get_K()" in rewritten

    def test_static_method_call_goes_through_class_factory(self):
        class Caller:
            def use(self, i):
                return X.p(i)  # noqa: F821

        model = class_model_from_python(Caller)
        models = _universe()
        models["Caller"] = model
        rewritten = rewrite_method(model.get_method("use"), model, TRANSFORMED | {"Caller"}, models)
        assert "X_C_Factory.discover().p(i)" in rewritten

    def test_untransformed_class_calls_are_untouched(self):
        class Wrapper:
            def wrap(self, items):
                return list(items)

        model = class_model_from_python(Wrapper)
        rewritten = rewrite_method(model.get_method("wrap"), model, {"Wrapper"}, {"Wrapper": model})
        assert "list(items)" in rewritten

    def test_own_static_method_rewritten_to_receiver(self):
        """Figure 4: inside X_C_Local, p uses get_z() on the receiver."""
        models = _universe()
        rewritten = rewrite_method(
            models["X"].get_method("p"), models["X"], TRANSFORMED, models, force_instance=True
        )
        assert "def p(self, i" in rewritten
        assert "self.get_z().q(i)" in rewritten

    def test_instance_method_reading_own_static_field(self):
        class Counter:
            shared_total = 0

            def __init__(self):
                self.local = 0

            def snapshot(self):
                return self.shared_total

        model = class_model_from_python(Counter)
        rewritten = rewrite_method(
            model.get_method("snapshot"), model, {"Counter"}, {"Counter": model}
        )
        assert "Counter_C_Factory.discover().get_shared_total()" in rewritten


class TestConstructorToInit:
    def test_init_takes_that_parameter_and_uses_setters(self):
        """Figure 5: init(that, y) performs that.set_y(y)."""
        models = _universe()
        model = models["X"]
        rewritten = rewrite_constructor_to_init(
            model.constructors[0], model, TRANSFORMED, models
        )
        assert rewritten.startswith("def init(that, y")
        assert "that.set_y(y)" in rewritten
        assert "self" not in rewritten

    def test_constructor_computing_values(self):
        class Rectangle:
            def __init__(self, width, height):
                self.width = width
                self.height = height
                self.area = width * height

        model = class_model_from_python(Rectangle)
        rewritten = rewrite_constructor_to_init(
            model.constructors[0], model, {"Rectangle"}, {"Rectangle": model}
        )
        assert "that.set_width(width)" in rewritten
        assert "that.set_area(width * height)" in rewritten

    def test_missing_source_raises(self):
        models = _universe()
        model = models["X"]
        constructor = model.constructors[0]
        constructor.node = None
        with pytest.raises(RewriteError):
            rewrite_constructor_to_init(constructor, model, TRANSFORMED, models)


class TestExpressionRewriting:
    def test_static_initializer_expression(self):
        """Figure 5: Z(Y.K) becomes factory creation with a discovered constant."""
        models = _universe()
        initializer = models["X"].get_field("z").initializer
        rewritten = rewrite_expression(initializer, models["X"], TRANSFORMED, models)
        assert ast.unparse(rewritten) == "Z_O_Factory.create(Y_C_Factory.discover().get_K())"

    def test_plain_literal_expression_is_untouched(self):
        models = _universe()
        rewritten = rewrite_expression(
            models["Y"].get_field("K").initializer, models["Y"], TRANSFORMED, models
        )
        assert ast.unparse(rewritten) == "42"

    def test_the_model_keeps_its_trees(self):
        """The rewriter works on copies: a model can be transformed again."""
        models = _universe()
        model = models["X"]
        initializer, p = model.get_field("z").initializer, model.get_method("p")
        for _ in range(2):
            rewritten = rewrite_expression(initializer, model, TRANSFORMED, models)
            assert ast.unparse(rewritten) == "Z_O_Factory.create(Y_C_Factory.discover().get_K())"
            assert "self.get_z().q(i)" in rewrite_method(
                p, model, TRANSFORMED, models, force_instance=True
            )
        assert ast.unparse(initializer) == "Z(Y.K)"
        assert ast.unparse(p.node).endswith("return X.z.q(i)")


class TestAnnotationsAndErrors:
    def test_annotations_are_adapted_to_interfaces(self):
        class Service:
            def __init__(self):
                self.backend = None

            def attach(self, backend: "Y") -> "Y":  # noqa: F821
                self.backend = backend
                return backend

        model = class_model_from_python(Service)
        models = _universe()
        models["Service"] = model
        rewritten = rewrite_method(
            model.get_method("attach"), model, TRANSFORMED | {"Service"}, models
        )
        assert "Y_O_Int" in rewritten

    def test_method_without_source_raises(self):
        models = _universe()
        method = models["X"].get_method("m")
        method.node = None
        with pytest.raises(RewriteError):
            rewrite_method(method, models["X"], TRANSFORMED, models)

    def test_rewritten_source_is_valid_python(self):
        models = _universe()
        rewritten = rewrite_method(models["X"].get_method("m"), models["X"], TRANSFORMED, models)
        compile(rewritten, "<test>", "exec")
