"""AST rewriting of method bodies to use interfaces and factories.

Every reference to a substitutable class must be transformed to use the
extracted interface (paper §1/§2).  For the Python reproduction this means
rewriting method and constructor bodies so that

* direct field access goes through the generated accessors
  (``self.y`` → ``self.get_y()``, ``self.y = v`` → ``self.set_y(v)``),
* object creation goes through the object factory
  (``Y(args)`` → ``Y_O_Factory.create(args)``, the composition of the
  factory's ``make`` and ``init`` methods),
* access to static members goes through the class-factory singleton
  (``Y.K`` → ``Y_C_Factory.discover().get_K()``,
  ``Y.p(i)`` → ``Y_C_Factory.discover().p(i)``),
* type annotations naming transformed classes are adapted to the
  corresponding instance interfaces (``Y`` → ``Y_O_Int``), and
* private names are spelt as the original class body mangled them
  (``self.__n`` → ``self._Owner__n``), because the code leaves that class.

The rewriter serves one purpose: :mod:`repro.core.codegen` places the text it
returns in the bodies of the emitted ``*_O_Local``/``*_C_Local`` classes and
factories — the paper's Figures 3–5 listings, which are also what executes.
It reads the syntax trees the class model carries and rewrites a copy of
each, so the model can be transformed again.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro._errors import RewriteError
from repro.core.classmodel import ClassModel, ConstructorModel, MethodModel, mangle
from repro.core.interfaces import (
    class_factory_name,
    getter_name,
    instance_interface_name,
    object_factory_name,
    setter_name,
)


@dataclass
class RewriteContext:
    """Everything the rewriter needs to know about the surrounding program."""

    #: The class whose member is being rewritten.
    owner: ClassModel
    #: Names of all classes selected for transformation.
    transformed_names: frozenset[str]
    #: Class models for transformed classes (for static-member lookups).
    universe: Mapping[str, ClassModel]
    #: The name bound to the receiving object inside the rewritten body
    #: (``self`` for methods, ``that`` for factory ``init``/``clinit``).
    self_name: str = "self"
    #: Field names of the owner that must be routed through accessors.
    field_names: frozenset[str] = frozenset()
    #: Static field names of the owner; ``self.<static>`` reads inside
    #: instance methods are routed through the class-factory singleton.
    own_static_fields: frozenset[str] = frozenset()

    def is_transformed(self, name: str) -> bool:
        return name in self.transformed_names

    def static_members_of(self, class_name: str) -> tuple[set[str], set[str]]:
        """Return (static field names, static method names) of ``class_name``."""
        model = self.universe.get(class_name)
        if model is None:
            return set(), set()
        return (
            {field.name for field in model.static_fields},
            {method.name for method in model.static_methods},
        )


class _AccessRewriter(ast.NodeTransformer):
    """The AST transformer implementing the rewrite rules."""

    def __init__(self, context: RewriteContext) -> None:
        self.context = context

    # -- helpers --------------------------------------------------------------

    def _mangle(self, name: str) -> str:
        return mangle(self.context.owner.name, name)

    def _is_self(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == self.context.self_name

    def _self_field(self, node: ast.expr) -> Optional[str]:
        """Return the field name when ``node`` is ``self.<field>`` of the owner."""
        if isinstance(node, ast.Attribute) and self._is_self(node.value):
            name = self._mangle(node.attr)
            if name in self.context.field_names:
                return name
        return None

    def _static_target(self, node: ast.expr) -> Optional[tuple[str, str]]:
        """Return (class name, member) for ``C.member`` on a transformed class."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and self.context.is_transformed(node.value.id)
        ):
            return node.value.id, self._mangle(node.attr)
        return None

    @staticmethod
    def _call(func: ast.expr, args: list[ast.expr] | None = None) -> ast.Call:
        return ast.Call(func=func, args=args or [], keywords=[])

    @staticmethod
    def _attr(value: ast.expr, name: str) -> ast.Attribute:
        return ast.Attribute(value=value, attr=name, ctx=ast.Load())

    def _discover_call(self, class_name: str) -> ast.Call:
        """Build ``<C>_C_Factory.discover()``."""
        factory = ast.Name(id=class_factory_name(class_name), ctx=ast.Load())
        return self._call(self._attr(factory, "discover"))

    def _self_getter(self, field: str) -> ast.Call:
        receiver = ast.Name(id=self.context.self_name, ctx=ast.Load())
        return self._call(self._attr(receiver, getter_name(field)))

    def _self_setter(self, field: str, value: ast.expr) -> ast.Expr:
        receiver = ast.Name(id=self.context.self_name, ctx=ast.Load())
        call = self._call(self._attr(receiver, setter_name(field)), [value])
        return ast.Expr(value=call)

    # -- rule: field reads ------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        node.attr = self._mangle(node.attr)
        self.generic_visit(node)
        if not isinstance(node.ctx, ast.Load):
            return node
        field = self._self_field(node)
        if field is not None:
            return ast.copy_location(self._self_getter(field), node)
        if (
            isinstance(node, ast.Attribute)
            and self._is_self(node.value)
            and node.attr in self.context.own_static_fields
        ):
            # Instance code reading a static field of its own class goes
            # through the class-factory singleton.
            replacement = self._call(
                self._attr(
                    self._discover_call(self.context.owner.name), getter_name(node.attr)
                )
            )
            return ast.copy_location(replacement, node)
        static = self._static_target(node)
        if static is not None:
            class_name, member = static
            static_fields, static_methods = self.context.static_members_of(class_name)
            if member in static_fields:
                # C.K  ->  C_C_Factory.discover().get_K()
                replacement = self._call(
                    self._attr(self._discover_call(class_name), getter_name(member))
                )
                return ast.copy_location(replacement, node)
            if member in static_methods:
                # C.p  ->  C_C_Factory.discover().p   (call node supplies args)
                replacement = self._attr(self._discover_call(class_name), member)
                return ast.copy_location(replacement, node)
        return node

    # -- rule: field writes -----------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> ast.AST:
        node.value = self.visit(node.value)
        statements: list[ast.stmt] = []
        plain_targets: list[ast.expr] = []
        for target in node.targets:
            field = self._self_field(target)
            static = self._static_target(target)
            if field is not None:
                statements.append(
                    ast.copy_location(self._self_setter(field, node.value), node)
                )
            elif static is not None:
                class_name, member = static
                static_fields, _ = self.context.static_members_of(class_name)
                if member in static_fields:
                    call = self._call(
                        self._attr(self._discover_call(class_name), setter_name(member)),
                        [node.value],
                    )
                    statements.append(ast.copy_location(ast.Expr(value=call), node))
                else:
                    plain_targets.append(self.visit(target))
            else:
                plain_targets.append(self.visit(target))
        if plain_targets:
            statements.append(
                ast.copy_location(
                    ast.Assign(targets=plain_targets, value=node.value), node
                )
            )
        if len(statements) == 1:
            return statements[0]
        return statements

    def visit_AugAssign(self, node: ast.AugAssign) -> ast.AST:
        node.value = self.visit(node.value)
        field = self._self_field(node.target)
        if field is None:
            node.target = self.visit(node.target)
            return node
        # self.f op= v   ->   self.set_f(self.get_f() op v)
        combined = ast.BinOp(left=self._self_getter(field), op=node.op, right=node.value)
        return ast.copy_location(self._self_setter(field, combined), node)

    # -- rule: constructor calls ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        if (
            isinstance(node.func, ast.Name)
            and self.context.is_transformed(node.func.id)
        ):
            factory = ast.Name(id=object_factory_name(node.func.id), ctx=ast.Load())
            node.func = ast.copy_location(self._attr(factory, "create"), node.func)
        return node

    # -- rule: private names (the remaining node kinds a class body mangles) -----

    def visit_Name(self, node: ast.Name) -> ast.AST:
        node.id = self._mangle(node.id)
        return node

    def visit_keyword(self, node: ast.keyword) -> ast.AST:
        if node.arg is not None:
            node.arg = self._mangle(node.arg)
        return self.generic_visit(node)

    # -- rule: adapted annotations ----------------------------------------------

    def _adapt_annotation(self, annotation: Optional[ast.expr]) -> Optional[ast.expr]:
        """Rewrite an annotation naming a transformed class to its interface."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Name) and self.context.is_transformed(annotation.id):
            return ast.Name(id=instance_interface_name(annotation.id), ctx=ast.Load())
        if (
            isinstance(annotation, ast.Constant)
            and isinstance(annotation.value, str)
            and self.context.is_transformed(annotation.value)
        ):
            return ast.Constant(value=instance_interface_name(annotation.value))
        return annotation

    def visit_arg(self, node: ast.arg) -> ast.AST:
        node.arg = self._mangle(node.arg)
        node.annotation = self._adapt_annotation(node.annotation)
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        node.name = self._mangle(node.name)
        self.generic_visit(node)
        node.returns = self._adapt_annotation(node.returns)
        node.decorator_list = []
        return node


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def rewrite_method(
    method: MethodModel,
    owner: ClassModel,
    transformed_names: Iterable[str],
    universe: Mapping[str, ClassModel],
    *,
    new_name: Optional[str] = None,
    self_name: str = "self",
    force_instance: bool = False,
) -> str:
    """Rewrite one method body; returns the new function source text.

    ``force_instance`` converts a static method into an instance method with
    a leading ``self`` parameter — used when generating ``*_C_Local``
    implementations, where static members are made non-static (paper §2.2).
    """

    if method.node is None:
        raise RewriteError(f"no source available for {owner.name}.{method.name}")
    function = copy.deepcopy(method.node)
    if new_name:
        function.name = new_name

    field_names = (
        frozenset(owner.static_field_names())
        if method.is_static
        else frozenset(owner.instance_field_names())
    )
    context = RewriteContext(
        owner=owner,
        transformed_names=frozenset(transformed_names),
        universe=universe,
        self_name=self_name,
        field_names=field_names,
        own_static_fields=(
            frozenset() if method.is_static else frozenset(owner.static_field_names())
        ),
    )

    if force_instance and method.is_static:
        _ensure_leading_parameter(function, self_name)
        _rewrite_own_static_references(function, owner, context)

    rewriter = _AccessRewriter(context)
    function = rewriter.visit(function)
    return ast.unparse(function)


def rewrite_constructor_to_init(
    constructor: ConstructorModel,
    owner: ClassModel,
    transformed_names: Iterable[str],
    universe: Mapping[str, ClassModel],
    *,
    that_name: str = "that",
) -> str:
    """Rewrite a constructor body into the object factory's ``init`` method.

    The original constructor functionality moves to the factory (paper §2.1,
    §2.3): the receiver becomes an explicit ``that`` parameter of interface
    type and field assignments become accessor calls on it.
    """

    if constructor.node is None:
        raise RewriteError(f"no source available for {owner.name}.__init__")
    function = copy.deepcopy(constructor.node)
    function.name = "init"
    _rename_first_parameter(function, that_name)

    context = RewriteContext(
        owner=owner,
        transformed_names=frozenset(transformed_names),
        universe=universe,
        self_name=that_name,
        field_names=frozenset(owner.instance_field_names()),
    )
    rewriter = _AccessRewriter(context)
    function = rewriter.visit(function)
    return ast.unparse(function)


def rewrite_expression(
    expression: ast.expr,
    owner: ClassModel,
    transformed_names: Iterable[str],
    universe: Mapping[str, ClassModel],
    *,
    self_name: str = "that",
) -> ast.expr:
    """Rewrite a copy of a bare expression (a static initialiser in ``clinit``)."""
    context = RewriteContext(
        owner=owner,
        transformed_names=frozenset(transformed_names),
        universe=universe,
        self_name=self_name,
        field_names=frozenset(),
    )
    return _AccessRewriter(context).visit(copy.deepcopy(expression))


# ---------------------------------------------------------------------------
# Static-to-instance conversion helpers
# ---------------------------------------------------------------------------

def _ensure_leading_parameter(function: ast.FunctionDef, name: str) -> None:
    existing = [argument.arg for argument in function.args.args]
    if existing[:1] != [name]:
        function.args.args.insert(0, ast.arg(arg=name, annotation=None))


def _rename_first_parameter(function: ast.FunctionDef, name: str) -> None:
    if not function.args.args:
        function.args.args.append(ast.arg(arg=name, annotation=None))
        return
    old = function.args.args[0].arg
    function.args.args[0] = ast.arg(arg=name, annotation=None)

    class _Renamer(ast.NodeTransformer):
        def visit_Name(self, node: ast.Name) -> ast.AST:
            if node.id == old:
                return ast.copy_location(ast.Name(id=name, ctx=node.ctx), node)
            return node

    _Renamer().visit(function)


def _rewrite_own_static_references(
    function: ast.FunctionDef, owner: ClassModel, context: RewriteContext
) -> None:
    """Turn ``Owner.member`` references inside the owner's own static methods
    into ``self.member`` so the normal accessor rewriting applies.

    In the generated ``*_C_Local`` singleton the former statics are plain
    instance members, so a static method body referring to its own class's
    statics must address them through the receiver (paper Figure 4:
    ``return get_z().q(i)``).
    """

    static_fields = {field.name for field in owner.static_fields}
    static_methods = {method.name for method in owner.static_methods}
    own_members = static_fields | static_methods
    self_name = context.self_name

    class _OwnStaticRewriter(ast.NodeTransformer):
        def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
            self.generic_visit(node)
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == owner.name
                and node.attr in own_members
            ):
                node.value = ast.copy_location(
                    ast.Name(id=self_name, ctx=ast.Load()), node.value
                )
            return node

    _OwnStaticRewriter().visit(function)
