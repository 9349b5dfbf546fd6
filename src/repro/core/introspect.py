"""Reflection: building :class:`ClassModel` instances from live Python classes.

The paper's transformation operates on bytecode so that applications can be
transformed without their source code.  The Python analogue is reflection:
this module inspects live classes (their attributes, methods, constructor
and, when source is available, their ASTs) and produces the class model that
the analyser, interface extractor, generator and rewriter consume.

Two entry points are provided:

``class_model_from_python``
    Builds a model from a live Python class.

``class_model_from_descriptor``
    Builds a model from a plain-data descriptor (used by the synthetic JDK
    corpus of :mod:`repro.corpus`, where no live code exists).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.core.classmodel import (
    ANY_TYPE,
    ClassModel,
    ConstructorModel,
    FieldModel,
    MethodModel,
    ParameterModel,
    TypeRef,
    Visibility,
    mangle,
)

#: Attribute set on functions marked as native (not inspectable / rewritable).
_NATIVE_MARKER = "_repro_native"

#: Modules whose classes are treated as "system" classes (JVM-special analogue).
SYSTEM_MODULES = frozenset({"builtins", "abc", "typing", "types", "object"})


def native(func: Callable) -> Callable:
    """Mark a method as *native*.

    The paper cannot inspect or transform native (JNI) methods; classes
    containing them are non-transformable (§2.4).  In the Python reproduction
    the analogue is a method whose behaviour is opaque to the framework —
    C extensions, or application methods explicitly excluded from
    transformation.  Decorating a method with ``@native`` declares it as such.
    """

    setattr(func, _NATIVE_MARKER, True)
    return func


def is_native_function(func: object) -> bool:
    """True when ``func`` should be modelled as a native method."""
    if getattr(func, _NATIVE_MARKER, False):
        return True
    return inspect.isbuiltin(func) or isinstance(func, type(len))


# ---------------------------------------------------------------------------
# Annotation and visibility helpers
# ---------------------------------------------------------------------------

def type_ref_from_annotation(annotation: object) -> TypeRef:
    """Convert a Python annotation object (or string) into a :class:`TypeRef`."""
    if annotation is inspect.Signature.empty or annotation is None:
        return ANY_TYPE
    if isinstance(annotation, str):
        # Under ``from __future__ import annotations`` a quoted annotation
        # surfaces as the source text of a string literal ("'Y'"); strip the
        # quoting so the type name is recovered either way.
        return TypeRef(annotation.strip().strip("'\""))
    if isinstance(annotation, type):
        return TypeRef(annotation.__name__)
    name = getattr(annotation, "__name__", None)
    if name:
        return TypeRef(name)
    return TypeRef(str(annotation))


def visibility_of(name: str) -> Visibility:
    """Infer Java-style visibility from Python naming conventions."""
    if name.startswith("__") and not name.endswith("__"):
        return Visibility.PRIVATE
    if name.startswith("_"):
        return Visibility.PROTECTED
    return Visibility.PUBLIC


def _parameters_from_signature(func: object, skip_self: bool = True) -> list[ParameterModel]:
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return []
    parameters: list[ParameterModel] = []
    for index, parameter in enumerate(signature.parameters.values()):
        if skip_self and index == 0 and parameter.name in ("self", "cls"):
            continue
        if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
            continue
        parameters.append(
            ParameterModel(parameter.name, type_ref_from_annotation(parameter.annotation))
        )
    return parameters


def _return_type_from_signature(func: object) -> TypeRef:
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return ANY_TYPE
    return type_ref_from_annotation(signature.return_annotation)


# ---------------------------------------------------------------------------
# AST-based discovery of instance fields and referenced classes
# ---------------------------------------------------------------------------

class _SelfAssignmentCollector(ast.NodeVisitor):
    """Collects ``self.<name> = ...`` targets inside a constructor body."""

    def __init__(self) -> None:
        self.assigned: list[str] = []

    def _record(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr not in self.assigned
        ):
            self.assigned.append(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target)
        self.generic_visit(node)


class _NameReferenceCollector(ast.NodeVisitor):
    """Collects capitalised names used inside a function body.

    These are the candidate class references used to build the reference
    graph that the §2.4 closure follows.  Python has no static types, so the
    collector uses the universal convention that class names are capitalised;
    the caller intersects the result with the set of known classes.
    """

    def __init__(self) -> None:
        self.names: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if node.id[:1].isupper():
            self.names.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id[:1].isupper():
            self.names.add(node.value.id)
        self.generic_visit(node)


class _ClassSyntax:
    """A class's syntax tree: its source read once and parsed once.

    ``tree`` is the ``ClassDef`` (``None`` when the source cannot be read or
    parsed, e.g. a class built by ``exec``).  :meth:`function` finds a member's
    ``def`` by its function's code object — file, name and first line — so an
    alias (``total = _get_total``) and a property setter sharing its getter's
    name both resolve to their own ``def``.
    """

    def __init__(self, cls: type) -> None:
        self.tree: Optional[ast.ClassDef] = None
        self._definitions: dict[tuple[str, str, int], ast.FunctionDef] = {}
        try:
            lines, first = inspect.getsourcelines(cls)
            self.tree = ast.parse(textwrap.dedent("".join(lines))).body[0]
        except (OSError, TypeError, SyntaxError):
            return
        filename = inspect.getfile(cls)
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its first decorator.
                start = (node.decorator_list or [node])[0].lineno + first - 1
                self._definitions[filename, node.name, start] = node

    def function(self, func: object) -> Optional[ast.FunctionDef]:
        """The ``def`` of ``func``; one outside the class body reads its own source."""
        code = getattr(inspect.unwrap(func), "__code__", None)
        if code is None:
            return None
        node = self._definitions.get((code.co_filename, code.co_name, code.co_firstlineno))
        return node if node is not None else _read_function(func)

    def static_initializers(self) -> dict[str, ast.expr]:
        """The value expression of each class-level ``name = ...`` (static initialiser)."""
        initializers: dict[str, ast.expr] = {}
        for statement in self.tree.body if self.tree is not None else ():
            if isinstance(statement, ast.Assign) and isinstance(statement.targets[0], ast.Name):
                initializers[statement.targets[0].id] = statement.value
            elif (
                isinstance(statement, ast.AnnAssign)
                and statement.value is not None
                and isinstance(statement.target, ast.Name)
            ):
                initializers[statement.target.id] = statement.value
        return initializers


def _read_function(func: object) -> Optional[ast.FunctionDef]:
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    except (OSError, TypeError, SyntaxError):
        return None
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return next((node for node in tree.body if isinstance(node, definitions)), None)


def _value_initializer(value: object) -> ast.expr:
    """Without source a static initialiser is the ``repr`` of its value.  One
    that is not Python is kept verbatim (as a name), so the class factory's
    text shows it and fails to compile."""
    text = repr(value)
    try:
        return ast.parse(text, mode="eval").body
    except SyntaxError:
        return ast.Name(id=text, ctx=ast.Load())


# ---------------------------------------------------------------------------
# Live-class introspection
# ---------------------------------------------------------------------------

def class_model_from_python(cls: type) -> ClassModel:
    """Build a :class:`ClassModel` by reflecting over a live Python class.

    Instance fields are discovered from class-level annotations and from
    ``self.<name> = ...`` assignments in ``__init__``.  Class attributes that
    are not callables become static fields; ``staticmethod``/``classmethod``
    members become static methods; everything else defined on the class body
    becomes an instance method.  Methods decorated with
    :func:`native` (or implemented in C) are flagged as native.
    """

    if not inspect.isclass(cls):
        raise TypeError(f"expected a class, got {cls!r}")

    superclass = None
    for base in cls.__bases__:
        if base is not object:
            superclass = base.__name__
            break

    model = ClassModel(
        name=cls.__name__,
        module=cls.__module__,
        superclass_name=superclass,
        is_interface=inspect.isabstract(cls),
        is_exception=issubclass(cls, BaseException),
        is_system=cls.__module__ in SYSTEM_MODULES,
        python_class=cls,
    )

    annotations: Mapping[str, object] = cls.__dict__.get("__annotations__", {})
    syntax = _ClassSyntax(cls)

    # Static field initialisers, recovered from the class body so the class
    # factory's ``clinit`` can replay them (paper §2.3).
    initializers = syntax.static_initializers()

    constructor_func = cls.__dict__.get("__init__")
    constructor_node = syntax.function(constructor_func) if constructor_func else None

    # --- instance fields ---------------------------------------------------
    seen_fields: set[str] = set()
    for name, annotation in annotations.items():
        if name in cls.__dict__ and not callable(cls.__dict__[name]):
            continue  # annotated class attribute with a value: handled as static
        model.add_field(
            FieldModel(
                name=name,
                type=type_ref_from_annotation(annotation),
                visibility=visibility_of(name),
                is_static=False,
            )
        )
        seen_fields.add(name)

    constructor_parameters = (
        _parameters_from_signature(constructor_func) if constructor_func else []
    )
    parameter_types = {parameter.name: parameter.type for parameter in constructor_parameters}
    assigned = _SelfAssignmentCollector()
    if constructor_node is not None:
        assigned.visit(constructor_node)
    for field_name in assigned.assigned:
        # The tree holds names as written: ``self.__count`` is the attribute
        # ``_Counter__count`` in the running program.
        field_name = mangle(cls.__name__, field_name)
        if field_name in seen_fields:
            continue
        model.add_field(
            FieldModel(
                name=field_name,
                type=parameter_types.get(field_name, ANY_TYPE),
                visibility=visibility_of(field_name),
                is_static=False,
            )
        )
        seen_fields.add(field_name)

    # --- class body members -------------------------------------------------
    for name, attribute in cls.__dict__.items():
        if name.startswith("__") and name.endswith("__") and name != "__init__":
            continue
        if name == "__init__":
            continue
        if isinstance(attribute, staticmethod):
            func = attribute.__func__
            model.add_method(_method_model(name, func, syntax, is_static=True))
        elif isinstance(attribute, classmethod):
            func = attribute.__func__
            model.add_method(_method_model(name, func, syntax, is_static=True))
        elif isinstance(attribute, property):
            getter = attribute.fget
            if getter is not None:
                model.add_method(_method_model(name, getter, syntax, is_static=False))
        elif callable(attribute):
            model.add_method(_method_model(name, attribute, syntax, is_static=False))
        else:
            # A class attribute with a value: a static field.
            annotation = annotations.get(name)
            model.add_field(
                FieldModel(
                    name=name,
                    type=(
                        type_ref_from_annotation(annotation)
                        if annotation is not None
                        else TypeRef(type(attribute).__name__)
                    ),
                    visibility=visibility_of(name),
                    is_static=True,
                    is_final=name.isupper(),
                    initializer=initializers.get(name) or _value_initializer(attribute),
                )
            )

    # --- constructors -------------------------------------------------------
    if constructor_func is not None:
        model.add_constructor(
            ConstructorModel(
                parameters=constructor_parameters,
                node=constructor_node,
                func=constructor_func,
            )
        )

    # --- reference graph ----------------------------------------------------
    if syntax.tree is not None:
        references = _NameReferenceCollector()
        references.visit(syntax.tree)
        model.referenced_types.update(references.names)
    model.referenced_types.discard(cls.__name__)
    # The class's own members (e.g. an upper-case constant such as ``K``) are
    # not references to other classes.
    model.referenced_types -= model.member_names()
    return model


def _method_model(name: str, func: object, syntax: _ClassSyntax, is_static: bool) -> MethodModel:
    return MethodModel(
        name=name,
        parameters=_parameters_from_signature(func, skip_self=not is_static),
        return_type=_return_type_from_signature(func),
        visibility=visibility_of(name),
        is_static=is_static,
        is_native=is_native_function(func),
        node=syntax.function(func),
        func=func,
    )


# ---------------------------------------------------------------------------
# Descriptor-based construction (used by the synthetic corpus)
# ---------------------------------------------------------------------------

def class_model_from_descriptor(
    name: str,
    *,
    module: str = "corpus",
    superclass: Optional[str] = None,
    interfaces: Sequence[str] = (),
    instance_fields: Sequence[str] = (),
    static_fields: Sequence[str] = (),
    instance_methods: Sequence[str] = (),
    static_methods: Sequence[str] = (),
    native_methods: Sequence[str] = (),
    references: Iterable[str] = (),
    is_interface: bool = False,
    is_exception: bool = False,
    is_system: bool = False,
) -> ClassModel:
    """Build a :class:`ClassModel` from plain data, without any live code.

    Used by the JDK-like corpus generator, where only the structural
    properties consumed by the §2.4 analysis matter (native methods, special
    classes, inheritance and references).
    """

    model = ClassModel(
        name=name,
        module=module,
        superclass_name=superclass,
        interface_names=tuple(interfaces),
        is_interface=is_interface,
        is_exception=is_exception,
        is_system=is_system,
    )
    for field_name in instance_fields:
        model.add_field(FieldModel(field_name, is_static=False))
    for field_name in static_fields:
        model.add_field(FieldModel(field_name, is_static=True))
    native_set = set(native_methods)
    for method_name in instance_methods:
        model.add_method(
            MethodModel(method_name, is_static=False, is_native=method_name in native_set)
        )
    for method_name in static_methods:
        model.add_method(
            MethodModel(method_name, is_static=True, is_native=method_name in native_set)
        )
    for method_name in native_set:
        if model.get_method(method_name) is None:
            model.add_method(MethodModel(method_name, is_native=True))
    model.referenced_types.update(references)
    model.referenced_types.discard(name)
    return model
