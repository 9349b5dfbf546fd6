"""Intermediate representation of application classes.

The paper's transformations are defined over a class/member model extracted
from Java bytecode (via BCEL).  This module provides the equivalent model for
the Python reproduction: a :class:`ClassModel` describes a class's fields,
methods, constructors, inheritance and the other types it references.  The
rest of ``repro.core`` (analysis, interface extraction, generation and
rewriting) operates exclusively on this representation, so the transformation
pipeline is independent of whether a model came from a live Python class
(:mod:`repro.core.introspect`) or from a synthetic descriptor
(:mod:`repro.corpus`).
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence


class Visibility(enum.Enum):
    """Member visibility, mirroring the Java access levels the paper handles.

    The transformation makes every member public so that it can be captured
    by an extracted interface (paper §2.1); the original visibility is kept
    in the model so the analysis and the generated documentation can report
    what was widened.
    """

    PUBLIC = "public"
    PROTECTED = "protected"
    PACKAGE = "package"
    PRIVATE = "private"


#: Types treated as primitives: passed by value, never substituted.
PRIMITIVE_TYPES = frozenset(
    {
        "int",
        "float",
        "bool",
        "str",
        "bytes",
        "complex",
        "None",
        "void",
        "object",
        "long",
        "double",
        "char",
        "byte",
        "short",
    }
)

#: Built-in container types: passed by value with their elements marshalled
#: individually (elements that are transformed classes pass by reference).
CONTAINER_TYPES = frozenset({"list", "tuple", "dict", "set", "frozenset"})


@dataclass(frozen=True)
class TypeRef:
    """A reference to a type appearing in a signature or a field declaration."""

    name: str

    @property
    def is_primitive(self) -> bool:
        return self.name in PRIMITIVE_TYPES

    @property
    def is_container(self) -> bool:
        return self.name in CONTAINER_TYPES

    @property
    def is_class(self) -> bool:
        """True when the type may refer to an application class."""
        return not (self.is_primitive or self.is_container)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def mangle(class_name: str, name: str) -> str:
    """Python's private-name mangling, spelt out: ``__x`` in ``class Owner`` is
    ``_Owner__x``.  Applied wherever a member's code leaves its class body —
    the result starts with one underscore, so no other class body re-mangles it."""
    if name.startswith("__") and not name.endswith("__"):
        owner = class_name.lstrip("_")
        if owner:
            return f"_{owner}{name}"
    return name


#: Convenience instances used throughout the generators.
ANY_TYPE = TypeRef("object")
VOID_TYPE = TypeRef("None")


@dataclass(frozen=True)
class ParameterModel:
    """A single formal parameter of a method or constructor."""

    name: str
    type: TypeRef = ANY_TYPE

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}: {self.type}"


@dataclass
class FieldModel:
    """A field (attribute) of a class.

    The transformation turns every field into a *property*: a ``get_<name>``
    and ``set_<name>`` accessor pair exposed through the extracted interface
    (paper §2.1).  ``initializer`` is the expression node of a static
    initialiser's right-hand side, replayed by the class factory's ``clinit``
    method (paper §2.3).
    """

    name: str
    type: TypeRef = ANY_TYPE
    visibility: Visibility = Visibility.PRIVATE
    is_static: bool = False
    is_final: bool = False
    initializer: Optional[ast.expr] = None


@dataclass
class MethodModel:
    """A method of a class.

    ``func`` holds the live Python function when the model was built from a
    real class; ``node`` holds its ``def`` when the source is available, so the
    AST rewriter can adapt field accesses, constructor calls and static
    accesses to the interface-and-factory scheme.  The rewriter works on a
    copy: the node is the model's, and a model may be transformed again.
    """

    name: str
    parameters: Sequence[ParameterModel] = ()
    return_type: TypeRef = ANY_TYPE
    visibility: Visibility = Visibility.PUBLIC
    is_static: bool = False
    is_native: bool = False
    is_abstract: bool = False
    node: Optional[ast.FunctionDef] = None
    func: Optional[object] = None


@dataclass
class ConstructorModel:
    """A constructor of a class.

    The transformation adds a parameter-less constructor to every generated
    implementation and moves each original constructor's functionality to a
    matching ``init`` method on the object factory (paper §2.1, §2.3).
    """

    parameters: Sequence[ParameterModel] = ()
    node: Optional[ast.FunctionDef] = None
    func: Optional[object] = None


@dataclass
class ClassModel:
    """The intermediate representation of one application class or interface."""

    name: str
    module: str = "__main__"
    superclass_name: Optional[str] = None
    interface_names: Sequence[str] = ()
    fields: list[FieldModel] = field(default_factory=list)
    methods: list[MethodModel] = field(default_factory=list)
    constructors: list[ConstructorModel] = field(default_factory=list)
    is_interface: bool = False
    is_exception: bool = False
    is_system: bool = False
    referenced_types: set[str] = field(default_factory=set)
    python_class: Optional[type] = None

    # -- member views -------------------------------------------------------

    @property
    def instance_fields(self) -> list[FieldModel]:
        return [f for f in self.fields if not f.is_static]

    @property
    def static_fields(self) -> list[FieldModel]:
        return [f for f in self.fields if f.is_static]

    @property
    def instance_methods(self) -> list[MethodModel]:
        return [m for m in self.methods if not m.is_static]

    @property
    def static_methods(self) -> list[MethodModel]:
        return [m for m in self.methods if m.is_static]

    @property
    def has_native_methods(self) -> bool:
        return any(m.is_native for m in self.methods)

    # -- lookups ------------------------------------------------------------

    def get_field(self, name: str) -> Optional[FieldModel]:
        for field_model in self.fields:
            if field_model.name == name:
                return field_model
        return None

    def get_method(self, name: str) -> Optional[MethodModel]:
        for method in self.methods:
            if method.name == name:
                return method
        return None

    def member_names(self) -> set[str]:
        names = {f.name for f in self.fields}
        names.update(m.name for m in self.methods)
        return names

    def instance_field_names(self) -> set[str]:
        return {f.name for f in self.instance_fields}

    def static_field_names(self) -> set[str]:
        return {f.name for f in self.static_fields}

    # -- reference graph ----------------------------------------------------

    def referenced_class_names(self) -> set[str]:
        """Names of other classes this class references.

        The set combines the explicit ``referenced_types`` (populated by the
        introspector or the corpus generator) with the class types appearing
        in field declarations and member signatures, plus the superclass and
        implemented interfaces.  This is the edge set consumed by the §2.4
        non-transformability closure.
        """

        names: set[str] = set(self.referenced_types)
        if self.superclass_name:
            names.add(self.superclass_name)
        names.update(self.interface_names)
        for field_model in self.fields:
            if field_model.type.is_class:
                names.add(field_model.type.name)
        for method in self.methods:
            if method.return_type.is_class:
                names.add(method.return_type.name)
            for parameter in method.parameters:
                if parameter.type.is_class:
                    names.add(parameter.type.name)
        for constructor in self.constructors:
            for parameter in constructor.parameters:
                if parameter.type.is_class:
                    names.add(parameter.type.name)
        names.discard(self.name)
        return names

    # -- mutation helpers used by the introspector --------------------------

    def add_field(self, field_model: FieldModel) -> FieldModel:
        existing = self.get_field(field_model.name)
        if existing is not None:
            return existing
        self.fields.append(field_model)
        return field_model

    def add_method(self, method: MethodModel) -> MethodModel:
        self.methods.append(method)
        return method

    def add_constructor(self, constructor: ConstructorModel) -> ConstructorModel:
        self.constructors.append(constructor)
        return constructor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClassModel({self.name!r}, fields={len(self.fields)}, "
            f"methods={len(self.methods)}, constructors={len(self.constructors)})"
        )


class ClassUniverse:
    """A closed set of class models indexed by name.

    The transformability analysis needs to follow superclass and reference
    edges between classes; the universe provides that lookup and records
    which names are *unknown* (referenced but not modelled), which the
    analysis treats as non-transformable system classes.
    """

    def __init__(self, models: Iterable[ClassModel] = ()):
        self._models: dict[str, ClassModel] = {}
        for model in models:
            self.add(model)

    def add(self, model: ClassModel) -> ClassModel:
        self._models[model.name] = model
        return model

    def get(self, name: str) -> Optional[ClassModel]:
        return self._models.get(name)

    def __iter__(self) -> Iterator[ClassModel]:
        return iter(self._models.values())

    def names(self) -> set[str]:
        return set(self._models)

    def unknown_references(self) -> set[str]:
        """Names referenced by models in the universe but not defined in it."""
        known = self.names()
        unknown: set[str] = set()
        for model in self:
            unknown.update(ref for ref in model.referenced_class_names() if ref not in known)
        return unknown
