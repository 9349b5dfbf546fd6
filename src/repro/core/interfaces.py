"""Interface extraction (paper §2.1 and §2.2).

For every substitutable class ``A`` two interfaces are extracted:

``A_O_Int``
    Captures the functionality of A's *instance* members.  Every attribute is
    first turned into a property — a ``get_<name>``/``set_<name>`` accessor
    pair — because direct field access cannot be intercepted; all members are
    made public so they can appear in the interface.

``A_C_Int``
    Captures the functionality of A's *static* members.  Interfaces cannot
    capture static functionality, so static members are made non-static and
    then treated exactly like instance members; the uniqueness semantics of
    the statics is restored by requiring every implementation of ``A_C_Int``
    to be a singleton.

Affected type signatures are adapted so that any type which is itself a
transformed class is replaced by its instance interface — this is what makes
remote and non-remote versions of a class interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro._errors import InterfaceExtractionError
from repro.core.classmodel import (
    ANY_TYPE,
    ClassModel,
    FieldModel,
    MethodModel,
    ParameterModel,
    TypeRef,
    VOID_TYPE,
)


# ---------------------------------------------------------------------------
# Naming scheme (matches the paper's A_O_Int / A_C_Int / A_O_Local / ... names)
# ---------------------------------------------------------------------------

def instance_interface_name(class_name: str) -> str:
    return f"{class_name}_O_Int"


def class_interface_name(class_name: str) -> str:
    return f"{class_name}_C_Int"


def instance_local_name(class_name: str) -> str:
    return f"{class_name}_O_Local"


def class_local_name(class_name: str) -> str:
    return f"{class_name}_C_Local"


def instance_proxy_name(class_name: str) -> str:
    return f"{class_name}_O_Proxy"


def class_proxy_name(class_name: str) -> str:
    return f"{class_name}_C_Proxy"


def object_factory_name(class_name: str) -> str:
    return f"{class_name}_O_Factory"


def class_factory_name(class_name: str) -> str:
    return f"{class_name}_C_Factory"


def redirector_name(class_name: str) -> str:
    return f"{class_name}_O_Redirector"


def getter_name(field_name: str) -> str:
    return f"get_{field_name}"


def setter_name(field_name: str) -> str:
    return f"set_{field_name}"


# ---------------------------------------------------------------------------
# Method cacheability metadata
# ---------------------------------------------------------------------------

#: Attribute carrying a member's cacheability marker on live functions.
CACHEABLE_ATTR = "_repro_cacheable"


def cacheable(func):
    """Mark a method as side-effect-free and therefore result-cacheable.

    A ``@cacheable`` method's return value depends only on the target
    object's current state and the call's arguments, and calling it mutates
    nothing — so a client-side cache
    (:class:`~repro.runtime.caching.CacheManager`) may serve repeated calls
    locally, and the owning address space knows that dispatching it never
    needs a write-invalidation broadcast.  Any member *not* marked cacheable
    is conservatively treated as mutating.
    """
    setattr(func, CACHEABLE_ATTR, True)
    return func


def is_cacheable(func) -> bool:
    """Whether ``func`` carries the :func:`cacheable` marker."""
    return bool(getattr(func, CACHEABLE_ATTR, False))


def cacheable_members(cls: type) -> frozenset[str]:
    """The names of ``cls``'s members marked :func:`cacheable`.

    Walks the MRO so markers survive subclassing; plain attributes and
    properties are ignored (only callables can carry the marker).
    """
    names: set[str] = set()
    for klass in type.mro(cls) if isinstance(cls, type) else [cls]:
        for name, value in vars(klass).items():
            if is_cacheable(value):
                names.add(name)
    explicit = getattr(cls, "_repro_cacheable_members", None)
    if explicit:
        names.update(explicit)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Interface model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSignature:
    """A single method signature in an extracted interface."""

    name: str
    parameters: tuple[ParameterModel, ...] = ()
    return_type: TypeRef = ANY_TYPE
    #: Name of the field this signature accesses, when it is an accessor.
    accessor_for: Optional[str] = None
    #: "get", "set" or None.
    accessor_kind: Optional[str] = None
    #: Whether the member is side-effect-free and result-cacheable (field
    #: getters always are; plain methods inherit their :func:`cacheable`
    #: marker from the source class).
    cacheable: bool = False

    @property
    def is_accessor(self) -> bool:
        return self.accessor_for is not None

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(parameter.name for parameter in self.parameters)


@dataclass
class InterfaceModel:
    """An extracted interface (either ``A_O_Int`` or ``A_C_Int``)."""

    name: str
    source_class: str
    kind: str  # "instance" or "class"
    methods: list[MethodSignature] = field(default_factory=list)

    def method_names(self) -> list[str]:
        return [signature.name for signature in self.methods]

    def accessors(self) -> list[MethodSignature]:
        return [signature for signature in self.methods if signature.is_accessor]

    def cacheable_method_names(self) -> tuple[str, ...]:
        """The names of this interface's cacheable (side-effect-free) members."""
        return tuple(
            signature.name for signature in self.methods if signature.cacheable
        )


# ---------------------------------------------------------------------------
# Type adaptation
# ---------------------------------------------------------------------------

def adapt_type(type_ref: TypeRef, transformed_names: Iterable[str]) -> TypeRef:
    """Map a type to its instance interface when it is a transformed class.

    Primitive and container types are left untouched; a reference to a
    transformed class ``Y`` becomes ``Y_O_Int`` so that generated code only
    ever names interface types (paper §2: "The generated code uses only
    interface types so that substitution of implementations can be made
    easily").
    """

    if type_ref.is_class and type_ref.name in set(transformed_names):
        return TypeRef(instance_interface_name(type_ref.name))
    return type_ref


def adapt_parameters(
    parameters: Sequence[ParameterModel], transformed_names: Iterable[str]
) -> tuple[ParameterModel, ...]:
    names = set(transformed_names)
    return tuple(
        ParameterModel(parameter.name, adapt_type(parameter.type, names))
        for parameter in parameters
    )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def _accessor_signatures(
    field_model: FieldModel, transformed_names: Iterable[str]
) -> tuple[MethodSignature, MethodSignature]:
    """Build the get/set pair for a field (direct access is not interceptable)."""
    value_type = adapt_type(field_model.type, transformed_names)
    getter = MethodSignature(
        name=getter_name(field_model.name),
        parameters=(),
        return_type=value_type,
        accessor_for=field_model.name,
        accessor_kind="get",
        cacheable=True,
    )
    setter = MethodSignature(
        name=setter_name(field_model.name),
        parameters=(ParameterModel(field_model.name, value_type),),
        return_type=VOID_TYPE,
        accessor_for=field_model.name,
        accessor_kind="set",
    )
    return getter, setter


def _method_signature(
    method: MethodModel, transformed_names: Iterable[str]
) -> MethodSignature:
    return MethodSignature(
        name=method.name,
        parameters=adapt_parameters(method.parameters, transformed_names),
        return_type=adapt_type(method.return_type, transformed_names),
        cacheable=is_cacheable(method.func),
    )


def extract_instance_interface(
    model: ClassModel, transformed_names: Iterable[str] = ()
) -> InterfaceModel:
    """Extract ``A_O_Int`` from a class model.

    Every instance field contributes a get/set accessor pair and every
    instance method contributes its (type-adapted) signature.  All members
    are public in the interface regardless of their original visibility —
    safe because the input code has already been verified by a compiler.
    """

    if model.is_interface:
        raise InterfaceExtractionError(
            f"{model.name} is already an interface; instance interface extraction "
            "applies to concrete classes"
        )
    names = set(transformed_names) | {model.name}
    interface = InterfaceModel(
        name=instance_interface_name(model.name),
        source_class=model.name,
        kind="instance",
    )
    for field_model in model.instance_fields:
        getter, setter = _accessor_signatures(field_model, names)
        interface.methods.append(getter)
        interface.methods.append(setter)
    for method in model.instance_methods:
        interface.methods.append(_method_signature(method, names))
    return interface


def extract_class_interface(
    model: ClassModel, transformed_names: Iterable[str] = ()
) -> InterfaceModel:
    """Extract ``A_C_Int`` from a class model.

    Static members are made non-static (interfaces cannot capture statics)
    and then treated exactly as instance members: static fields become
    accessor pairs and static methods keep their signatures.  Uniqueness is
    restored by the singleton requirement on implementations (enforced by the
    generator, not by the interface).
    """

    names = set(transformed_names) | {model.name}
    interface = InterfaceModel(
        name=class_interface_name(model.name),
        source_class=model.name,
        kind="class",
    )
    for field_model in model.static_fields:
        getter, setter = _accessor_signatures(field_model, names)
        interface.methods.append(getter)
        interface.methods.append(setter)
    for method in model.static_methods:
        interface.methods.append(_method_signature(method, names))
    return interface
