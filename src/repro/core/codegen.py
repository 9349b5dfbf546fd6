"""The transformation's output: the Python text of every generated artifact.

The paper presents its transformation as source listings — Figures 3, 4 and 5
show the interfaces, implementations and factories generated for the sample
class ``X`` of Figure 2.  This module produces those listings for an arbitrary
class, and the listing *is* the program: :mod:`repro.core.generator` executes
exactly the text emitted here (one ``class`` statement per artifact) and picks
the classes up by name, so what ``repro emit`` prints, what the E2–E4 golden
tests read and what runs are one and the same text.

For every substitutable class ``A`` (paper §2) the artifacts are

* ``A_O_Int`` / ``A_C_Int`` — the abstract instance / static interfaces,
* ``A_O_Local`` / ``A_C_Local`` — the non-remote implementations (the class
  local is a singleton), their bodies rewritten by
  :mod:`repro.core.rewriter` to use accessors, factories and interface types,
* ``A_O_Proxy`` / ``A_C_Proxy`` — every method one ``self._call(member, args)``
  of :class:`~repro.core.metaobject.Proxy`; the transport is not in the text
  but in the binding (the paper's Figures 3–4 show one proxy per protocol
  because Java stubs differ per protocol; here the protocol is the transport
  object the binding names),
* ``A_O_Redirector`` — the rebindable handle for dynamic distribution, and
* ``A_O_Factory`` / ``A_C_Factory`` — the only implementation-aware code:
  ``make``/``init``/``create`` and ``discover``/``clinit``.

The text resolves a handful of names in the namespace it is executed in:
``abc`` and the builtins ``property``, ``staticmethod``, ``classmethod`` and
``NotImplementedError`` bare, and the framework's ``_repro_Proxy``,
``_repro_Redirector``, ``_repro_GenerationError`` and ``_repro_original``
under spellings an application cannot plausibly own
(:func:`repro.core.generator.seed_namespace` puts them there).
``_repro_original(class, member)`` is the
original function of a member whose source cannot be rewritten; it is
installed as it is.
"""

from __future__ import annotations

import ast
from typing import Iterable, Mapping

from repro._errors import RewriteError
from repro.core.classmodel import ClassModel, MethodModel
from repro.core.interfaces import (
    InterfaceModel,
    MethodSignature,
    class_factory_name,
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
from repro.core.rewriter import rewrite_constructor_to_init, rewrite_expression, rewrite_method

_INDENT = "    "
_NO_SOURCE = "# original source unavailable"


class _Scope:
    """What the emitters that rewrite member bodies work in — and where they
    leave the rewritten text per member (the constructor under ``"__init__"``,
    the static initialisers under ``"<clinit>"``)."""

    def __init__(
        self, model: ClassModel, transformed: Iterable[str], universe: Mapping[str, ClassModel]
    ) -> None:
        self.model = model
        self.transformed = frozenset(transformed)
        self.universe = universe
        self.rewritten: dict[str, str] = {}


def _indent(source: str) -> str:
    return "\n".join(_INDENT + line if line.strip() else line for line in source.splitlines())


def _class(
    name: str, bases: str, doc: str, attributes: Mapping[str, object], members: Iterable[str]
) -> str:
    """One ``class`` statement: docstring, class attributes, then the members."""
    body = [f'"""{doc}"""', ""]
    body.extend(f"{key} = {value!r}" for key, value in attributes.items())
    for member in members:
        body.extend(("", member))
    head = f"class {name}({bases}):" if bases else f"class {name}:"
    return head + "\n" + _indent("\n".join(body)) + "\n"


def _forward(signature: MethodSignature, body: str, decorator: str = "") -> str:
    """An interface-shaped method; ``{member}``, ``{args}`` and ``{tuple}`` (the
    arguments as a tuple display) are filled into its one-line ``body``."""
    names = signature.parameter_names
    args = ", ".join(names)
    body = body.format(member=repr(signature.name), args=args, tuple=f"({args}{',' * bool(names)})")
    return f"{decorator}def {signature.name}({', '.join(('self', *names))}):\n{_INDENT}{body}"


def _metadata(model: ClassModel, interface: InterfaceModel, role: str, **more: object) -> dict:
    """The ``_repro_*`` class attributes the runtime, persistence, policy and
    tooling layers read off implementations, proxies and handles."""
    return {
        "_repro_class_name": model.name,
        "_repro_interface_name": interface.name,
        "_repro_role": role,
        **more,
    }


# ---------------------------------------------------------------------------
# Interfaces
# ---------------------------------------------------------------------------

def emit_interface(interface: InterfaceModel) -> str:
    """Emit the abstract interface class for ``interface`` as Python source."""
    return _class(
        interface.name,
        "abc.ABC",
        f"Extracted {interface.kind} interface of class {interface.source_class}.",
        {
            "_repro_interface_name": interface.name,
            "_repro_source_class": interface.source_class,
            "_repro_kind": interface.kind,
        },
        (_forward(signature, "...", "@abc.abstractmethod\n") for signature in interface.methods),
    )


# ---------------------------------------------------------------------------
# Local implementations
# ---------------------------------------------------------------------------

def _local(scope: _Scope, interface: InterfaceModel, *, singleton: bool) -> str:
    """``A_O_Local`` (paper Figure 3, lower half) or, when ``singleton``,
    ``A_C_Local`` (Figure 4, upper half): ``fields → __init__ + get/set +
    property``, then the methods (the former statics, when ``singleton``)."""
    model = scope.model
    fields = [f.name for f in (model.static_fields if singleton else model.instance_fields)]
    # The parameter-less constructor: the original constructor functionality
    # lives in the object factory (paper §2.1).
    slots = "".join(f"\n{_INDENT}self._{name} = None" for name in fields)
    members = ["def __init__(self):" + (slots or f"\n{_INDENT}pass")]
    for name in fields:
        getter, setter = getter_name(name), setter_name(name)
        members.append(f"def {getter}(self):\n{_INDENT}return self._{name}")
        members.append(f"def {setter}(self, {name}):\n{_INDENT}self._{name} = {name}")
        # The property keeps un-rewritten code (members whose source was not
        # available) working while still routing access through the accessors.
        members.append(f"{name} = property({getter}, {setter})")
    for method in model.static_methods if singleton else model.instance_methods:
        members.append(_member(scope, method, force_instance=singleton))
    # Getters and @cacheable members, as core.interfaces.cacheable_members reads them.
    cacheable = interface.cacheable_method_names()
    if not singleton:
        return _class(
            instance_local_name(model.name),
            interface.name,
            f"Local (non-remote) implementation of {interface.name}.",
            _metadata(model, interface, "local", _repro_cacheable_members=cacheable),
            members,
        )
    members.append(
        "# singleton declarations\n"
        "@classmethod\n"
        "def get_me(cls):\n"
        f"{_INDENT}if cls._me is None:\n"
        f"{_INDENT * 2}cls._me = cls()\n"
        f"{_INDENT}return cls._me"
    )
    return _class(
        class_local_name(model.name),
        interface.name,
        f"Singleton implementation of the static members of {model.name}.",
        _metadata(model, interface, "class-local", _repro_cacheable_members=cacheable, _me=None),
        members,
    )


def _member(scope: _Scope, method: MethodModel, *, force_instance: bool) -> str:
    """The rewritten method — or, when its source cannot be rewritten (none,
    native, :class:`RewriteError`), one line installing the original function."""
    model = scope.model
    if not method.is_native:
        try:
            # ``new_name``: an alias (``total = _get_total``) must define its own name.
            source = scope.rewritten[method.name] = rewrite_method(
                method, model, scope.transformed, scope.universe,
                new_name=method.name, force_instance=force_instance,
            )
            return source
        except RewriteError:
            pass
    if method.func is None:
        return (
            f"def {method.name}(self, *args, **kwargs):\n"
            f"{_INDENT}raise NotImplementedError({model.name + '.' + method.name!r})  {_NO_SOURCE}"
        )
    original = f"_repro_original({model.name!r}, {method.name!r})"
    if force_instance:
        # A former static has no receiver parameter: the singleton must not pass one.
        original = f"staticmethod({original})"
    return f"{method.name} = {original}  {_NO_SOURCE}"


# ---------------------------------------------------------------------------
# Proxies and redirectors
# ---------------------------------------------------------------------------

def emit_proxy(model: ClassModel, interface: InterfaceModel, *, kind: str = "instance") -> str:
    """Emit the proxy of ``interface`` (paper Figure 3/4, proxy parts).

    The constructor, ``remote_reference`` and ``_call`` — the one place a call
    leaves the address space — vary neither by class nor by transport and are
    inherited from :class:`~repro.core.metaobject.Proxy`, whose binding
    carries the reference, the calling space and the transport.
    """
    name = instance_proxy_name if kind == "instance" else class_proxy_name
    return _class(
        name(model.name),
        f"_repro_Proxy, {interface.name}",
        "These methods call the real remote object over the transport of the binding.",
        _metadata(
            model, interface, "proxy", _repro_cacheable_members=interface.cacheable_method_names()
        ),
        (
            _forward(signature, "return self._call({member}, {tuple})")
            for signature in interface.methods
        ),
    )


def emit_redirector(model: ClassModel, interface: InterfaceModel) -> str:
    """Emit ``A_O_Redirector``: the rebindable handle implementing ``A_O_Int``.

    Every member delegates through the handle's metaobject, so the underlying
    implementation (local or remote) can be exchanged at run time.
    """
    invoke = "return self.__meta__.invoke({member}"
    return _class(
        redirector_name(model.name),
        f"_repro_Redirector, {interface.name}",
        f"Rebindable handle for {interface.name}: delegates through its metaobject.",
        _metadata(model, interface, "redirector"),
        (
            _forward(signature, invoke + (", {args})" if signature.parameters else ")"))
            for signature in interface.methods
        ),
    )


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def _factory(name: str, doc: str, role: str, model: ClassModel, members: Iterable[str]) -> str:
    attributes = {
        "_repro_class_name": model.name,
        "_repro_role": role,
        # Bound by the generator once the class exists: the application owns
        # the policy, so the factories delegate their choice to it.
        "_repro_application": None,
    }
    return _class(name, "", doc, attributes, members)


def _delegate(operation: str, backend: str, comment: str, model: ClassModel) -> str:
    """``make`` / ``discover``: the implementation-aware operations, answered
    by the application the factory is bound to."""
    return (
        "@classmethod\n"
        f"def {operation}(cls):\n"
        f"{_INDENT}# {comment}\n"
        f"{_INDENT}if cls._repro_application is None:\n"
        f"{_INDENT * 2}raise _repro_GenerationError(\n"
        f"{_INDENT * 3}f'factory {{cls.__name__}} is not bound to an application')\n"
        f"{_INDENT}return cls._repro_application.{backend}({model.name!r})"
    )


def _object_factory(scope: _Scope) -> str:
    """``A_O_Factory`` (paper Figure 5, upper half).

    ``make`` is the only implementation-aware object-creation operation,
    ``init`` replays the original constructor on an interface-typed instance
    and ``create`` composes the two — the rewritten form of ``A(...)``.
    """
    model = scope.model
    init = f"def init(that, *args, **kwargs):\n{_INDENT}pass"
    if model.constructors:
        constructor = model.constructors[0]
        try:
            init = scope.rewritten["__init__"] = rewrite_constructor_to_init(
                constructor, model, scope.transformed, scope.universe
            )
        except RewriteError:
            if constructor.func is not None:
                init = (
                    f"def init(that, *args, **kwargs):\n{_INDENT}_repro_original"
                    f"({model.name!r}, '__init__')(that, *args, **kwargs)  {_NO_SOURCE}"
                )
    members = [
        _delegate(
            "make",
            "_make_instance",
            "the policy determines which implementation of "
            f"{instance_interface_name(model.name)} is used",
            model,
        ),
        "@staticmethod\n" + init,
        "@classmethod\n"
        "def create(cls, *args, **kwargs):\n"
        f"{_INDENT}that = cls.make()\n"
        f"{_INDENT}cls.init(that, *args, **kwargs)\n"
        f"{_INDENT}return that",
    ]
    doc = f"Object factory for {model.name}."
    return _factory(object_factory_name(model.name), doc, "object-factory", model, members)


def _class_factory(scope: _Scope) -> str:
    """``A_C_Factory`` (paper Figure 5, lower half).

    ``discover`` returns the implementation of the static members — the local
    singleton or a proxy to a remote one, as dictated by policy — and
    ``clinit`` replays the original static initialisers on it.  Those whose
    value is a constructor call of a transformed class are emitted in the
    paper's two-step form::

        t = Z_O_Factory.make()
        Z_O_Factory.init(t, ...)
        that.set_z(t)
    """
    model = scope.model
    initialisers = [
        (static_field.name, static_field.initializer)
        for static_field in model.static_fields
        if static_field.initializer is not None
    ]
    # Figure 5's temporary — unless an initialiser reads a name ``t``.
    read = {n.id for _, value in initialisers for n in ast.walk(value) if isinstance(n, ast.Name)}
    temp = "t"
    while temp in read:
        temp += "_"
    body: list[str] = []
    for name, initializer in initialisers:
        body.extend(_static_initializer(scope, name, initializer, temp))
    clinit = "def clinit(that):" + "".join(f"\n{_INDENT}{line}" for line in body or ["pass"])
    scope.rewritten["<clinit>"] = clinit + "\n"
    discover = _delegate(
        "discover", "_discover_class", "obtain the singleton implementing the static members", model
    )
    doc = f"Class (static members) factory for {model.name}."
    members = [discover, "@staticmethod\n" + clinit]
    return _factory(class_factory_name(model.name), doc, "class-factory", model, members)


def _static_initializer(scope: _Scope, field_name: str, initializer: ast.expr, t: str) -> list[str]:
    """The ``clinit`` lines replaying one static initialiser; ``t`` names the temporary."""
    setter = f"that.{setter_name(field_name)}"
    rewritten = rewrite_expression(initializer, scope.model, scope.transformed, scope.universe)
    if not (
        isinstance(initializer, ast.Call)
        and isinstance(initializer.func, ast.Name)
        and initializer.func.id in scope.transformed
    ):
        return [f"{setter}({ast.unparse(rewritten)})"]
    # ``Z(...)`` became ``Z_O_Factory.create(...)``: split it into the paper's two
    # steps, every argument travelling — positional, *starred, keyword, **mapping.
    factory = object_factory_name(initializer.func.id)
    arguments = [t, *(ast.unparse(node) for node in (*rewritten.args, *rewritten.keywords))]
    return [f"{t} = {factory}.make()", f"{factory}.init({', '.join(arguments)})", f"{setter}({t})"]


# ---------------------------------------------------------------------------
# Whole-class emission
# ---------------------------------------------------------------------------

def emit_class_artifacts(
    model: ClassModel, transformed_names: Iterable[str], universe: Mapping[str, ClassModel]
) -> dict[str, str]:
    """Emit the source of every artifact generated for ``model``.

    Returns a mapping from artifact name (e.g. ``"X_O_Int"``) to its source
    text, each interface before the classes that name it.  This is the complete
    analogue of the paper's Figures 3–5 for an arbitrary input class.
    """
    transformed = set(transformed_names) | {model.name}
    instance_interface = extract_instance_interface(model, transformed)
    class_interface = extract_class_interface(model, transformed)
    return emit_artifacts(model, instance_interface, class_interface, transformed, universe)[0]


def emit_artifacts(
    model: ClassModel,
    instance_interface: InterfaceModel,
    class_interface: InterfaceModel,
    transformed: Iterable[str],
    universe: Mapping[str, ClassModel],
) -> tuple[dict[str, str], dict[str, str]]:
    """:func:`emit_class_artifacts` for the transformer, which already holds the
    two interfaces: returns the sources and, beside them, the rewritten text
    per member as the emitters produced it (there is no second rewrite)."""
    name, scope = model.name, _Scope(model, transformed, universe)
    sources: dict[str, str] = {
        instance_interface.name: emit_interface(instance_interface),
        instance_local_name(name): _local(scope, instance_interface, singleton=False),
        class_interface.name: emit_interface(class_interface),
        class_local_name(name): _local(scope, class_interface, singleton=True),
        redirector_name(name): emit_redirector(model, instance_interface),
        object_factory_name(name): _object_factory(scope),
        class_factory_name(name): _class_factory(scope),
        instance_proxy_name(name): emit_proxy(model, instance_interface),
        class_proxy_name(name): emit_proxy(model, class_interface, kind="class"),
    }
    return sources, scope.rewritten
