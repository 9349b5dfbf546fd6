"""Loading the generated artifacts: the emitted listing is the program.

:mod:`repro.core.codegen` is the single implementation of the transformation's
output — the Python text of ``A_O_Int``, ``A_O_Local``, ``A_O_Proxy``,
``A_O_Redirector``, ``A_O_Factory`` and their ``_C_`` counterparts (paper §2,
Figures 3–5).  This module makes that text live and does nothing else:

* :func:`seed_namespace` puts the handful of names the text relies on into the
  registry's shared namespace, next to the globals of the application's own
  modules (which rewritten method bodies refer to),
* :func:`load` executes the text, one ``class`` statement per artifact, in
  that namespace — so a method of ``X`` can call ``Y_O_Factory.create(...)``
  although ``Y``'s artifacts are loaded after ``X``'s, and
* :func:`collect` picks the classes up by name into a :class:`ClassArtifacts`
  and binds the two factories to the application that owns the policy.
"""

from __future__ import annotations

import abc
import linecache
import sys
import zlib
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Iterable, Mapping

from repro._errors import GenerationError
from repro.core.classmodel import ClassModel
from repro.core.interfaces import (
    InterfaceModel,
    class_factory_name,
    class_local_name,
    class_proxy_name,
    instance_local_name,
    instance_proxy_name,
    object_factory_name,
    redirector_name,
)
from repro.core.metaobject import Proxy, Redirector

#: What the generated text uses bare.  An application module that rebinds one
#: of these names to something else cannot share a namespace with it.
_BARE_NAMES: Mapping[str, Any] = {
    "abc": abc,
    "property": property,
    "staticmethod": staticmethod,
    "classmethod": classmethod,
    "NotImplementedError": NotImplementedError,
}


@dataclass
class GenerationContext:
    """Shared state threaded through the per-class generation steps."""

    #: Names of every class selected for transformation.
    transformed_names: frozenset[str]
    #: Class models by name (for static member lookups during rewriting, and
    #: for ``_repro_original`` when the text installs an original function).
    universe: Mapping[str, ClassModel]
    #: The shared exec namespace; rewritten method bodies resolve factory and
    #: interface names through it, so artifacts become visible to previously
    #: loaded methods as soon as their text has run.
    namespace: dict[str, Any]
    #: The application object that owns policy and runtime bindings; factories
    #: delegate their implementation choice to it.
    application: Any = None


@dataclass
class ClassArtifacts:
    """Every artifact generated for one original class."""

    model: ClassModel
    instance_interface: InterfaceModel
    class_interface: InterfaceModel
    instance_interface_cls: type = None
    class_interface_cls: type = None
    local_cls: type = None
    class_local_cls: type = None
    redirector_cls: type = None
    proxy_cls: type = None
    class_proxy_cls: type = None
    object_factory: type = None
    class_factory: type = None
    #: The text that was executed, by artifact name — the listing of Figures 3–5.
    sources: dict[str, str] = dataclass_field(default_factory=dict)
    #: Rewritten source text per member, as the emitters produced it.
    rewritten_sources: dict[str, str] = dataclass_field(default_factory=dict)

    @property
    def class_name(self) -> str:
        return self.model.name


def seed_namespace(ctx: GenerationContext, models: Iterable[ClassModel]) -> None:
    """Put into ``ctx.namespace`` what the generated text resolves there.

    First the framework's own names, spelt ``_repro_*`` so that an application
    class called ``Proxy`` keeps working; then, without overriding them, the
    globals of the original modules, which rewritten bodies refer to.  A module
    global that rebinds one of :data:`_BARE_NAMES` would be picked up by the
    generated text instead of the builtin — refused by name, never executed.
    """
    universe = ctx.universe

    def original(class_name: str, member: str) -> Callable:
        """The original function of a member whose source cannot be rewritten."""
        model = universe[class_name]
        if member == "__init__":
            return model.constructors[0].func
        return model.get_method(member).func

    ctx.namespace.update(
        abc=abc,
        _repro_Proxy=Proxy,
        _repro_Redirector=Redirector,
        _repro_GenerationError=GenerationError,
        _repro_original=original,
    )
    for model in models:
        module = sys.modules.get(getattr(model.python_class, "__module__", None))
        if module is None:
            continue
        for name, value in vars(module).items():
            if _BARE_NAMES.get(name, value) is not value:
                raise GenerationError(
                    f"module {module.__name__!r} rebinds {name!r}, which the generated "
                    f"code of {model.name!r} uses as the builtin; rename the global"
                )
            ctx.namespace.setdefault(name, value)


def source_filename(name: str, source: str) -> str:
    """The file name the text ``source`` of artifact ``name`` is compiled under.

    It carries a checksum of the text: two transformations that emit
    different text for one artifact name get two :mod:`linecache` entries, so
    neither overwrites the lines the other's tracebacks show.  (CRC-32, not
    :mod:`hashlib`, whose OpenSSL library would add megabytes to every
    process that transforms.)
    """
    return f"<repro-generated {name} {zlib.crc32(source.encode()):08x}>"


def load(ctx: GenerationContext, artifacts: ClassArtifacts, names: Iterable[str]) -> None:
    """Execute the emitted text of the named artifacts in the shared namespace.

    ``compile`` inherits this module's ``from __future__ import annotations``,
    so a rewritten ``def init(that, y: Y_O_Int)`` never evaluates its
    annotation; base classes are evaluated, hence interfaces load first.
    Each text is registered with :mod:`linecache` under its code's file name
    (:func:`source_filename`), so a traceback through a generated method shows
    the generated line; the entry has no ``mtime``, which
    ``linecache.checkcache`` leaves alone.
    """
    for name in names:
        source = artifacts.sources[name]
        filename = source_filename(name, source)
        try:
            code = compile(source, filename, "exec")
        except SyntaxError as exc:  # pragma: no cover - defensive
            raise GenerationError(f"generated source for {name} does not compile: {exc}") from exc
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        exec(code, ctx.namespace)


def collect(ctx: GenerationContext, artifacts: ClassArtifacts) -> None:
    """Fill ``artifacts`` with the loaded classes, looked up by name, and bind
    the factories to the application they delegate to."""
    loaded, name = ctx.namespace, artifacts.class_name
    artifacts.instance_interface_cls = loaded[artifacts.instance_interface.name]
    artifacts.class_interface_cls = loaded[artifacts.class_interface.name]
    artifacts.local_cls = loaded[instance_local_name(name)]
    artifacts.class_local_cls = loaded[class_local_name(name)]
    artifacts.redirector_cls = loaded[redirector_name(name)]
    artifacts.proxy_cls = loaded[instance_proxy_name(name)]
    artifacts.class_proxy_cls = loaded[class_proxy_name(name)]
    artifacts.object_factory = loaded[object_factory_name(name)]
    artifacts.class_factory = loaded[class_factory_name(name)]
    artifacts.object_factory._repro_application = ctx.application
    artifacts.class_factory._repro_application = ctx.application
