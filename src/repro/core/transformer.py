"""Whole-application transformation driver.

:class:`ApplicationTransformer` takes a set of ordinary (non-distributed)
Python classes, analyses which of them can be transformed, extracts the
interfaces, emits the local implementations, proxies, redirectors and
factories as Python text (:mod:`repro.core.codegen`), executes that text
(:mod:`repro.core.generator`) and returns a :class:`TransformedApplication` —
the componentised, semantically equivalent version of the original program
(paper §4).

The transformed application can then be

* executed entirely within a single address space (the "local version" the
  paper describes as the first step), or
* bound to a cluster of simulated address spaces and driven by a
  :class:`~repro.policy.policy.DistributionPolicy`, in which case its object
  and class factories transparently create remote instances behind proxies
  and, for *dynamic* decisions, rebindable redirector handles whose
  distribution boundary can be changed while the program runs.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro._errors import PolicyError, TransformationError
from repro.core import codegen
from repro.core.analyzer import AnalysisResult, TransformabilityAnalyzer
from repro.core.classmodel import ClassModel, ClassUniverse
from repro.core.generator import (
    ClassArtifacts,
    GenerationContext,
    collect,
    load,
    seed_namespace,
)
from repro.core.interfaces import extract_class_interface, extract_instance_interface
from repro.core.introspect import class_model_from_python
from repro.core.metaobject import KIND_LOCAL, KIND_REMOTE, Metaobject, Proxy
from repro.core.registry import TransformationRegistry
from repro.policy.policy import (
    DistributionPolicy,
    PlacementDecision,
    all_local_policy,
)

_UNBOUND_NODE = "__unbound__"


class TransformedApplication:
    """The componentised, distribution-flexible version of an application."""

    def __init__(
        self,
        registry: TransformationRegistry,
        analysis: AnalysisResult,
        policy: DistributionPolicy,
    ) -> None:
        self.registry = registry
        self.analysis = analysis
        self.policy = policy
        self._cluster = None
        self._default_space = None
        self._space_stack: list[Any] = []
        self._singletons: dict[tuple[str, str], Any] = {}
        self._singleton_refs: dict[tuple[str, str], Any] = {}
        self._handles: list[Any] = []

    # ------------------------------------------------------------------
    # Artifact access
    # ------------------------------------------------------------------

    def artifacts(self, class_name: str) -> ClassArtifacts:
        return self.registry.artifacts(class_name)

    def factory(self, class_name: str) -> type:
        return self.artifacts(class_name).object_factory

    def class_factory(self, class_name: str) -> type:
        return self.artifacts(class_name).class_factory

    def transformed_classes(self) -> set[str]:
        return self.registry.class_names()

    def is_transformed(self, class_name: str) -> bool:
        return class_name in self.registry

    # ------------------------------------------------------------------
    # Convenience creation API
    # ------------------------------------------------------------------

    def new(self, class_name: str, *args: Any, **kwargs: Any) -> Any:
        """Create an instance via the object factory (policy applies)."""
        return self.factory(class_name).create(*args, **kwargs)

    def statics(self, class_name: str) -> Any:
        """The implementation of the class's static members (policy applies)."""
        return self.class_factory(class_name).discover()

    def emit_sources(self, class_name: str) -> dict[str, str]:
        """The generated artifacts of one class as Python source text: the
        text that was executed to create the live classes, not a rendering."""
        return dict(self.artifacts(class_name).sources)

    # ------------------------------------------------------------------
    # Runtime binding
    # ------------------------------------------------------------------

    def check_transports(self, registered: set[str]) -> None:
        """Refuse, with a :class:`~repro.api.errors.PolicyError`, a remote
        placement over a transport not in ``registered``; :meth:`deploy` checks
        the cluster's.  A local decision carries the default transport and
        never uses it, so it is not checked."""
        policy = self.policy
        for name in sorted(self.transformed_classes()):
            for decision in (policy.instance_decision(name), policy.static_decision(name)):
                if decision.is_remote and decision.transport not in registered:
                    raise PolicyError(
                        f"class {name!r} is placed on {decision.node_id!r} via transport "
                        f"{decision.transport!r}, which the cluster does not register "
                        f"(transports: {', '.join(sorted(registered))})"
                    )

    @property
    def cluster(self):
        return self._cluster

    @property
    def is_bound(self) -> bool:
        return self._cluster is not None

    def deploy(self, cluster, *, default_node: Optional[str] = None) -> None:
        """Bind to ``cluster``; the policy decides where each class goes.

        A remote placement over a transport the cluster does not register is
        refused first.  Every space learns about the application (so its
        dispatcher can build proxies for incoming references) and registers it
        as a dispatch hook (so nested invocations attribute their traffic to
        the correct node).
        """
        self.check_transports(cluster.transports.names())
        self._cluster = cluster
        self._default_space = cluster.space(default_node or cluster.default_node_id)
        for space in cluster.spaces():
            space.application = self
            space.add_dispatch_hook(self)

    # -- dispatch context (which space is currently executing) ---------------

    @property
    def current_space(self):
        if self._space_stack:
            return self._space_stack[-1]
        return self._default_space

    def before_dispatch(self, space) -> None:
        self._space_stack.append(space)

    def after_dispatch(self, space) -> None:
        if self._space_stack and self._space_stack[-1] is space:
            self._space_stack.pop()

    def _current_node_id(self) -> str:
        space = self.current_space
        return space.node_id if space is not None else _UNBOUND_NODE

    def executing_on(self, node_id: str):
        """Context manager: run the enclosed code as if it executed on ``node_id``.

        Used by workloads and benchmarks to model application code running on
        different nodes of the cluster (e.g. clients on separate machines
        calling into a shared object); factory decisions and traffic
        accounting are attributed to that node while the context is active.
        """

        application = self

        class _ExecutionContext:
            def __enter__(self):
                space = application._cluster.space(node_id)
                application.before_dispatch(space)
                return space

            def __exit__(self, exc_type, exc, tb):
                application.after_dispatch(application._cluster.space(node_id))
                return False

        if not self.is_bound:
            raise TransformationError(
                "executing_on() requires the application to be deployed to a cluster"
            )
        return _ExecutionContext()

    # ------------------------------------------------------------------
    # Factory back-ends (the only implementation-aware operations)
    # ------------------------------------------------------------------

    def _make_instance(self, class_name: str) -> Any:
        """Backs ``A_O_Factory.make``: choose and create an implementation."""
        artifacts = self.artifacts(class_name)
        decision = self._effective_instance_decision(class_name)

        if not decision.is_remote or decision.node_id == self._current_node_id():
            implementation: Any = artifacts.local_cls()
            if decision.dynamic:
                return self._wrap_dynamic(
                    artifacts, implementation, KIND_LOCAL, self._current_node_id()
                )
            return implementation

        target_space = self._cluster.space(decision.node_id)
        implementation = artifacts.local_cls()
        reference = target_space.export(implementation)
        proxy = self.proxy_for_ref(
            reference, self.current_space, transport=decision.transport
        )
        if decision.dynamic:
            return self._wrap_dynamic(artifacts, proxy, KIND_REMOTE, decision.node_id)
        return proxy

    def _discover_class(self, class_name: str) -> Any:
        """Backs ``A_C_Factory.discover``: locate the static-member singleton."""
        decision = self._effective_static_decision(class_name)
        if not decision.is_remote or decision.node_id == self._current_node_id():
            return self._singleton_on_node(class_name, self._current_node_id())
        reference = self._remote_singleton_ref(class_name, decision.node_id)
        return self.proxy_for_ref(
            reference, self.current_space, transport=decision.transport, kind="class"
        )

    def _effective_instance_decision(self, class_name: str) -> PlacementDecision:
        if not self.is_bound or not self.policy.is_substitutable(class_name):
            return PlacementDecision()
        return self.policy.instance_decision(class_name)

    def _effective_static_decision(self, class_name: str) -> PlacementDecision:
        if not self.is_bound or not self.policy.is_substitutable(class_name):
            return PlacementDecision()
        return self.policy.static_decision(class_name)

    def _singleton_on_node(self, class_name: str, node_id: str) -> Any:
        key = (node_id, class_name)
        if key not in self._singletons:
            artifacts = self.artifacts(class_name)
            singleton = artifacts.class_local_cls()
            self._singletons[key] = singleton
            artifacts.class_factory.clinit(singleton)
        return self._singletons[key]

    def _remote_singleton_ref(self, class_name: str, node_id: str):
        key = (node_id, class_name)
        if key not in self._singleton_refs:
            target_space = self._cluster.space(node_id)
            singleton = self._singleton_on_node(class_name, node_id)
            self._singleton_refs[key] = target_space.export(singleton)
        return self._singleton_refs[key]

    # ------------------------------------------------------------------
    # Proxy and handle management
    # ------------------------------------------------------------------

    def proxy_for_ref(
        self,
        reference,
        space,
        *,
        transport: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> Any:
        """Build a proxy bound to ``reference``, usable from ``space``, over
        ``transport`` (by default the one the policy names for the class).

        The name is checked against the cluster's transports before anything
        is built, so a caller that re-binds a handle to the result never
        re-binds it to an unknown transport: that is an
        :class:`~repro.api.errors.UnknownTransportError`.
        """
        interface_name = reference.interface_name
        artifacts = self.registry.artifacts_for_interface(interface_name)
        if kind is None:
            kind = self.registry.interface_kind(interface_name)
        instance = kind == "instance"
        if transport is None:
            decide = self.policy.instance_decision if instance else self.policy.static_decision
            transport = decide(artifacts.class_name).transport
        self._cluster.transports.framing(transport)  # raises for an unregistered name
        proxy_cls = artifacts.proxy_cls if instance else artifacts.class_proxy_cls
        return proxy_cls(reference, space, transport)

    def _wrap_dynamic(
        self, artifacts: ClassArtifacts, target: Any, kind: str, node_id: Optional[str]
    ) -> Any:
        metaobject = Metaobject(
            target,
            kind,
            interface_name=artifacts.instance_interface.name,
            node_id=node_id,
            application=self,
        )
        handle = artifacts.redirector_cls(metaobject)
        self._handles.append(handle)
        return handle

    def _remote_leg(self, metaobject: Metaobject) -> tuple[Any, str]:
        """The ``(proxy, transport)`` a handle's calls leave the node through.

        Resolved once per binding (the metaobject keeps it until the next
        rebind).  A handle bound to a proxy uses that proxy.  One bound to a
        local implementation and called from another node has the target
        exported from its home space (on the first such call, not before:
        object ids reach the wire) and a proxy built for it; that proxy's own
        space is never used — the metaobject passes the caller's on every
        call, so that latency and traffic are attributed to the correct link.
        """
        from repro.runtime.remote_ref import reference_of

        target = metaobject.target
        reference = reference_of(target)
        if reference is None:
            reference = self._cluster.space(metaobject.node_id).export(target)
        class_name = self.registry.artifacts_for_interface(reference.interface_name).class_name
        # The wire does not move yet: the policy's transport, not the one of
        # the binding set_transport re-bound (target._transport) — the strict
        # xfail in tests/test_redistribution.py; flipping this line
        # re-baselines the figure1_boundary workload.
        transport = self.policy.instance_decision(class_name).transport
        if not isinstance(target, Proxy):
            target = self.proxy_for_ref(reference, self.current_space, transport=transport)
        return target, transport

    def handles(self) -> list[Any]:
        """Every rebindable handle the factories have produced so far."""
        return list(self._handles)


class ApplicationTransformer:
    """Transforms a set of ordinary classes into a flexible application."""

    def __init__(
        self,
        policy: Optional[DistributionPolicy] = None,
        *,
        special_class_names: Iterable[str] = (),
        strict: bool = False,
    ) -> None:
        self.policy = policy if policy is not None else all_local_policy()
        self.special_class_names = set(special_class_names)
        #: When strict, asking to transform a non-transformable class raises
        #: instead of silently leaving the class untouched.
        self.strict = strict

    # ------------------------------------------------------------------

    def transform(self, classes: Iterable[type | ClassModel]) -> TransformedApplication:
        models = [self._as_model(entry) for entry in classes]
        if not models:
            raise TransformationError("no classes supplied for transformation")
        universe = ClassUniverse(models)

        # A class the policy makes unsubstitutable — by an entry, exact or
        # pattern, or by its default — is excluded from the analysis.
        policy = self.policy
        analyzer = TransformabilityAnalyzer(
            universe,
            special_class_names=self.special_class_names,
            excluded={model.name for model in models if not policy.is_substitutable(model.name)},
        )
        analysis = analyzer.analyse()

        substitutable = {model.name for model in models if analysis.is_transformable(model.name)}
        if self.strict:
            for model in models:
                if model.name not in substitutable:
                    analysis.require_transformable(model.name)

        registry = TransformationRegistry()
        application = TransformedApplication(registry, analysis, self.policy)
        context = GenerationContext(
            transformed_names=frozenset(substitutable),
            universe={model.name: model for model in models},
            namespace=registry.namespace,
            application=application,
        )
        seed_namespace(context, models)

        # Pass 1: emit every class's artifacts and load the interfaces, so that
        # the base classes and adapted annotations that the rest of the text
        # names exist whatever the order of the classes.
        pending: list[tuple[ClassArtifacts, list[str]]] = []
        for model in models:
            if model.name not in substitutable:
                continue
            artifacts = ClassArtifacts(
                model=model,
                instance_interface=extract_instance_interface(model, substitutable),
                class_interface=extract_class_interface(model, substitutable),
            )
            artifacts.sources, artifacts.rewritten_sources = codegen.emit_artifacts(
                model,
                artifacts.instance_interface,
                artifacts.class_interface,
                substitutable,
                context.universe,
            )
            interfaces = (artifacts.instance_interface.name, artifacts.class_interface.name)
            load(context, artifacts, interfaces)
            pending.append((artifacts, [n for n in artifacts.sources if n not in interfaces]))

        # Pass 2: implementations, proxies, redirectors and factories.
        for artifacts, remaining in pending:
            load(context, artifacts, remaining)
            collect(context, artifacts)
            registry.register(artifacts)

        return application

    # ------------------------------------------------------------------

    @staticmethod
    def _as_model(entry: type | ClassModel) -> ClassModel:
        if isinstance(entry, ClassModel):
            return entry
        if isinstance(entry, type):
            return class_model_from_python(entry)
        raise TransformationError(
            f"cannot transform {entry!r}: expected a class or a ClassModel"
        )
