"""Distribution policy (paper §1, §2.3).

Policy dictates which classes are substitutable and which proxy
implementations are used.  The object-creation method ``make`` and the
class-discovery method ``discover`` are the only implementation-aware
operations in the transformed program; both delegate their choice to a
:class:`DistributionPolicy`.

A policy maps class names to :class:`ClassPolicy` entries; each entry says
whether the class participates in substitution at all and, if so, what
:class:`PlacementDecision` its factories should apply: keep instances local,
create them on a remote node behind a proxy of a given transport, and whether
handles should be *dynamic* (rebindable at run time, enabling the adaptive
redistribution of experiment E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro._errors import PolicyError

#: Placement kinds understood by the factories.
KIND_LOCAL = "local"
KIND_REMOTE = "remote"

#: The transport used when a remote decision does not name one explicitly.
DEFAULT_TRANSPORT = "rmi"


@dataclass(frozen=True)
class PlacementDecision:
    """What the factories should do when creating instances of one class."""

    kind: str = KIND_LOCAL
    node_id: Optional[str] = None
    transport: str = DEFAULT_TRANSPORT
    #: When True the factory wraps the implementation in a rebindable
    #: redirector handle so the distribution boundary can change later.
    dynamic: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LOCAL, KIND_REMOTE):
            raise PolicyError(f"unknown placement kind {self.kind!r}")
        if self.kind == KIND_REMOTE and self.node_id is None:
            raise PolicyError("a remote placement decision requires a node_id")

    @property
    def is_remote(self) -> bool:
        return self.kind == KIND_REMOTE


#: Decisions reused throughout the tests and examples.
LOCAL_DECISION = PlacementDecision(kind=KIND_LOCAL)
LOCAL_DYNAMIC_DECISION = PlacementDecision(kind=KIND_LOCAL, dynamic=True)


def remote(node_id: str, transport: str = DEFAULT_TRANSPORT, dynamic: bool = False) -> PlacementDecision:
    """Convenience constructor for a remote placement decision."""
    return PlacementDecision(kind=KIND_REMOTE, node_id=node_id, transport=transport, dynamic=dynamic)


def local(dynamic: bool = False) -> PlacementDecision:
    """Convenience constructor for a local placement decision."""
    return PlacementDecision(kind=KIND_LOCAL, dynamic=dynamic)


@dataclass
class ClassPolicy:
    """Policy entry for one class."""

    substitutable: bool = True
    #: Placement applied by ``A_O_Factory.make``.
    instances: PlacementDecision = field(default_factory=PlacementDecision)
    #: Placement applied by ``A_C_Factory.discover`` (where the statics live).
    statics: PlacementDecision = field(default_factory=PlacementDecision)


class DistributionPolicy:
    """Per-class distribution decisions with a configurable default.

    The default entry applies to classes with no explicit configuration; the
    paper's flexible-deployment story is exactly that the *same* transformed
    program can be driven by different policies without further change.
    """

    def __init__(
        self,
        default: Optional[ClassPolicy] = None,
        entries: Optional[Mapping[str, ClassPolicy]] = None,
    ) -> None:
        self._default = default or ClassPolicy()
        self._entries: Dict[str, ClassPolicy] = dict(entries or {})

    # -- configuration ---------------------------------------------------------

    @property
    def default(self) -> ClassPolicy:
        return self._default

    def set_class(
        self,
        class_name: str,
        *,
        substitutable: bool = True,
        instances: Optional[PlacementDecision] = None,
        statics: Optional[PlacementDecision] = None,
    ) -> ClassPolicy:
        entry = ClassPolicy(
            substitutable=substitutable,
            instances=instances or PlacementDecision(),
            statics=statics or PlacementDecision(),
        )
        self._entries[class_name] = entry
        return entry

    def place_instances(self, class_name: str, decision: PlacementDecision) -> None:
        entry = self._entry_for_update(class_name)
        entry.instances = decision

    def place_statics(self, class_name: str, decision: PlacementDecision) -> None:
        entry = self._entry_for_update(class_name)
        entry.statics = decision

    def _entry_for_update(self, class_name: str) -> ClassPolicy:
        if class_name not in self._entries:
            default = self._default
            self._entries[class_name] = ClassPolicy(
                substitutable=default.substitutable,
                instances=default.instances,
                statics=default.statics,
            )
        return self._entries[class_name]

    # -- queries ----------------------------------------------------------------

    def for_class(self, class_name: str) -> ClassPolicy:
        return self._entries.get(class_name, self._default)

    def is_substitutable(self, class_name: str) -> bool:
        return self.for_class(class_name).substitutable

    def instance_decision(self, class_name: str) -> PlacementDecision:
        return self.for_class(class_name).instances

    def static_decision(self, class_name: str) -> PlacementDecision:
        return self.for_class(class_name).statics

    def configured_classes(self) -> set[str]:
        return set(self._entries)

    def excluded_classes(self) -> set[str]:
        return {
            name for name, entry in self._entries.items() if not entry.substitutable
        }

    # -- composition --------------------------------------------------------------

    def copy(self) -> "DistributionPolicy":
        entries = {
            name: ClassPolicy(entry.substitutable, entry.instances, entry.statics)
            for name, entry in self._entries.items()
        }
        return DistributionPolicy(
            default=ClassPolicy(
                self._default.substitutable, self._default.instances, self._default.statics
            ),
            entries=entries,
        )

    def merged_with(self, other: "DistributionPolicy") -> "DistributionPolicy":
        """Entries of ``other`` override entries of ``self``."""
        merged = self.copy()
        for name in other.configured_classes():
            merged._entries[name] = other.for_class(name)
        return merged


def all_local_policy(dynamic: bool = False) -> DistributionPolicy:
    """A policy that keeps every class local (the single-address-space case)."""
    return DistributionPolicy(
        default=ClassPolicy(
            substitutable=True,
            instances=local(dynamic=dynamic),
            statics=local(dynamic=dynamic),
        )
    )


def place_classes_on(
    placements: Mapping[str, str],
    transport: str = DEFAULT_TRANSPORT,
    dynamic: bool = False,
) -> DistributionPolicy:
    """Build a policy that creates instances of given classes on given nodes.

    ``placements`` maps class name to node identifier; statics follow the
    instances of their class.
    """

    policy = all_local_policy(dynamic=dynamic)
    for class_name, node_id in placements.items():
        decision = remote(node_id, transport=transport, dynamic=dynamic)
        policy.set_class(class_name, instances=decision, statics=decision)
    return policy
