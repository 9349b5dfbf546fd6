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

A key holding any of ``*?[`` is a glob pattern (:func:`fnmatch.fnmatchcase`):
``set_class("*Service", instances=remote("server"))`` places every class
whose name ends in ``Service`` without naming it.  A class's exact entry wins;
otherwise the first pattern that matches, in the order the patterns were set;
otherwise the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Dict, Mapping, Optional

from repro._errors import PolicyError

#: Placement kinds understood by the factories.
KIND_LOCAL = "local"
KIND_REMOTE = "remote"

#: The transport used when a remote decision does not name one explicitly.
DEFAULT_TRANSPORT = "rmi"

#: A class key holding any of these is a glob pattern, not a class name.
_GLOB_CHARS = frozenset("*?[")


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
    A policy built without a ``default`` leaves it unstated: it reads as
    :class:`ClassPolicy` ``()``, and :meth:`merged_with` keeps the other
    side's default for it.
    """

    def __init__(
        self,
        default: Optional[ClassPolicy] = None,
        entries: Optional[Mapping[str, ClassPolicy]] = None,
    ) -> None:
        self._default = default or ClassPolicy()
        self._default_stated = default is not None
        self._entries: Dict[str, ClassPolicy] = {}
        #: Glob pattern -> entry, in the order ``for_class`` tries them.
        self._patterns: Dict[str, ClassPolicy] = {}
        for name, entry in (entries or {}).items():
            table = self._entries if _GLOB_CHARS.isdisjoint(name) else self._patterns
            table[name] = entry

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
        """Set the entry of ``class_name``, a class name or a glob pattern."""
        entry = ClassPolicy(
            substitutable=substitutable,
            instances=instances or PlacementDecision(),
            statics=statics or PlacementDecision(),
        )
        table = self._entries if _GLOB_CHARS.isdisjoint(class_name) else self._patterns
        table.pop(class_name, None)
        table[class_name] = entry
        return entry

    # -- queries ----------------------------------------------------------------

    def for_class(self, class_name: str) -> ClassPolicy:
        entry = self._entries.get(class_name)
        if entry is not None:
            return entry
        if self._patterns:
            for pattern, entry in self._patterns.items():
                if fnmatchcase(class_name, pattern):
                    return entry
        return self._default

    def is_substitutable(self, class_name: str) -> bool:
        return self.for_class(class_name).substitutable

    def instance_decision(self, class_name: str) -> PlacementDecision:
        return self.for_class(class_name).instances

    def static_decision(self, class_name: str) -> PlacementDecision:
        return self.for_class(class_name).statics

    # -- composition --------------------------------------------------------------

    def copy(self) -> "DistributionPolicy":
        """An independent policy with the same default, entries and patterns."""
        stated = replace(self._default) if self._default_stated else None
        copied = DistributionPolicy(default=stated)
        copied._entries = {name: replace(entry) for name, entry in self._entries.items()}
        copied._patterns = {pattern: replace(entry) for pattern, entry in self._patterns.items()}
        return copied

    def merged_with(self, other: "DistributionPolicy") -> "DistributionPolicy":
        """Entries of ``other`` override entries of ``self``; its patterns are
        tried before those of ``self``, and a default it states replaces ours."""
        merged, theirs = self.copy(), other.copy()
        if other._default_stated:
            merged._default, merged._default_stated = theirs._default, True
        merged._entries.update(theirs._entries)
        for pattern, entry in merged._patterns.items():
            theirs._patterns.setdefault(pattern, entry)
        merged._patterns = theirs._patterns
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
