"""Naming service.

A simple flat namespace mapping well-known names to remote references.  One
naming service is shared by every address space of a cluster (the simulated
equivalent of a registry process reachable by all nodes) so applications can
publish an object on one node and look it up from another without passing
references by hand.  It also keeps the cluster's one forward table: relocation
and failover write it (the old node may be down), callers holding a retired
reference read it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro._errors import NamingError
from repro.runtime.remote_ref import RemoteRef

#: A rebind listener: ``(name, old reference or None, new reference)``.
RebindListener = Callable[[str, Optional[RemoteRef], RemoteRef], None]

#: Where a retired reference's object is: its reference, or a function that
#: exports it on first use (an export shifts every later object id).
Forward = Union[RemoteRef, Callable[[], RemoteRef]]


class NamingService:
    """Flat name → reference registry shared by a cluster.

    Because one naming service is shared by every address space, a
    :meth:`rebind` — an object migrated, a replica promoted by failover — is
    immediately visible to lookups from *all* nodes.  Rebind listeners let
    caches (proxy pools, replica managers) invalidate eagerly instead of
    discovering the move on their next lookup.
    """

    def __init__(self) -> None:
        self._bindings: Dict[str, RemoteRef] = {}
        self._rebind_listeners: List[RebindListener] = []
        self._forwards: Dict[RemoteRef, Forward] = {}
        #: The forward table, read-only: retired reference → :data:`Forward`.
        self.forwards = MappingProxyType(self._forwards)

    def rebind(self, name: str, reference: RemoteRef) -> None:
        """Bind ``name`` to ``reference``, replacing any previous binding."""
        previous = self._bindings.get(name)
        self._bindings[name] = reference
        if previous != reference:
            for listener in self._rebind_listeners:
                listener(name, previous, reference)

    def on_rebind(self, listener: RebindListener) -> None:
        """Call ``listener(name, old, new)`` whenever a binding changes."""
        self._rebind_listeners.append(listener)

    def off_rebind(self, listener: RebindListener) -> None:
        """Remove a listener registered with :meth:`on_rebind` (idempotent).

        Long-lived naming services outlive the sessions that observe them;
        a session that registered a listener must be able to detach it on
        close, or repeated sessions in one process leak callbacks.
        """
        try:
            self._rebind_listeners.remove(listener)
        except ValueError:
            pass

    def forward(self, retired: Iterable[RemoteRef], current: Forward) -> None:
        """Publish that the object behind each ``retired`` reference is now at
        ``current``.  Entries that led to a retired reference are re-pointed,
        not chained, so every entry is one hop from where the object is."""
        retired = set(retired)
        for old, new in self._forwards.items():
            if new in retired:
                self._forwards[old] = current
        for old in retired:
            self._forwards[old] = current

    def forwarded(self, reference: RemoteRef) -> Optional[RemoteRef]:
        """Where the object behind a retired ``reference`` lives now, or None
        when ``reference`` was never retired."""
        current = self._forwards.get(reference)
        return current() if callable(current) else current

    def drop_forwards(self, current: RemoteRef) -> None:
        """Forget every entry leading to ``current`` (its object is gone)."""
        for old in [old for old, new in self._forwards.items() if new == current]:
            del self._forwards[old]

    def lookup(self, name: str) -> RemoteRef:
        try:
            return self._bindings[name]
        except KeyError as exc:
            raise NamingError(f"name {name!r} is not bound") from exc

    def maybe_lookup(self, name: str) -> Optional[RemoteRef]:
        return self._bindings.get(name)

    def unbind(self, name: str) -> None:
        if name not in self._bindings:
            raise NamingError(f"name {name!r} is not bound")
        del self._bindings[name]

    def names(self) -> set[str]:
        return set(self._bindings)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings
