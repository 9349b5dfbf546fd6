"""Naming service.

A simple flat namespace mapping well-known names to remote references.  One
naming service is shared by every address space of a cluster (the simulated
equivalent of a registry process reachable by all nodes) so applications can
publish an object on one node and look it up from another without passing
references by hand.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro._errors import NamingError
from repro.runtime.remote_ref import RemoteRef

#: A rebind listener: ``(name, old reference or None, new reference)``.
RebindListener = Callable[[str, Optional[RemoteRef], RemoteRef], None]


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
