"""Remote object references.

A :class:`RemoteRef` identifies an object exported by some address space: the
identifier of the hosting node, a per-node object identifier, and the name of
the extracted interface the object implements.  References are what travel on
the wire when a transformed object is passed by reference between address
spaces; the receiving side turns them back into proxies (or into the local
object itself when the reference points home).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro._errors import SerializationError
from repro.transports.base import Tree


class ObjectIdAllocator:
    """Allocates monotonically increasing per-node object identifiers.

    Identifiers are deterministic (``<node>:<counter>``) so test runs and
    benchmark traces are reproducible; no wall-clock or random component is
    involved.  The counter is the object's *key*: what a request names it by
    on its node (see :attr:`RemoteRef.key`).
    """

    def __init__(self, node_id: str) -> None:
        self._node_id = node_id
        self._counter = itertools.count(1)

    def allocate(self) -> str:
        return f"{self._node_id}:{next(self._counter)}"


@dataclass(frozen=True)
class RemoteRef:
    """A location-and-interface-qualified reference to an exported object."""

    object_id: str
    node_id: str
    interface_name: str

    # -- wire form -------------------------------------------------------------

    def to_wire(self) -> dict:
        return {
            Tree.KIND: Tree.REF,
            "object_id": self.object_id,
            "node_id": self.node_id,
            "interface": self.interface_name,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "RemoteRef":
        """The reference a wire ref names (its fields must be strings)."""
        fields = (wire.get("object_id"), wire.get("node_id"), wire.get("interface"))
        if not all(type(field) is str for field in fields):
            raise SerializationError(f"malformed wire reference: {wire!r}")
        return cls(*fields)

    # -- request form -----------------------------------------------------------

    @cached_property
    def key(self) -> str:
        """What a request to this object's node names it by: ``1`` for ``server:1``.

        Like GIOP's object key and JRMP's ObjID, a request's target is
        relative to the node serving it, which reads a target without ``:``
        as ``<node>:<target>`` and any other as a full id.  So an id that
        does not start with its node travels whole (every id holds a ``:``,
        as the allocator writes them).  Computed once per reference; a
        reference travelling as a value keeps its full id.
        """
        prefix = f"{self.node_id}:"
        key = self.object_id[len(prefix):]
        if self.object_id.startswith(prefix) and key and ":" not in key:
            return key
        return self.object_id

    # -- helpers ----------------------------------------------------------------

    def located_on(self, node_id: str) -> bool:
        return self.node_id == node_id

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.interface_name}@{self.object_id}"


def reference_of(proxy_or_handle: object) -> Optional[RemoteRef]:
    """Extract the :class:`RemoteRef` behind a proxy (or a handle bound to one)."""
    ref = getattr(proxy_or_handle, "_ref", None)
    if isinstance(ref, RemoteRef):
        return ref
    meta = getattr(proxy_or_handle, "__meta__", None)
    if meta is not None:
        return reference_of(meta.target)
    return None
