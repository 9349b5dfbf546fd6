"""Dynamic distribution-boundary changes: the one relocation.

The distributed program can adapt to its environment by dynamically altering
its distribution boundaries (paper §1): a local object can be moved behind a
proxy, a remote one brought into the caller's address space or on to another
node, and a proxy's transport exchanged — all without invalidating the
interface-typed references the rest of the program holds, because those point
at rebindable redirector handles.

Every change of *where* an object lives is the same act, written once in
:meth:`DistributionController._relocate`: copy the state through the
interface accessors, retire the old exports, host the copy, rebind the
handle, re-point the names and publish the move in the cluster's forward
table, so a proxy another object holds to a retired export finds the copy.
``make_remote``, ``make_local`` and ``move`` are its preconditions;
``set_transport`` moves nothing and keeps its own body.
The adaptive policy of :mod:`repro.policy.adaptive` decides *when*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro._errors import RedistributionError
from repro.core.metaobject import KIND_LOCAL, KIND_REMOTE, metaobject_of
from repro.runtime.migration import apply_state, reachable_handles, snapshot_state
from repro.runtime.remote_ref import RemoteRef, reference_of


@dataclass
class BoundaryChange:
    """A record of one applied distribution-boundary change.

    ``operation`` names the outcome: "make_remote" / "move" leave a handle
    remote, "make_local" local, "set_transport" moves nothing.  ``node_id`` is
    where the object lives afterwards, ``source_node`` where it lived before
    (``None``: a bare, unexported object); ``old_reference`` is the export the
    relocation retired, ``new_reference`` the one hosting the copy (``None``
    when the handle went local and no name needed one).
    """

    class_name: str
    operation: str
    node_id: Optional[str] = None
    transport: Optional[str] = None
    source_node: Optional[str] = None
    old_reference: Optional[RemoteRef] = None
    new_reference: Optional[RemoteRef] = None
    fields_copied: int = 0


def refuse_adopted(meta: Any) -> None:
    """Raise when the handle behind ``meta`` was adopted by a session's service
    (``session.service(name, policy, impl=handle)``): where that object lives
    is the session's to decide until ``session.dismantle()`` returns it."""
    service = getattr(meta.remote_invoker, "service", None)
    if service is not None:
        raise RedistributionError(
            f"the handle is adopted by service {service.name!r}; its distribution "
            "boundary cannot change until the session is dismantled"
        )


class DistributionController:
    """Applies distribution-boundary changes to rebindable handles."""

    def __init__(self, application, cluster) -> None:
        self.application = application
        self.cluster = cluster
        self.changes: list[BoundaryChange] = []

    def _require_handle(self, handle: Any, *, to_change: bool = True):
        meta = metaobject_of(handle)
        if meta is None:
            raise RedistributionError(
                "dynamic redistribution requires a rebindable handle; create the "
                "object with a dynamic placement decision (policy dynamic=True)"
            )
        if to_change:
            refuse_adopted(meta)
        return meta

    @staticmethod
    def _class_name_of(subject: Any) -> str:
        class_name = getattr(type(subject), "_repro_class_name", None)
        if class_name is None:
            raise RedistributionError(
                f"cannot relocate {type(subject).__name__}: not a transformed object"
            )
        return class_name

    def _home_space(self):
        space = self.application.current_space
        if space is None:
            raise RedistributionError(
                "the application is not bound to a cluster; call deploy() first"
            )
        return space

    # -- the relocation --------------------------------------------------

    def _relocate(
        self, subject: Any, node_id: str, operation: str, transport: Optional[str] = None
    ) -> BoundaryChange:
        """Move the object behind ``subject`` (handle, proxy or implementation)
        to ``node_id``; the only place a distribution boundary moves."""
        application, cluster = self.application, self.cluster
        meta = metaobject_of(subject)
        if meta is not None:
            refuse_adopted(meta)  # (1) before any side effect
        if transport is not None:
            cluster.transports.framing(transport)  # raises for an unregistered name
        class_name = self._class_name_of(subject)
        home = self._home_space()
        target_space = cluster.space(node_id)

        # (2) every live export of the source: a proxy carries its one
        # reference; a local object may be exported from any space (lazily by
        # a call from another node, or by hand to publish it under a name).
        source = subject if meta is None else meta.target
        carried = reference_of(source)
        found = [carried] if carried is not None else [
            space.reference_for(source) for space in cluster.spaces()
        ]
        retired = [reference for reference in found if reference is not None]
        old_reference = retired[0] if retired else None
        source_node = meta.node_id if meta is not None else getattr(old_reference, "node_id", None)
        goes_local = meta is not None and node_id == home.node_id
        # Already there — unless a proxy to the caller's own node goes local
        # (make_local while executing on the hosting node).
        if source_node == node_id and not (goes_local and meta.kind == KIND_REMOTE):
            raise RedistributionError(f"object already resides on node {node_id!r}")

        # (3) copy the state through the interface accessors.  Object ids
        # reach the wire, so the order from here on is fixed: copy (remote
        # getters), unexport, export, rebind.
        replacement = application.artifacts(class_name).local_cls()
        fields = apply_state(replacement, snapshot_state(source, application), application)
        # (4) retire the old exports.
        for reference in retired:
            if reference.node_id in cluster.node_ids():
                cluster.space(reference.node_id).unexport(reference)
        # (5) host the copy — not when the handle goes local and no name needs
        # a reference: an extra export shifts every later id on that space.
        naming = cluster.naming
        names = [name for name in sorted(naming.names()) if naming.maybe_lookup(name) in retired]
        new_reference = target_space.export(replacement) if names or not goes_local else None
        # (6) rebind the handle.
        if goes_local:
            transport = None
            meta.rebind(replacement, KIND_LOCAL, node_id=node_id)
        elif meta is not None:
            transport = transport or application.policy.instance_decision(class_name).transport
            proxy = application.proxy_for_ref(new_reference, home, transport=transport)
            meta.rebind(proxy, KIND_REMOTE, node_id=node_id)
        # (7) re-point every name that named an old export.
        for name in names:
            naming.rebind(name, new_reference)
        # (8) forward every old export to the copy; one that went local
        # unexported is exported by the first stale call that needs it.
        if retired:
            naming.forward(
                retired,
                new_reference
                or (lambda: reference_of(meta.target) or target_space.export(meta.target)),
            )

        change = BoundaryChange(
            class_name, operation, node_id, transport,
            source_node, old_reference, new_reference, fields,
        )
        self.changes.append(change)
        return change

    def make_remote(
        self, handle: Any, node_id: str, transport: Optional[str] = None
    ) -> BoundaryChange:
        """Move the object behind ``handle`` to ``node_id`` behind a proxy."""
        self._require_handle(handle)
        if node_id == self._home_space().node_id:
            raise RedistributionError(
                f"node {node_id!r} is the caller's own; make_local brings the object here"
            )
        return self._relocate(handle, node_id, "make_remote", transport)

    def make_local(self, handle: Any) -> BoundaryChange:
        """Bring the object behind ``handle`` into the caller's address space."""
        if self._require_handle(handle).kind == KIND_LOCAL:
            raise RedistributionError("object is already local")
        return self._relocate(handle, self._home_space().node_id, "make_local")

    def move(self, handle: Any, node_id: str, transport: Optional[str] = None) -> BoundaryChange:
        """Move a transformed object — handle, proxy or implementation — to
        ``node_id``; the recorded operation names the outcome."""
        meta, operation = metaobject_of(handle), "move"
        if meta is not None and node_id == self._home_space().node_id:
            operation = "make_local"
        elif meta is not None and meta.kind == KIND_LOCAL:
            operation = "make_remote"
        return self._relocate(handle, node_id, operation, transport)

    def move_graph(self, root: Any, node_id: str, *, max_depth: int = 10) -> list[BoundaryChange]:
        """Move ``root`` together with every handle reachable from it.

        Co-migration avoids splitting a tightly-coupled object graph across
        address spaces.  An adopted handle anywhere in the graph refuses the
        whole move up front; objects already on ``node_id`` are skipped.
        """
        subjects = [root, *reachable_handles(self.application, root, max_depth=max_depth)]
        for meta in filter(None, map(metaobject_of, subjects)):
            refuse_adopted(meta)
        changes = []
        for subject in subjects:
            try:
                changes.append(self.move(subject, node_id))
            except RedistributionError:
                continue  # already on the target node: leave it be
        return changes

    def set_transport(self, handle: Any, transport: str) -> BoundaryChange:
        """Exchange the protocol a remote handle uses, in place."""
        meta = self._require_handle(handle)
        class_name = self._class_name_of(handle)
        if meta.kind != KIND_REMOTE:
            raise RedistributionError(
                "set_transport applies to handles currently bound to a remote proxy"
            )
        reference = reference_of(meta.target)
        if reference is None:
            raise RedistributionError("remote handle carries no reference")
        proxy = self.application.proxy_for_ref(reference, self._home_space(), transport=transport)
        meta.rebind(proxy, KIND_REMOTE, node_id=meta.node_id)
        change = BoundaryChange(class_name, "set_transport", meta.node_id, transport)
        self.changes.append(change)
        return change

    def boundary_of(self, handle: Any) -> tuple[str, Optional[str]]:
        """Return (kind, node) describing where the handle's object lives now."""
        meta = self._require_handle(handle, to_change=False)
        return meta.kind, meta.node_id
