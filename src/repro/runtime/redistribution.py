"""Dynamic distribution-boundary changes.

The distributed program can adapt to its environment by dynamically altering
its distribution boundaries (paper §1): an object that was local can be moved
behind a proxy to a remote instance, a remote object can be brought back into
the caller's address space, and the transport a proxy uses can be exchanged —
all without invalidating the interface-typed references the rest of the
program holds, because those references point at rebindable redirector
handles.

:class:`DistributionController` implements the three primitive boundary
changes; the adaptive policy of :mod:`repro.policy.adaptive` decides *when*
to apply them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro._errors import RedistributionError
from repro.core.metaobject import KIND_LOCAL, KIND_REMOTE, metaobject_of
from repro.runtime.migration import capture_state, refuse_adopted, restore_state
from repro.runtime.remote_ref import reference_of


@dataclass
class BoundaryChange:
    """A record of one applied distribution-boundary change."""

    class_name: str
    operation: str  # "make_remote", "make_local", "move", "set_transport"
    node_id: Optional[str] = None
    transport: Optional[str] = None


class DistributionController:
    """Applies distribution-boundary changes to rebindable handles."""

    def __init__(self, application, cluster) -> None:
        self.application = application
        self.cluster = cluster
        self.changes: list[BoundaryChange] = []

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

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

    def _class_name_of(self, handle: Any) -> str:
        class_name = getattr(type(handle), "_repro_class_name", None)
        if class_name is None:
            raise RedistributionError(
                f"{type(handle).__name__} is not a generated handle type"
            )
        return class_name

    def _home_space(self):
        space = self.application.current_space
        if space is None:
            raise RedistributionError(
                "the application is not bound to a cluster; call deploy() first"
            )
        return space

    # ------------------------------------------------------------------
    # the three primitive boundary changes
    # ------------------------------------------------------------------

    def make_remote(
        self, handle: Any, node_id: str, transport: Optional[str] = None
    ) -> BoundaryChange:
        """Move the object behind ``handle`` to ``node_id`` behind a proxy."""
        meta = self._require_handle(handle)
        class_name = self._class_name_of(handle)
        home = self._home_space()
        target_space = self.cluster.space(node_id)

        if meta.kind == KIND_REMOTE and meta.node_id == node_id:
            raise RedistributionError(
                f"object is already remote on node {node_id!r}"
            )

        if meta.kind == KIND_LOCAL:
            implementation = meta.target
        else:
            # Currently remote elsewhere: pull the state across and rebuild a
            # fresh implementation on the new node.
            implementation = self._rebuild_local(class_name, meta.target)
            old_reference = reference_of(meta.target)
            if old_reference is not None and old_reference.node_id in self.cluster.node_ids():
                self.cluster.space(old_reference.node_id).unexport(old_reference)

        reference = target_space.export(implementation)
        transport = transport or self.application.policy.instance_decision(class_name).transport
        proxy = self.application.proxy_for_ref(reference, home, transport=transport)
        meta.rebind(proxy, KIND_REMOTE, node_id=node_id)

        change = BoundaryChange(class_name, "make_remote", node_id=node_id, transport=transport)
        self.changes.append(change)
        return change

    def make_local(self, handle: Any) -> BoundaryChange:
        """Bring the object behind ``handle`` into the caller's address space."""
        meta = self._require_handle(handle)
        class_name = self._class_name_of(handle)
        if meta.kind == KIND_LOCAL:
            raise RedistributionError("object is already local")

        implementation = self._rebuild_local(class_name, meta.target)
        old_reference = reference_of(meta.target)
        if old_reference is not None and old_reference.node_id in self.cluster.node_ids():
            self.cluster.space(old_reference.node_id).unexport(old_reference)

        home = self._home_space()
        meta.rebind(implementation, KIND_LOCAL, node_id=home.node_id)
        change = BoundaryChange(class_name, "make_local", node_id=home.node_id)
        self.changes.append(change)
        return change

    def move(self, handle: Any, node_id: str, transport: Optional[str] = None) -> BoundaryChange:
        """Move an already-remote object to a different node."""
        meta = self._require_handle(handle)
        if meta.kind == KIND_LOCAL:
            return self.make_remote(handle, node_id, transport=transport)
        if meta.node_id == node_id:
            raise RedistributionError(f"object already resides on node {node_id!r}")
        change = self.make_remote(handle, node_id, transport=transport)
        change = BoundaryChange(change.class_name, "move", node_id=node_id, transport=change.transport)
        self.changes[-1] = change
        return change

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
        home = self._home_space()
        proxy = self.application.proxy_for_ref(reference, home, transport=transport)
        meta.rebind(proxy, KIND_REMOTE, node_id=meta.node_id)
        change = BoundaryChange(class_name, "set_transport", node_id=meta.node_id, transport=transport)
        self.changes.append(change)
        return change

    # ------------------------------------------------------------------

    def _rebuild_local(self, class_name: str, source: Any) -> Any:
        """Copy the remote object's state into a fresh local implementation."""
        artifacts = self.application.artifacts(class_name)
        replacement = artifacts.local_cls()
        state = capture_state(self.application, class_name, source)
        restore_state(self.application, class_name, replacement, state)
        return replacement

    # ------------------------------------------------------------------

    def boundary_of(self, handle: Any) -> tuple[str, Optional[str]]:
        """Return (kind, node) describing where the handle's object lives now."""
        meta = self._require_handle(handle, to_change=False)
        return meta.kind, meta.node_id
