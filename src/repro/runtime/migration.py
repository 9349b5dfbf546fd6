"""Object migration between address spaces.

Migration captures the state of a transformed object through its interface
accessors (every field is a property, so the full state is reachable without
any knowledge of the implementation), re-creates the object in the target
address space, and re-points the naming service and any rebindable handles at
the new location.  It is the state-moving half of dynamic redistribution; the
handle-rebinding half lives in :mod:`repro.runtime.redistribution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro._errors import MigrationError, RedistributionError
from repro.core.metaobject import metaobject_of
from repro.runtime.address_space import AddressSpace
from repro.runtime.remote_ref import RemoteRef, reference_of


@dataclass
class MigrationRecord:
    """What a completed migration produced."""

    class_name: str
    old_reference: Optional[RemoteRef]
    new_reference: RemoteRef
    source_node: Optional[str]
    target_node: str
    fields_copied: int


def capture_state(application, class_name: str, source: Any) -> dict:
    """Read every field of ``source`` through its getter accessors."""
    artifacts = application.artifacts(class_name)
    state: dict[str, Any] = {}
    for signature in artifacts.instance_interface.accessors():
        if signature.accessor_kind != "get":
            continue
        getter = getattr(source, signature.name)
        state[signature.accessor_for] = getter()
    return state


def restore_state(application, class_name: str, target: Any, state: dict) -> int:
    """Write a captured state dict into ``target`` through its setters."""
    artifacts = application.artifacts(class_name)
    written = 0
    for signature in artifacts.instance_interface.accessors():
        if signature.accessor_kind != "set":
            continue
        field_name = signature.accessor_for
        if field_name in state:
            setter = getattr(target, signature.name)
            setter(state[field_name])
            written += 1
    return written


def reachable_handles(application, root: Any, max_depth: int = 10) -> list[Any]:
    """Rebindable handles reachable from ``root`` through interface accessors.

    Performs a breadth-first walk over getter values (descending into lists,
    tuples and dict values).  Only redirector handles are returned — they are
    the references that can be transparently re-pointed when a whole object
    graph is migrated together.
    """

    seen: set[int] = set()
    found: list[Any] = []
    frontier: list[tuple[Any, int]] = [(root, 0)]
    while frontier:
        current, depth = frontier.pop(0)
        if depth > max_depth or id(current) in seen:
            continue
        seen.add(id(current))
        if metaobject_of(current) is not None and current is not root:
            found.append(current)
        class_name = getattr(type(current), "_repro_class_name", None)
        if class_name is None and metaobject_of(current) is not None:
            class_name = getattr(type(metaobject_of(current).target), "_repro_class_name", None)
        if class_name is None or class_name not in application.registry.class_names():
            continue
        artifacts = application.artifacts(class_name)
        for signature in artifacts.instance_interface.accessors():
            if signature.accessor_kind != "get":
                continue
            value = getattr(current, signature.name)()
            for candidate in _iter_candidates(value):
                frontier.append((candidate, depth + 1))
    return found


def _iter_candidates(value: Any):
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _iter_candidates(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _iter_candidates(item)
    elif value is not None and not isinstance(value, (bool, int, float, str, bytes)):
        yield value


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


class ObjectMigrator:
    """Moves transformed objects between the address spaces of a cluster."""

    def __init__(self, application, cluster) -> None:
        self.application = application
        self.cluster = cluster

    # ------------------------------------------------------------------

    def migrate(self, subject: Any, target_node: str) -> MigrationRecord:
        """Migrate ``subject`` (a handle, proxy or local implementation).

        The object's state is copied into a fresh local implementation hosted
        by ``target_node``; when ``subject`` is a rebindable handle it is
        rebound to a proxy for the new location so every reference held
        through the handle observes the move transparently.
        """

        class_name = getattr(type(subject), "_repro_class_name", None)
        meta = metaobject_of(subject)
        if meta is not None:
            refuse_adopted(meta)
        if class_name is None and meta is not None:
            class_name = getattr(type(meta.target), "_repro_class_name", None)
        if class_name is None:
            raise MigrationError(
                f"cannot migrate {type(subject).__name__}: not a transformed object"
            )

        target_space: AddressSpace = self.cluster.space(target_node)
        source_object = meta.target if meta is not None else subject
        old_reference = reference_of(subject)
        if old_reference is None:
            # A local implementation may have been exported directly (e.g. to
            # publish it in the naming service); find that export so it can be
            # retired and its naming entries re-pointed.
            for space in self.cluster.spaces():
                exported = space.reference_for(source_object)
                if exported is not None:
                    old_reference = exported
                    break
        source_node = old_reference.node_id if old_reference is not None else None
        if source_node == target_node:
            raise MigrationError(
                f"object already resides on node {target_node!r}"
            )

        state = capture_state(self.application, class_name, source_object)

        artifacts = self.application.artifacts(class_name)
        replacement = artifacts.local_cls()
        fields = restore_state(self.application, class_name, replacement, state)
        new_reference = target_space.export(replacement)

        # Retire the old exported object, if there was one.
        if old_reference is not None and old_reference.node_id in self.cluster.node_ids():
            self.cluster.space(old_reference.node_id).unexport(old_reference)

        # Rebind the handle (if any) so existing references follow the object.
        if meta is not None:
            caller_space = self.application.current_space or target_space
            if caller_space.node_id == target_node:
                meta.rebind(replacement, "local", node_id=target_node)
            else:
                proxy = self.application.proxy_for_ref(new_reference, caller_space)
                meta.rebind(proxy, "remote", node_id=target_node)

        # Follow the move in the naming service.
        naming = getattr(self.cluster, "naming", None)
        if naming is not None and old_reference is not None:
            for name in list(naming.names()):
                if naming.maybe_lookup(name) == old_reference:
                    naming.rebind(name, new_reference)

        return MigrationRecord(
            class_name=class_name,
            old_reference=old_reference,
            new_reference=new_reference,
            source_node=source_node,
            target_node=target_node,
            fields_copied=fields,
        )

    # ------------------------------------------------------------------

    def migrate_graph(
        self, root: Any, target_node: str, *, max_depth: int = 10
    ) -> list[MigrationRecord]:
        """Migrate ``root`` together with every handle reachable from it.

        Co-migration avoids splitting a tightly-coupled object graph across
        address spaces: the root and all rebindable handles found by
        :func:`reachable_handles` end up on ``target_node``.  Objects already
        resident there are skipped.  Returns one record per object moved.
        """

        subjects = [root] + reachable_handles(self.application, root, max_depth=max_depth)
        records: list[MigrationRecord] = []
        for subject in subjects:
            try:
                records.append(self.migrate(subject, target_node))
            except MigrationError:
                # Already on the target node (or not migratable): leave it be.
                continue
        return records
