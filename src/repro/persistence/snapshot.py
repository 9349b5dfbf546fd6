"""Snapshotting and restoring object graphs through the extracted interfaces.

A snapshot walks an object graph starting from named roots.  For every
reachable instance of a transformed class it records the class name and the
value of every field (read through the generated ``get_*`` accessors);
references to other transformed objects become internal identifiers, so
shared structure and cycles are preserved.  Restoring builds fresh
implementations with the object factories, replays the field values through
the ``set_*`` accessors and re-links the references.

The mechanism is *orthogonal*: application classes carry no persistence code,
exactly as in the Orthogonally Persistent Java work the paper cites — the
accessors introduced for distribution are reused unchanged for persistence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro._errors import SerializationError
from repro.core.metaobject import metaobject_of, unwrap
from repro.runtime.serialization import _is_transformed_instance

#: Wire-level tag marking a reference to another snapshotted object.
_REF_KEY = "__persisted_ref__"

_PRIMITIVES = (type(None), bool, int, float, str)


@dataclass
class GraphSnapshot:
    """A plain-data snapshot of an object graph."""

    #: object identifier -> {"class": class name, "fields": {name: value}}
    objects: Dict[str, dict] = field(default_factory=dict)
    #: root name -> object identifier
    roots: Dict[str, str] = field(default_factory=dict)

    @property
    def object_count(self) -> int:
        return len(self.objects)

    def to_dict(self) -> dict:
        return {"objects": self.objects, "roots": self.roots}

    @classmethod
    def from_dict(cls, data: Mapping) -> "GraphSnapshot":
        return cls(objects=dict(data.get("objects", {})), roots=dict(data.get("roots", {})))


class ObjectGraphSnapshotter:
    """Captures object graphs of one transformed application."""

    def __init__(self, application) -> None:
        self.application = application

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------

    def snapshot(self, roots: Mapping[str, Any]) -> GraphSnapshot:
        """Snapshot every transformed object reachable from ``roots``."""
        snapshot = GraphSnapshot()
        identities: Dict[int, str] = {}
        for name, root in roots.items():
            snapshot.roots[name] = self._capture(root, snapshot, identities)
        return snapshot

    def _class_name_of(self, value: Any) -> str:
        base = unwrap(value)
        class_name = getattr(type(base), "_repro_class_name", None)
        if class_name is None:
            raise SerializationError(
                f"{type(value).__name__} is not an instance of a transformed class"
            )
        return class_name

    def _capture(self, value: Any, snapshot: GraphSnapshot, identities: Dict[int, str]) -> str:
        base = unwrap(value)
        key = id(base)
        if key in identities:
            return identities[key]
        class_name = self._class_name_of(value)
        object_id = f"obj-{len(identities) + 1}"
        identities[key] = object_id
        # Register the entry before descending so cycles terminate.
        entry = {"class": class_name, "fields": {}}
        snapshot.objects[object_id] = entry

        artifacts = self.application.artifacts(class_name)
        for signature in artifacts.instance_interface.accessors():
            if signature.accessor_kind != "get":
                continue
            field_value = getattr(value, signature.name)()
            entry["fields"][signature.accessor_for] = self._capture_value(
                field_value, snapshot, identities
            )
        return object_id

    def _capture_value(self, value: Any, snapshot: GraphSnapshot, identities: Dict[int, str]) -> Any:
        if isinstance(value, _PRIMITIVES):
            return value
        if isinstance(value, (list, tuple)):
            return [self._capture_value(item, snapshot, identities) for item in value]
        if isinstance(value, dict):
            captured = {}
            for key, item in value.items():
                if not isinstance(key, str):
                    raise SerializationError("only string keys can be persisted")
                captured[key] = self._capture_value(item, snapshot, identities)
            return captured
        if _is_transformed_instance(value) or metaobject_of(value) is not None:
            return {_REF_KEY: self._capture(value, snapshot, identities)}
        raise SerializationError(
            f"cannot persist value of type {type(value).__name__}: it is neither a "
            "primitive, a container, nor an instance of a transformed class"
        )


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------

def restore_snapshot(application, snapshot: GraphSnapshot) -> Dict[str, Any]:
    """Rebuild the object graph of ``snapshot`` inside ``application``.

    Returns a mapping from root name to the restored (interface-typed)
    object.  Objects are created through the object factories, so the current
    distribution policy applies: a graph snapshotted on one deployment can be
    restored under a completely different placement.
    """

    instances: Dict[str, Any] = {}
    # Pass 1: create an uninitialised implementation for every object.
    for object_id, entry in snapshot.objects.items():
        factory = application.factory(entry["class"])
        instances[object_id] = factory.make()

    # Pass 2: replay field values, resolving references between objects.
    def resolve(value: Any) -> Any:
        if isinstance(value, _PRIMITIVES):
            return value
        if isinstance(value, list):
            return [resolve(item) for item in value]
        if isinstance(value, dict):
            if set(value.keys()) == {_REF_KEY}:
                return instances[value[_REF_KEY]]
            return {key: resolve(item) for key, item in value.items()}
        raise SerializationError(f"malformed snapshot value: {value!r}")

    for object_id, entry in snapshot.objects.items():
        target = instances[object_id]
        for field_name, raw_value in entry["fields"].items():
            setter = getattr(target, f"set_{field_name}")
            setter(resolve(raw_value))

    return {name: instances[object_id] for name, object_id in snapshot.roots.items()}


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def snapshot_to_json(snapshot: GraphSnapshot, indent: Optional[int] = 2) -> str:
    try:
        return json.dumps(snapshot.to_dict(), indent=indent, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"snapshot is not JSON-serialisable: {exc}") from exc


def snapshot_from_json(text: str) -> GraphSnapshot:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid snapshot JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SerializationError("snapshot JSON must contain an object")
    return GraphSnapshot.from_dict(data)
