"""Orthogonal persistence over the transformed application.

The paper notes that the componentised program "can be extended while
retaining program semantics in order to provide requirements such as
distribution **or persistence**" (§4), and its related work compares the
transformation with Orthogonally Persistent Java.  This package provides that
extension for the reproduction: because every field of a transformed object
is reachable through its interface accessors, a whole object graph can be
snapshotted to plain data (and JSON) and later restored into fresh
implementations — without the application classes knowing anything about it.
Keeping snapshots (in memory, on disk) is left to the caller: a snapshot is
plain data and ``snapshot_to_json`` gives its text.
"""

from repro.persistence.snapshot import (
    GraphSnapshot,
    ObjectGraphSnapshotter,
    restore_snapshot,
    snapshot_to_json,
    snapshot_from_json,
)

__all__ = [
    "GraphSnapshot",
    "ObjectGraphSnapshotter",
    "restore_snapshot",
    "snapshot_from_json",
    "snapshot_to_json",
]
