"""Unit tests for the orthogonal-persistence extension (paper §4, related work [9])."""

from __future__ import annotations

import pytest

from repro.api.errors import SerializationError
from repro.core.transformer import ApplicationTransformer
from repro.persistence import (
    ObjectGraphSnapshotter,
    restore_snapshot,
    snapshot_from_json,
    snapshot_to_json,
)
from repro.policy.policy import all_local_policy, place_classes_on
from repro.runtime.cluster import Cluster
from repro.workloads.figure1 import A, B, C
from repro.workloads.shared_cache import Cache, CacheClient


@pytest.fixture
def figure1_app():
    return ApplicationTransformer(all_local_policy()).transform([A, B, C])


def _build_graph(app):
    shared = app.new("C", "journal")
    holder_a = app.new("A", shared)
    holder_b = app.new("B", shared)
    holder_a.record(3)
    holder_b.record(4)
    return shared, holder_a, holder_b


class TestSnapshotCapture:
    def test_snapshot_records_all_reachable_objects(self, figure1_app):
        shared, holder_a, holder_b = _build_graph(figure1_app)
        snapshotter = ObjectGraphSnapshotter(figure1_app)
        snapshot = snapshotter.snapshot({"a": holder_a, "b": holder_b})
        # a, b and the shared C — the shared instance appears exactly once.
        assert snapshot.object_count == 3
        assert {entry["class"] for entry in snapshot.objects.values()} == {"A", "B", "C"}

    def test_shared_references_are_preserved_not_duplicated(self, figure1_app):
        shared, holder_a, holder_b = _build_graph(figure1_app)
        snapshot = ObjectGraphSnapshotter(figure1_app).snapshot({"a": holder_a, "b": holder_b})
        shared_ids = [
            entry["fields"]["shared"]["__persisted_ref__"]
            for entry in snapshot.objects.values()
            if entry["class"] in ("A", "B")
        ]
        assert len(set(shared_ids)) == 1

    def test_field_values_are_captured(self, figure1_app):
        shared, holder_a, _ = _build_graph(figure1_app)
        snapshot = ObjectGraphSnapshotter(figure1_app).snapshot({"c": shared})
        [entry] = [e for e in snapshot.objects.values() if e["class"] == "C"]
        assert entry["fields"]["total"] == 3 + 8  # 3 from A, 4*2 from B
        assert entry["fields"]["label"] == "journal"

    def test_cycles_terminate(self):
        class Node:
            def __init__(self, name):
                self.name = name
                self.peer = None

            def link(self, other):
                self.peer = other
                return True

        app = ApplicationTransformer(all_local_policy()).transform([Node])
        first = app.new("Node", "first")
        second = app.new("Node", "second")
        first.link(second)
        second.link(first)
        snapshot = ObjectGraphSnapshotter(app).snapshot({"first": first})
        assert snapshot.object_count == 2

    def test_non_transformed_values_are_rejected(self, figure1_app):
        shared = figure1_app.new("C", "x")
        shared.set_label(object())
        with pytest.raises(SerializationError):
            ObjectGraphSnapshotter(figure1_app).snapshot({"c": shared})

    def test_snapshotting_a_plain_object_is_rejected(self, figure1_app):
        with pytest.raises(SerializationError):
            ObjectGraphSnapshotter(figure1_app).snapshot({"x": object()})


class TestRestore:
    def test_round_trip_preserves_state_and_sharing(self, figure1_app):
        shared, holder_a, holder_b = _build_graph(figure1_app)
        snapshot = ObjectGraphSnapshotter(figure1_app).snapshot({"a": holder_a, "b": holder_b})

        restored = restore_snapshot(figure1_app, snapshot)
        restored_a, restored_b = restored["a"], restored["b"]
        # The shared C is shared again after restore.
        restored_a.record(10)
        assert restored_b.running_average() > 0
        assert restored_a.summary() == restored_b.get_shared().describe()

    def test_restored_graph_is_independent_of_the_original(self, figure1_app):
        shared, holder_a, _ = _build_graph(figure1_app)
        snapshot = ObjectGraphSnapshotter(figure1_app).snapshot({"a": holder_a})
        restored_a = restore_snapshot(figure1_app, snapshot)["a"]
        restored_a.record(100)
        assert shared.get_total() == 11  # the original is untouched

    def test_restore_into_a_different_deployment(self):
        """A graph snapshotted locally can be restored under a remote policy."""
        local_app = ApplicationTransformer(all_local_policy()).transform([A, B, C])
        shared, holder_a, holder_b = _build_graph(local_app)
        snapshot = ObjectGraphSnapshotter(local_app).snapshot({"a": holder_a, "b": holder_b})
        text = snapshot_to_json(snapshot)

        remote_app = ApplicationTransformer(place_classes_on({"C": "server"})).transform([A, B, C])
        cluster = Cluster(("client", "server"))
        remote_app.deploy(cluster, default_node="client")
        restored = restore_snapshot(remote_app, snapshot_from_json(text))
        restored_c = restored["a"].get_shared()
        assert (type(restored_c).__name__, restored_c._transport) == ("C_O_Proxy", "rmi")
        assert restored["a"].summary() == shared.describe()

    def test_json_round_trip(self, figure1_app):
        shared, holder_a, _ = _build_graph(figure1_app)
        snapshot = ObjectGraphSnapshotter(figure1_app).snapshot({"a": holder_a})
        rebuilt = snapshot_from_json(snapshot_to_json(snapshot))
        assert rebuilt.object_count == snapshot.object_count
        assert rebuilt.roots == snapshot.roots

    def test_malformed_json_rejected(self):
        with pytest.raises(SerializationError):
            snapshot_from_json("{ nope")
        with pytest.raises(SerializationError):
            snapshot_from_json("[1, 2, 3]")


class TestCacheRestore:
    def test_restored_cache_through_json(self):
        app = ApplicationTransformer(all_local_policy()).transform([Cache, CacheClient])
        cache = app.new("Cache", 16)
        cache.put("answer", 42)
        text = snapshot_to_json(ObjectGraphSnapshotter(app).snapshot({"cache": cache}))
        restored = restore_snapshot(app, snapshot_from_json(text))["cache"]
        assert restored.get("answer") == 42
