"""Benchmarks for the extension mechanisms built on the transformation.

Not tied to a specific paper figure: these quantify the extensions §4 names
(persistence) and the mechanisms dynamic distribution relies on (state
capture, single-object migration, whole-graph co-migration), so their costs
are visible next to the core results.
"""

from __future__ import annotations

from _helpers import record_simulation  # noqa: F401 - path setup

from repro.core.transformer import ApplicationTransformer
from repro.persistence import ObjectGraphSnapshotter, restore_snapshot, snapshot_to_json
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController
from repro.workloads.figure1 import A, B, C
from repro.workloads.shared_cache import Cache

ENTRIES = 200


def _populated_cache_app():
    app = ApplicationTransformer(all_local_policy()).transform([Cache])
    cache = app.new("Cache", ENTRIES * 2)
    for index in range(ENTRIES):
        cache.put(f"key-{index}", index)
    return app, cache


def bench_snapshot_capture(benchmark):
    """Snapshot a 200-entry cache through its accessors."""
    app, cache = _populated_cache_app()
    snapshotter = ObjectGraphSnapshotter(app)
    snapshot = benchmark(lambda: snapshotter.snapshot({"cache": cache}))
    assert snapshot.object_count == 1
    benchmark.extra_info["entries"] = ENTRIES


def bench_snapshot_json_encoding(benchmark):
    app, cache = _populated_cache_app()
    snapshot = ObjectGraphSnapshotter(app).snapshot({"cache": cache})
    text = benchmark(lambda: snapshot_to_json(snapshot))
    benchmark.extra_info["json_bytes"] = len(text)


def bench_snapshot_restore(benchmark):
    app, cache = _populated_cache_app()
    snapshot = ObjectGraphSnapshotter(app).snapshot({"cache": cache})
    restored = benchmark(lambda: restore_snapshot(app, snapshot)["cache"])
    assert restored.size() == ENTRIES


def bench_single_object_migration(benchmark):
    """Move one stateful object between nodes (state capture + re-export)."""

    def run():
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([Cache])
        cluster = Cluster(("a", "b"))
        app.deploy(cluster, default_node="a")
        cache = app.new("Cache", 64)
        for index in range(50):
            cache.put(f"k{index}", index)
        record = DistributionController(app, cluster).move(cache, "b")
        return record, cluster

    record, cluster = benchmark(run)
    assert record.node_id == "b"
    record_simulation(benchmark, cluster)


def bench_graph_co_migration(benchmark):
    """Move a three-object Figure 1 graph (A, B and the shared C) together."""

    def run():
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([A, B, C])
        cluster = Cluster(("a", "b"))
        app.deploy(cluster, default_node="a")
        shared = app.new("C", "shared")
        holder_a = app.new("A", shared)
        holder_b = app.new("B", shared)
        for value in range(20):
            holder_a.record(value)
            holder_b.record(value)
        records = DistributionController(app, cluster).move_graph(holder_a, "b")
        return records, shared, cluster

    records, shared, cluster = benchmark(run)
    assert len(records) >= 2
    assert shared.get_total() == 3 * sum(range(20))
    record_simulation(benchmark, cluster, objects_moved=len(records))
