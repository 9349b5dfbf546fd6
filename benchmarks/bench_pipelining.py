"""Pipelined out-of-order dispatch vs. sequential batched dispatch.

Batching (PR 1) amortised per-message cost; pipelining removes the *wait*
between batches.  For each transport the benchmark streams the sharded
bulk-order workload across two intake shards twice — once dispatching each
sub-batch synchronously (sequential baseline), once through the
:class:`~repro.runtime.pipelining.PipelineScheduler` with a window of
concurrent in-flight batches — and asserts that pipelining is at least 2x
cheaper per call on every transport.  A third scenario with one deliberately
slow shard demonstrates out-of-order completion: the fast shard's responses
overtake earlier submissions to the slow one.

Run standalone for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_pipelining.py
"""

from __future__ import annotations

from _helpers import record_simulation, write_bench_json

from repro.api import ServicePolicy
from repro.network.simnet import LinkConfig
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import run_order_stream

ORDERS = 256
BATCH_SIZE = 32
WINDOW = 8
SERVERS = ("server-0", "server-1")
TRANSPORTS = ("inproc", "rmi", "corba", "soap")
MIN_SPEEDUP = 2.0


def _cluster(slow_shard: bool = False) -> Cluster:
    cluster = Cluster(("client",) + SERVERS)
    if slow_shard:
        cluster.network.set_symmetric_link(
            "client", SERVERS[0], LinkConfig(latency=0.010)
        )
    return cluster


def _run(transport: str, pipelined: bool, orders: int = ORDERS, slow_shard: bool = False) -> dict:
    cluster = _cluster(slow_shard)
    policy = ServicePolicy(
        transport=transport, batch_window=BATCH_SIZE, pipeline_depth=WINDOW if pipelined else 1
    )
    outcome = run_order_stream(cluster, policy, orders=orders, shards=SERVERS)
    outcome["cluster"] = cluster
    return outcome


def _compare(transport: str, orders: int = ORDERS) -> dict:
    sequential = _run(transport, pipelined=False, orders=orders)
    pipelined = _run(transport, pipelined=True, orders=orders)
    assert pipelined["values"] == sequential["values"], "result integrity across modes"
    return {
        "transport": transport,
        "sequential_per_call": sequential["per_call_seconds"],
        "pipelined_per_call": pipelined["per_call_seconds"],
        "speedup": sequential["per_call_seconds"] / pipelined["per_call_seconds"],
        "max_in_flight": pipelined["max_in_flight"],
        "messages": pipelined["messages"],
    }


# -- per-transport benchmarks ------------------------------------------------


def bench_pipelined_orders_over_rmi(benchmark):
    outcome = benchmark(lambda: _run("rmi", pipelined=True))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def bench_pipelined_orders_over_soap(benchmark):
    outcome = benchmark(lambda: _run("soap", pipelined=True))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def bench_sequential_batched_orders_over_rmi(benchmark):
    """The PR 1 dispatch mode — batched but one round trip at a time."""
    outcome = benchmark(lambda: _run("rmi", pipelined=False))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def _extra(outcome: dict) -> dict:
    return {
        "transport": outcome["transport"],
        "pipelined": outcome["pipelined"],
        "batch_size": outcome["batch_size"],
        "window": outcome["window"],
        "shards": outcome["shards"],
        "orders": outcome["orders"],
        "per_call_seconds": round(outcome["per_call_seconds"], 9),
        "out_of_order_completions": outcome["out_of_order_completions"],
    }


# -- the pipelining claim ----------------------------------------------------


def bench_pipelining_speedup_all_transports(benchmark):
    """A window of 8 in-flight batches must be >= 2x cheaper per call."""

    def run():
        return [_compare(transport) for transport in TRANSPORTS]

    comparisons = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in comparisons:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{row['transport']}: pipelined speedup {row['speedup']:.1f}x "
            f"is below the required {MIN_SPEEDUP}x"
        )
        assert row["max_in_flight"] > 1, "the window never overlapped batches"
    benchmark.extra_info["speedups"] = {
        row["transport"]: round(row["speedup"], 2) for row in comparisons
    }


def bench_out_of_order_completion_with_slow_shard(benchmark):
    """A slow shard must be overtaken: completions arrive out of submission order."""

    def run():
        return _run("rmi", pipelined=True, slow_shard=True)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome["out_of_order_completions"] > 0
    assert outcome["accepted"] == ORDERS
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


# -- standalone smoke run ----------------------------------------------------


def main(orders: int = ORDERS) -> int:
    print(
        f"sharded bulk orders: {orders} orders, {len(SERVERS)} shards, "
        f"batch window {BATCH_SIZE}, in-flight window {WINDOW}"
    )
    print(f"{'transport':9s} {'sequential/call':>16s} {'pipelined/call':>15s} {'speedup':>9s}")
    failures = 0
    rows = []
    for transport in TRANSPORTS:
        row = _compare(transport, orders)
        rows.append(row)
        ok = row["speedup"] >= MIN_SPEEDUP
        failures += 0 if ok else 1
        print(
            f"{transport:9s} {row['sequential_per_call']:14.6f} s "
            f"{row['pipelined_per_call']:13.6f} s {row['speedup']:7.1f}x"
            f"{'' if ok else f'  FAIL (< {MIN_SPEEDUP}x)'}"
        )
    slow = _run("rmi", pipelined=True, slow_shard=True)
    print(
        f"slow-shard run: {slow['out_of_order_completions']} of {orders} completions "
        "arrived out of submission order"
    )
    if slow["out_of_order_completions"] == 0:
        failures += 1
    write_bench_json(
        "pipelining",
        {
            "orders": orders,
            "batch_size": BATCH_SIZE,
            "window": WINDOW,
            "shards": len(SERVERS),
            "min_speedup": MIN_SPEEDUP,
            "speedups": {row["transport"]: round(row["speedup"], 3) for row in rows},
            "per_call_seconds": {
                row["transport"]: {
                    "sequential": round(row["sequential_per_call"], 9),
                    "pipelined": round(row["pipelined_per_call"], 9),
                }
                for row in rows
            },
            "out_of_order_completions": slow["out_of_order_completions"],
            "ok": failures == 0,
        },
    )
    print("ok" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
