"""Batched vs. unbatched remote invocation across every transport.

The batching subsystem ships N invocation requests in ONE framed network
message: the round trip and the transport's fixed processing charge are paid
per batch instead of per call.  For each transport the benchmark runs the
bulk-order workload unbatched and with a batch window of 32 and asserts the
amortisation claim: batched simulated time per call is at least 3x lower on
every transport.

Run standalone for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_batching.py
"""

from __future__ import annotations

from _helpers import record_simulation, write_bench_json

from repro.api import ServicePolicy
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import run_order_stream

ORDERS = 128
BATCH_SIZE = 32
TRANSPORTS = ("inproc", "rmi", "corba", "soap")
MIN_SPEEDUP = 3.0


def _run(transport: str, batch_size: int, orders: int = ORDERS) -> dict:
    cluster = Cluster(("client", "server"))
    outcome = run_order_stream(
        cluster, ServicePolicy(transport=transport, batch_window=batch_size), orders=orders
    )
    outcome["cluster"] = cluster
    return outcome


def _compare(transport: str, orders: int = ORDERS) -> dict:
    unbatched = _run(transport, 1, orders)
    batched = _run(transport, BATCH_SIZE, orders)
    return {
        "transport": transport,
        "unbatched_per_call": unbatched["per_call_seconds"],
        "batched_per_call": batched["per_call_seconds"],
        "speedup": unbatched["per_call_seconds"] / batched["per_call_seconds"],
        "unbatched_messages": unbatched["messages"],
        "batched_messages": batched["messages"],
    }


# -- per-transport benchmarks ------------------------------------------------


def bench_batched_orders_over_inproc(benchmark):
    outcome = benchmark(lambda: _run("inproc", BATCH_SIZE))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def bench_batched_orders_over_rmi(benchmark):
    outcome = benchmark(lambda: _run("rmi", BATCH_SIZE))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def bench_batched_orders_over_corba(benchmark):
    outcome = benchmark(lambda: _run("corba", BATCH_SIZE))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def bench_batched_orders_over_soap(benchmark):
    outcome = benchmark(lambda: _run("soap", BATCH_SIZE))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def bench_unbatched_orders_over_rmi(benchmark):
    """The classic one-call-one-message path, as the baseline row."""
    outcome = benchmark(lambda: _run("rmi", 1))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def _extra(outcome: dict) -> dict:
    return {
        "transport": outcome["transport"],
        "batch_size": outcome["batch_size"],
        "orders": outcome["orders"],
        "per_call_seconds": round(outcome["per_call_seconds"], 9),
    }


# -- the amortisation claim --------------------------------------------------


def bench_batching_speedup_all_transports(benchmark):
    """Batches of 32 must be at least 3x cheaper per call on every transport."""

    def run():
        return [_compare(transport) for transport in TRANSPORTS]

    comparisons = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in comparisons:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{row['transport']}: batched speedup {row['speedup']:.1f}x "
            f"is below the required {MIN_SPEEDUP}x"
        )
        assert row["batched_messages"] < row["unbatched_messages"]
    benchmark.extra_info["speedups"] = {
        row["transport"]: round(row["speedup"], 2) for row in comparisons
    }


# -- standalone smoke run ----------------------------------------------------


def main(orders: int = ORDERS) -> int:
    print(f"bulk-order batching: {orders} orders, batch window {BATCH_SIZE}")
    print(f"{'transport':9s} {'unbatched/call':>15s} {'batched/call':>14s} {'speedup':>9s}")
    failures = 0
    rows = []
    for transport in TRANSPORTS:
        row = _compare(transport, orders)
        rows.append(row)
        ok = row["speedup"] >= MIN_SPEEDUP
        failures += 0 if ok else 1
        print(
            f"{transport:9s} {row['unbatched_per_call']:13.6f} s "
            f"{row['batched_per_call']:12.6f} s {row['speedup']:7.1f}x"
            f"{'' if ok else '  FAIL (< 3x)'}"
        )
    write_bench_json(
        "batching",
        {
            "orders": orders,
            "batch_size": BATCH_SIZE,
            "min_speedup": MIN_SPEEDUP,
            "speedups": {row["transport"]: round(row["speedup"], 3) for row in rows},
            "per_call_seconds": {
                row["transport"]: {
                    "unbatched": round(row["unbatched_per_call"], 9),
                    "batched": round(row["batched_per_call"], 9),
                }
                for row in rows
            },
            "ok": failures == 0,
        },
    )
    print("ok" if failures == 0 else f"{failures} transport(s) below {MIN_SPEEDUP}x")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
