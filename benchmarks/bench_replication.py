"""Replication cost and failover recovery on the kill-a-shard workload.

Two questions, one workload (:func:`repro.workloads.bulk_orders.run_order_stream`
under a replicating policy):

* **What does replication cost in steady state?**  Eagerly-synchronized
  backups amplify every mutating call into one message per backup, so the
  replicated run pays measurably more messages and simulated time than the
  unreplicated baseline — the availability premium.
* **What does failover buy?**  A shard node is crashed mid-stream.  With a
  backup, the heartbeat detector promotes it, the scheduler redirects, and
  **every submitted call completes with zero client-visible failures** —
  the recovery cost shows up only as latency: the affected calls stall for
  the failover window (crash → detection → promotion), reported alongside
  the steady-state and recovered-call latencies.  Without a backup the same
  kill loses every call routed at the dead shard.

Run standalone for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_replication.py
"""

from __future__ import annotations

from _helpers import record_simulation, write_bench_json

from repro.api import ServicePolicy
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import INTAKE_READONLY, run_order_stream

ORDERS = 256
BATCH_SIZE = 16
WINDOW = 4
SHARDS = ("shard-0", "shard-1")
KILLED = SHARDS[0]
TRANSPORTS = ("inproc", "rmi", "corba", "soap")


def _cluster() -> Cluster:
    return Cluster(("client",) + SHARDS)


def _run(
    transport: str,
    *,
    replicate: bool,
    kill: bool,
    orders: int = ORDERS,
    sync: str = "eager",
) -> dict:
    cluster = _cluster()
    policy = ServicePolicy(transport=transport, batch_window=BATCH_SIZE, pipeline_depth=WINDOW)
    if replicate:
        policy = policy.with_replication(2, quorum=1, sync=sync, readonly=INTAKE_READONLY)
    outcome = run_order_stream(
        cluster, policy, orders=orders, shards=SHARDS, kill=KILLED if kill else None
    )
    outcome["cluster"] = cluster
    return outcome


def _compare(transport: str, orders: int = ORDERS) -> dict:
    """One transport's steady-state cost and kill-a-shard recovery figures."""
    baseline = _run(transport, replicate=False, kill=False, orders=orders)
    steady = _run(transport, replicate=True, kill=False, orders=orders)
    killed = _run(transport, replicate=True, kill=True, orders=orders)
    unprotected = _run(transport, replicate=False, kill=True, orders=orders)
    return {
        "transport": transport,
        "baseline_messages": baseline["messages"],
        "replicated_messages": steady["messages"],
        "write_amplification": steady["messages"] / baseline["messages"],
        "steady_per_call": steady["per_call_seconds"],
        "killed_failures": killed["client_visible_failures"],
        "killed_accepted": killed["accepted"],
        "unprotected_failures": unprotected["client_visible_failures"],
        "failovers": killed["failovers"],
        "failover_delay": killed["failover_delay_seconds"],
        "steady_latency": killed["steady_latency_mean"],
        "recovered_latency": killed["recovered_latency_mean"],
        "recovered_calls": killed["recovered_calls"],
        "recovery_ratio": (
            killed["recovered_latency_mean"] / killed["steady_latency_mean"]
            if killed["steady_latency_mean"]
            else 0.0
        ),
    }


def _extra(outcome: dict) -> dict:
    return {
        "transport": outcome["transport"],
        "replicated": outcome["replicated"],
        "killed_node": outcome["killed_node"],
        "accepted": outcome["accepted"],
        "client_visible_failures": outcome["client_visible_failures"],
        "failovers": outcome["failovers"],
        "recovered_calls": outcome["recovered_calls"],
        "per_call_seconds": round(outcome["per_call_seconds"], 9),
    }


# -- per-mode benchmarks -------------------------------------------------------


def bench_replicated_orders_steady_state(benchmark):
    """Eager replication in steady state: the write-amplification premium."""
    outcome = benchmark(lambda: _run("rmi", replicate=True, kill=False))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def bench_replicated_orders_interval_sync(benchmark):
    """Interval-mode sync: snapshots on the event queue instead of per-write."""
    outcome = benchmark(lambda: _run("rmi", replicate=True, kill=False, sync="interval"))
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


def bench_kill_a_shard_with_failover(benchmark):
    """The headline run: a shard dies mid-stream, every call still completes."""
    outcome = benchmark.pedantic(
        lambda: _run("rmi", replicate=True, kill=True), rounds=1, iterations=1
    )
    assert outcome["client_visible_failures"] == 0
    assert outcome["accepted"] == ORDERS
    assert outcome["failovers"] >= 1
    record_simulation(benchmark, outcome["cluster"], **_extra(outcome))


# -- the availability claim ----------------------------------------------------


def bench_failover_zero_client_failures_all_transports(benchmark):
    """Killing a backed-up shard must lose nothing, on every transport."""

    def run():
        return [_compare(transport) for transport in TRANSPORTS]

    comparisons = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in comparisons:
        assert row["killed_failures"] == 0, (
            f"{row['transport']}: {row['killed_failures']} client-visible "
            "failures despite a live backup"
        )
        assert row["killed_accepted"] == ORDERS, (
            f"{row['transport']}: {row['killed_accepted']}/{ORDERS} orders "
            "survived the failover (lost or duplicated writes)"
        )
        assert row["failovers"] >= 1, "the kill never triggered a failover"
        assert row["unprotected_failures"] > 0, (
            "the unreplicated baseline should lose calls when its shard dies"
        )
        assert row["write_amplification"] > 1.0, (
            "eager replication should cost extra messages"
        )
        assert row["failover_delay"] > 0.0, (
            "the promotion must happen after the crash, in simulated time"
        )
    benchmark.extra_info["failover_delays"] = {
        row["transport"]: round(row["failover_delay"], 6) for row in comparisons
    }
    benchmark.extra_info["recovery_ratios"] = {
        row["transport"]: round(row["recovery_ratio"], 2) for row in comparisons
    }


# -- standalone smoke run ------------------------------------------------------


def main(orders: int = ORDERS) -> int:
    print(
        f"kill-a-shard: {orders} orders, {len(SHARDS)} shards, batch window "
        f"{BATCH_SIZE}, in-flight window {WINDOW}, killing {KILLED!r} halfway"
    )
    print(
        f"{'transport':9s} {'amplification':>14s} {'lost (no rep)':>14s} "
        f"{'lost (rep)':>11s} {'failovers':>10s} {'failover window':>16s}"
    )
    failures = 0
    rows = []
    for transport in TRANSPORTS:
        row = _compare(transport, orders)
        rows.append(row)
        ok = (
            row["killed_failures"] == 0
            and row["killed_accepted"] == orders
            and row["failovers"] >= 1
            and row["failover_delay"] > 0.0
        )
        failures += 0 if ok else 1
        print(
            f"{transport:9s} {row['write_amplification']:13.2f}x "
            f"{row['unprotected_failures']:13d} {row['killed_failures']:11d} "
            f"{row['failovers']:10d} {row['failover_delay']:14.6f} s"
            f"{'' if ok else '  FAIL'}"
        )
    write_bench_json(
        "replication",
        {
            "orders": orders,
            "batch_size": BATCH_SIZE,
            "window": WINDOW,
            "shards": len(SHARDS),
            "killed_node": KILLED,
            "client_visible_failures": {
                row["transport"]: row["killed_failures"] for row in rows
            },
            "accepted": {row["transport"]: row["killed_accepted"] for row in rows},
            "unprotected_failures": {
                row["transport"]: row["unprotected_failures"] for row in rows
            },
            "failovers": {row["transport"]: row["failovers"] for row in rows},
            "write_amplification": {
                row["transport"]: round(row["write_amplification"], 3) for row in rows
            },
            "failover_delay_seconds": {
                row["transport"]: round(row["failover_delay"], 9) for row in rows
            },
            "latency_seconds": {
                row["transport"]: {
                    "steady": round(row["steady_latency"], 9),
                    "recovered": round(row["recovered_latency"], 9),
                }
                for row in rows
            },
            "recovery_ratios": {
                row["transport"]: round(row["recovery_ratio"], 3) for row in rows
            },
            "ok": failures == 0,
        },
    )
    print("ok" if failures == 0 else f"{failures} transport(s) failed the availability check")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
