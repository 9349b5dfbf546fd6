"""Tracing overhead and the sampled-out wire-identity guarantee.

Two claims about the observability layer (``repro.observability``):

* **Overhead** — tracing every call (``sample_rate=1.0``) costs at most
  15% simulated time per call versus the untraced pipe at batch window
  32.  Span bookkeeping runs in zero simulated time; what the ceiling
  guards is the wire cost of the trace context the sampled calls carry
  (trace id + parent span id, a few bytes per call, never a second
  envelope).
* **Wire identity** — a traced policy at ``sample_rate=0`` is
  indistinguishable on the wire from an untraced one: same message
  count, same byte count, same simulated per-call time.  Deploying with
  tracing compiled in but sampled out must be free.

The run also re-checks the analyzer invariant on live data: the slowest
trace's critical-path phases must sum exactly (integer nanoseconds) to
its root span's duration.

Run standalone for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_tracing.py
"""

from __future__ import annotations

from typing import Optional

from _helpers import write_bench_json

from repro.api import ServicePolicy
from repro.observability import slowest_traces
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import run_order_stream

ORDERS = 256
BATCH_SIZE = 32
TRANSPORT = "rmi"
#: Ceiling on traced-vs-untraced simulated per-call time at window 32.
MAX_OVERHEAD = 1.15


def _run_orders(tracing: Optional[float]) -> dict:
    """The bulk-order workload at window 32, untraced or traced."""
    policy = ServicePolicy(transport=TRANSPORT, batch_window=BATCH_SIZE)
    if tracing is not None:
        policy = policy.with_tracing(tracing)
    return run_order_stream(Cluster(("client", "server")), policy, orders=ORDERS)


def _compare() -> dict:
    plain = _run_orders(None)
    traced = _run_orders(1.0)
    sampled_out = _run_orders(0.0)

    collector = traced["collector"]
    exact = None
    open_spans = len(collector.open_spans())
    for path in slowest_traces(collector, 1):
        exact = sum(path.phases_ns.values()) == path.duration_ns
    return {
        "plain_per_call": plain["per_call_seconds"],
        "traced_per_call": traced["per_call_seconds"],
        "overhead": traced["per_call_seconds"] / plain["per_call_seconds"],
        "wire_identical": (
            sampled_out["messages"] == plain["messages"]
            and sampled_out["bytes_on_wire"] == plain["bytes_on_wire"]
            and sampled_out["per_call_seconds"] == plain["per_call_seconds"]
        ),
        "traces": len(collector.trace_ids()),
        "open_spans": open_spans,
        "phase_sum_exact": bool(exact),
    }


# -- pytest-benchmark entry points -------------------------------------------


def bench_tracing_overhead(benchmark):
    """Full sampling must stay within 15% of the untraced per-call time."""
    row = benchmark.pedantic(_compare, rounds=1, iterations=1)
    assert row["overhead"] <= MAX_OVERHEAD, (
        f"tracing overhead {row['overhead']:.3f}x exceeds the "
        f"{MAX_OVERHEAD}x ceiling"
    )
    assert row["wire_identical"], "sample_rate=0 changed the wire traffic"
    benchmark.extra_info["overhead"] = round(row["overhead"], 4)


# -- standalone smoke run ----------------------------------------------------


def main() -> int:
    print(f"tracing: {ORDERS} orders, batch window {BATCH_SIZE}, {TRANSPORT}")
    row = _compare()
    overhead_ok = row["overhead"] <= MAX_OVERHEAD
    print(
        f"per-call: plain {row['plain_per_call']:.6f} s, traced "
        f"{row['traced_per_call']:.6f} s -> {row['overhead']:.3f}x"
        f"{'' if overhead_ok else f'  FAIL (> {MAX_OVERHEAD}x)'}"
    )
    wire_ok = row["wire_identical"]
    print(
        "sample_rate=0 wire-identical to untraced: "
        + ("yes" if wire_ok else "NO  FAIL")
    )
    account_ok = (
        row["traces"] == ORDERS and row["open_spans"] == 0 and row["phase_sum_exact"]
    )
    print(
        f"accounting: {row['traces']} traces, {row['open_spans']} open spans, "
        f"phase sum exact: {row['phase_sum_exact']}"
        f"{'' if account_ok else '  FAIL'}"
    )

    write_bench_json(
        "tracing",
        {
            "orders": ORDERS,
            "batch_size": BATCH_SIZE,
            "transport": TRANSPORT,
            "max_overhead": MAX_OVERHEAD,
            "overhead": round(row["overhead"], 6),
            "per_call_seconds": {
                "plain": round(row["plain_per_call"], 9),
                "traced": round(row["traced_per_call"], 9),
                # What tracing adds per call: the ratio above also moves
                # when the plain call alone gets cheaper.
                "traced_minus_plain": round(row["traced_per_call"] - row["plain_per_call"], 9),
            },
            "wire_identical": wire_ok,
            "traces": row["traces"],
            "open_spans": row["open_spans"],
            "phase_sum_exact": row["phase_sum_exact"],
            "ok": overhead_ok and wire_ok and account_ok,
        },
    )
    failures = sum(0 if ok else 1 for ok in (overhead_ok, wire_ok, account_ok))
    print("ok" if failures == 0 else f"{failures} tracing claim(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
