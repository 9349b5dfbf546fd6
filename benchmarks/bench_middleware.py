"""Interceptor-chain overhead and rate-limiting fairness.

Two claims about the middleware layer (``repro.api.middleware``):

* **Overhead** — running every call through a three-interceptor client
  chain (deadline + rate limit + metrics) plus a server-side chain costs at
  most 10% simulated time per call versus the bare pipe, at batch window
  32.  The chain brackets run in zero simulated time; what the ceiling
  guards is that the wire context the chain adds (call id, tenant,
  deadline) stays a few bytes per call, not a second envelope.
* **Fairness** — on a shared, capacity-bounded service, per-tenant
  client-side rate limiting caps a hogging tenant so the polite tenant
  keeps at least 40% of its offered goodput (it keeps far less under the
  unlimited baseline's pool contention at the same hog load).

Run standalone for a quick smoke check (used by CI)::

    PYTHONPATH=src python benchmarks/bench_middleware.py
"""

from __future__ import annotations

from _helpers import write_bench_json

from repro.api import (
    DeadlineInterceptor,
    MetricsInterceptor,
    RateLimitInterceptor,
    ServicePolicy,
)
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import run_order_stream
from repro.workloads.multi_tenant import run_multi_tenant_scenario

ORDERS = 256
BATCH_SIZE = 32
TRANSPORT = "rmi"
#: Ceiling on chained-vs-plain simulated per-call time at window 32.
MAX_OVERHEAD = 1.10
#: Floor on the polite tenant's completed/offered fraction when limited.
MIN_FAIRNESS = 0.40

#: Multi-tenant scenario shape: a hog offering 4x the pool's capacity while
#: the polite tenant stays inside its fair share.
TENANT_KWARGS = dict(
    transport=TRANSPORT,
    duration=0.5,
    hog_rate=8000.0,
    polite_rate=400.0,
    workers=2,
    queue_limit=8,
    service_time=0.002,
)
#: Per-tenant client-side grant in the limited run (calls per second).
LIMIT_RATE = 600.0


def _run_orders(middleware: bool, orders: int = ORDERS) -> dict:
    """The bulk-order workload at window 32, bare or fully chained.

    The chained run adds a 3-interceptor client chain and a server-side chain
    that admit everything (generous limits), so the difference measured is
    pure chain + wire-context cost.
    """
    policy = ServicePolicy(transport=TRANSPORT, batch_window=BATCH_SIZE)
    if middleware:
        policy = policy.with_middleware(
            DeadlineInterceptor(60.0),
            RateLimitInterceptor(rate=1e9, burst=float(orders)),
            MetricsInterceptor(),
            server=[MetricsInterceptor()],
        ).with_tenant("bench")
    return run_order_stream(Cluster(("client", "server")), policy, orders=orders)


def _compare_overhead(orders: int = ORDERS) -> dict:
    plain = _run_orders(False, orders)
    chained = _run_orders(True, orders)
    return {
        "plain_per_call": plain["per_call_seconds"],
        "chained_per_call": chained["per_call_seconds"],
        "overhead": chained["per_call_seconds"] / plain["per_call_seconds"],
    }


def _run_fairness() -> dict:
    unlimited = run_multi_tenant_scenario(
        Cluster(("hog", "polite", "server")), limit_rate=None, **TENANT_KWARGS
    )
    limited = run_multi_tenant_scenario(
        Cluster(("hog", "polite", "server")), limit_rate=LIMIT_RATE, **TENANT_KWARGS
    )
    return {
        "unlimited_fairness": unlimited["fairness_ratio"],
        "limited_fairness": limited["fairness_ratio"],
        "unlimited": unlimited,
        "limited": limited,
    }


# -- pytest-benchmark entry points -------------------------------------------


def bench_chained_orders_overhead(benchmark):
    """Chained per-call time must stay within 10% of the bare pipe's."""
    row = benchmark.pedantic(_compare_overhead, rounds=1, iterations=1)
    assert row["overhead"] <= MAX_OVERHEAD, (
        f"middleware overhead {row['overhead']:.3f}x exceeds the "
        f"{MAX_OVERHEAD}x ceiling"
    )
    benchmark.extra_info["overhead"] = round(row["overhead"], 4)


def bench_rate_limited_fairness(benchmark):
    """The limited polite tenant must keep >= 40% of its offered goodput."""
    row = benchmark.pedantic(_run_fairness, rounds=1, iterations=1)
    assert row["limited_fairness"] >= MIN_FAIRNESS, (
        f"polite tenant kept {row['limited_fairness']:.2f} of its offered "
        f"goodput under rate limiting; the floor is {MIN_FAIRNESS}"
    )
    assert row["limited_fairness"] > row["unlimited_fairness"], (
        "rate limiting did not improve the polite tenant's completion ratio"
    )
    benchmark.extra_info["fairness"] = {
        "unlimited": round(row["unlimited_fairness"], 4),
        "limited": round(row["limited_fairness"], 4),
    }


def bench_multi_tenant_unlimited(benchmark):
    """The contention baseline, recorded for the comparison row."""
    outcome = benchmark(
        lambda: run_multi_tenant_scenario(
            Cluster(("hog", "polite", "server")), limit_rate=None, **TENANT_KWARGS
        )
    )
    benchmark.extra_info["fairness_ratio"] = round(outcome["fairness_ratio"], 4)


# -- standalone smoke run ----------------------------------------------------


def main(orders: int = ORDERS) -> int:
    print(f"middleware chain: {orders} orders, batch window {BATCH_SIZE}")
    overhead = _compare_overhead(orders)
    overhead_ok = overhead["overhead"] <= MAX_OVERHEAD
    print(
        f"per-call {TRANSPORT}: plain {overhead['plain_per_call']:.6f} s, "
        f"chained {overhead['chained_per_call']:.6f} s "
        f"-> {overhead['overhead']:.3f}x"
        f"{'' if overhead_ok else f'  FAIL (> {MAX_OVERHEAD}x)'}"
    )

    fairness = _run_fairness()
    fairness_ok = (
        fairness["limited_fairness"] >= MIN_FAIRNESS
        and fairness["limited_fairness"] > fairness["unlimited_fairness"]
    )
    print(
        f"polite tenant completion: unlimited "
        f"{fairness['unlimited_fairness']:.3f}, limited "
        f"{fairness['limited_fairness']:.3f}"
        f"{'' if fairness_ok else f'  FAIL (< {MIN_FAIRNESS} or no gain)'}"
    )

    write_bench_json(
        "middleware",
        {
            "orders": orders,
            "batch_size": BATCH_SIZE,
            "transport": TRANSPORT,
            "max_overhead": MAX_OVERHEAD,
            "min_fairness": MIN_FAIRNESS,
            "overhead": round(overhead["overhead"], 6),
            "per_call_seconds": {
                "plain": round(overhead["plain_per_call"], 9),
                "chained": round(overhead["chained_per_call"], 9),
                # What the chain adds per call: the ratio above also moves
                # when the plain call alone gets cheaper.
                "chained_minus_plain": round(
                    overhead["chained_per_call"] - overhead["plain_per_call"], 9),
            },
            "fairness": {
                "unlimited": round(fairness["unlimited_fairness"], 6),
                "limited": round(fairness["limited_fairness"], 6),
                "limit_rate": LIMIT_RATE,
                "hog_rate": TENANT_KWARGS["hog_rate"],
                "polite_rate": TENANT_KWARGS["polite_rate"],
                "capacity": fairness["limited"]["capacity"],
            },
            "ok": overhead_ok and fairness_ok,
        },
    )
    failures = (0 if overhead_ok else 1) + (0 if fairness_ok else 1)
    print("ok" if failures == 0 else f"{failures} middleware claim(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
