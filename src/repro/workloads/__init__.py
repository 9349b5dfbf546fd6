"""Synthetic application workloads used by the examples, tests and benchmarks.

Each workload is a small, ordinary (non-distributed) Python program written
exactly as the paper's input programs are: with no awareness of the
middleware.  The drivers then transform them and exercise them under
different distribution policies.
"""

from repro.workloads.bulk_orders import OrderIntake, run_order_stream
from repro.workloads.figure1 import A, B, C, Figure1Result, run_figure1_scenario
from repro.workloads.multi_tenant import TenantLedger, run_multi_tenant_scenario
from repro.workloads.open_loop import (
    KeyValueCatalog,
    detect_knee,
    run_open_loop_scenario,
    zipf_weights,
)
from repro.workloads.orders import (
    Catalog,
    CustomerSession,
    OrderStore,
)
from repro.workloads.pipeline import Buffer, Consumer, Producer, run_pipeline
from repro.workloads.shared_cache import Cache, CacheClient, CacheStats, run_cache_workload

__all__ = [
    "A",
    "B",
    "Buffer",
    "C",
    "Cache",
    "CacheClient",
    "CacheStats",
    "Catalog",
    "Consumer",
    "CustomerSession",
    "Figure1Result",
    "KeyValueCatalog",
    "OrderIntake",
    "OrderStore",
    "Producer",
    "TenantLedger",
    "detect_knee",
    "run_cache_workload",
    "run_figure1_scenario",
    "run_multi_tenant_scenario",
    "run_open_loop_scenario",
    "run_order_stream",
    "run_pipeline",
    "zipf_weights",
]
