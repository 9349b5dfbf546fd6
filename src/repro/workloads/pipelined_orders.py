"""Sharded bulk-order ingestion: the pipelined-dispatch workload.

The bulk-order workload (:mod:`repro.workloads.bulk_orders`) showed that
batching amortises per-message cost; this variant shows what batching alone
cannot remove — the *wait* between batches.  A gateway client streams order
submissions round-robin across N intake shards hosted on different cluster
nodes.  Both dispatch modes run through the :mod:`repro.api` façade: one
:class:`~repro.api.session.Session`, one service per shard.  With
``pipeline_depth=1`` every batch's round trip is paid in full before the
next batch leaves (the sequential-batched baseline); with
``pipeline_depth=W`` the shards' services share the session's pipeline
scheduler, a window of W batches is in flight concurrently and completions
arrive out of order as shards answer, so the stream pays roughly ``max``
instead of ``sum`` of the window's round trips.

For any real batch window (``batch_size > 1``) both dispatch modes issue the
*same* sub-batches in the same order, so the comparison in
``benchmarks/bench_pipelining.py`` isolates the effect of pipelining.  The degenerate
``batch_size=1`` configuration mirrors :mod:`repro.workloads.bulk_orders`
instead: the sequential mode uses classic single-invocation messages while
the pipelined mode ships batch-of-one frames, so their per-message framing
charges differ slightly and the ratio is not a pure pipelining measurement.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api import ServicePolicy, Session
from repro.runtime.faulttolerance import RetryPolicy
from repro.workloads.bulk_orders import _RUN_SEQ, OrderIntake


def _order_args(index: int) -> tuple:
    """Deterministic (sku, quantity, unit price) for submission ``index``."""
    return (f"sku-{index % 16}", 1 + index % 3, 10 + index % 7)


def run_sharded_order_scenario(
    cluster,
    *,
    transport: str = "rmi",
    orders: int = 256,
    batch_size: int = 32,
    window: int = 4,
    pipelined: bool = True,
    client: str = "client",
    servers: Sequence[str] = ("server-0", "server-1"),
    retry_policy: Optional[RetryPolicy] = None,
) -> dict:
    """Stream ``orders`` submissions round-robin across intake shards.

    One :class:`~repro.workloads.bulk_orders.OrderIntake` is deployed as a
    façade service per shard node and submissions are assigned round-robin
    (order ``i`` goes to shard ``i % len(servers)``), grouped into
    sub-batches of ``batch_size`` per shard.

    ``pipelined=True`` gives every shard's service a
    :class:`~repro.api.policy.ServicePolicy` with ``pipeline_depth=window``
    (and the optional ``retry_policy``) — the services share the session's
    scheduler, so the whole stream is windowed and completes out of order.
    ``pipelined=False`` issues exactly the same sub-batches synchronously,
    one round trip after another — the sequential-batched baseline.

    Returns the scenario's simulated cost figures, including the observed
    out-of-order completion count (always 0 for the sequential mode).
    """

    if orders < 1:
        raise ValueError("orders must be at least 1")
    if not servers:
        raise ValueError("the scenario needs at least one server shard")
    intakes = [OrderIntake() for _ in servers]
    # The context manager guarantees teardown (listeners, probes) even when
    # the scenario fails mid-stream — nothing leaks into the caller's cluster.
    with Session(cluster, node=client) as session:
        policy = ServicePolicy(
            transport=transport,
            batch_window=batch_size,
            pipeline_depth=window if pipelined else 1,
        )
        if retry_policy is not None and pipelined:
            # The sequential baseline keeps its historical atomic-failure
            # semantics; retries belong to the pipelined mode only, so both
            # modes issue exactly the same sub-batches under loss-free runs
            # and the comparison stays apples-to-apples.
            policy = policy.with_retry(retry_policy)
        run_id = next(_RUN_SEQ)
        services = [
            session.service(
                f"sharded-orders-{run_id}-{node}", policy, impl=intake, node=node
            )
            for node, intake in zip(servers, intakes)
        ]

        started = cluster.clock.now
        messages_before = cluster.metrics.total_messages
        bytes_before = cluster.metrics.total_bytes

        futures = [
            services[index % len(services)].future.submit(*_order_args(index))
            for index in range(orders)
        ]
        session.drain()
        values = [future.result() for future in futures]
        # Behind a sequential policy's window of one these read 0, 0, 1, 1.0
        # (an unbatched stream bypasses its scheduler: one exchange in flight).
        scheduler = services[0].scheduler
        out_of_order = scheduler.out_of_order_completions
        retried = scheduler.calls_retried
        max_in_flight = max(1, scheduler.max_in_flight)
        observed_depth = scheduler.observed_pipeline_depth

    elapsed = cluster.clock.now - started
    return {
        "transport": transport,
        "orders": orders,
        "batch_size": batch_size,
        "window": window if pipelined else 1,
        "shards": len(services),
        "pipelined": pipelined,
        "accepted": sum(intake.accepted_count() for intake in intakes),
        "values": values,
        "out_of_order_completions": out_of_order,
        "calls_retried": retried,
        "max_in_flight": max_in_flight,
        "observed_pipeline_depth": observed_depth,
        "simulated_seconds": elapsed,
        "per_call_seconds": elapsed / orders,
        "messages": cluster.metrics.total_messages - messages_before,
        "bytes_on_wire": cluster.metrics.total_bytes - bytes_before,
    }
