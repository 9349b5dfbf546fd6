"""Bulk order ingestion: a high-throughput, batching-friendly workload.

A warehouse gateway streams large volumes of small, independent order
submissions at a central intake service on another node.  Issued one call at
a time, every submission pays a full round trip on the simulated network and
per-message transport overhead; issued through a batching
:class:`~repro.api.policy.ServicePolicy`, those costs are amortised across
the batch window.  The scenario drives the :mod:`repro.api` façade — one
:class:`~repro.api.session.Session`, one service, no hand-wired proxies —
and is the workload behind ``benchmarks/bench_batching.py``.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.api import ServicePolicy, Session

#: Deterministic per-process sequence making every scenario run's service
#: names unique, so repeated runs against ONE cluster never collide on the
#: naming service (deploying over a bound name is a PolicyError by design).
#: Shared by the sibling workloads (pipelined_orders, replicated_orders),
#: which combine it with distinct per-scenario name prefixes.
_RUN_SEQ = itertools.count()


class OrderIntake:
    """Central order-intake service: accepts independent order submissions."""

    def __init__(self):
        self.accepted = []
        self.rejected = 0

    def submit(self, sku, quantity, unit_price):
        if quantity <= 0:
            self.rejected = self.rejected + 1
            raise ValueError(f"quantity must be positive, got {quantity}")
        accepted = self.accepted
        order_id = len(accepted)
        accepted.append(
            {"id": order_id, "sku": sku, "quantity": quantity,
             "total": quantity * unit_price}
        )
        self.accepted = accepted
        return order_id

    def accepted_count(self):
        return len(self.accepted)

    def rejected_count(self):
        return self.rejected

    def total_units(self):
        return sum(order["quantity"] for order in self.accepted)

    def revenue(self):
        return sum(order["total"] for order in self.accepted)


def run_bulk_order_scenario(
    cluster,
    *,
    transport: str = "rmi",
    orders: int = 256,
    batch_size: int = 1,
    client: str = "client",
    server: str = "server",
    intake: Optional[OrderIntake] = None,
) -> dict:
    """Push ``orders`` submissions from ``client`` to an intake on ``server``.

    The intake is deployed as a façade service; ``batch_size == 1`` issues
    one remote call per order (a plain :class:`~repro.api.policy.ServicePolicy`),
    larger values buffer the submissions into batch windows of that size.
    Returns the scenario's simulated cost figures.
    """

    if orders < 1:
        raise ValueError("orders must be at least 1")
    if intake is None:
        intake = OrderIntake()
    # The context manager guarantees teardown (listeners, probes) even when
    # the scenario fails mid-stream — nothing leaks into the caller's cluster.
    with Session(cluster, node=client) as session:
        # batch_size <= 1 historically meant "unbatched" (including 0 and
        # negatives); map those onto a plain policy rather than letting
        # ServicePolicy reject them.
        policy = ServicePolicy(transport=transport, batch_window=max(1, batch_size))
        service = session.service(
            f"bulk-orders-{next(_RUN_SEQ)}", policy, impl=intake, node=server
        )

        started = cluster.clock.now
        messages_before = cluster.metrics.total_messages
        bytes_before = cluster.metrics.total_bytes

        if batch_size <= 1:
            for index in range(orders):
                service.submit(f"sku-{index % 16}", 1 + index % 3, 10 + index % 7)
        else:
            pending = [
                service.future.submit(f"sku-{index % 16}", 1 + index % 3, 10 + index % 7)
                for index in range(orders)
            ]
            service.flush()
            for placeholder in pending:
                placeholder.result()

    elapsed = cluster.clock.now - started
    return {
        "transport": transport,
        "orders": orders,
        "batch_size": batch_size,
        "accepted": intake.accepted_count(),
        "simulated_seconds": elapsed,
        "per_call_seconds": elapsed / orders,
        "messages": cluster.metrics.total_messages - messages_before,
        "bytes_on_wire": cluster.metrics.total_bytes - bytes_before,
    }
