"""Order ingestion: the stream behind the batching, pipelining, replication,
middleware and tracing experiments.

A warehouse gateway streams small, independent order submissions at
:class:`OrderIntake` shards on other nodes.  One driver,
:func:`run_order_stream`, runs every variant; the
:class:`~repro.api.policy.ServicePolicy` it is given decides the rest.  A
plain policy pays a full round trip and per-message transport overhead per
order; a batch window amortises both; a pipeline depth overlaps the
windows' round trips, so completions arrive out of order as shards answer; a
replication factor keeps a backup of each shard on the next shard node, so
a shard crashed mid-stream costs latency (the failover window) instead of
lost calls; middleware and tracing bracket every call.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api import ServicePolicy, Session
from repro.workloads._runs import run_prefix

#: Members of :class:`OrderIntake` that never mutate state and therefore
#: need no replication to backups.
INTAKE_READONLY = ("accepted_count", "rejected_count", "total_units", "revenue")


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


def run_order_stream(
    cluster,
    policy: ServicePolicy,
    *,
    orders: int = 256,
    client: str = "client",
    shards: Sequence[str] = ("server",),
    kill: Optional[str] = None,
    kill_after: float = 0.5,
) -> dict:
    """Stream ``orders`` submissions from ``client`` across intake ``shards``.

    One :class:`OrderIntake` is deployed per shard node under ``policy``;
    when the policy replicates, shard ``i``'s backups go on the shard nodes
    after it in the list.  Order ``i`` is submitted to shard
    ``i % len(shards)`` as a future; ``kill`` names a node to crash after
    ``kill_after`` of the submissions (at 1.0, after the last one, before
    the drain), then the session drains.

    Returns the stream's figures: simulated time, traffic, acceptances, the
    values of the calls that completed, the client-visible failures, the
    scheduler's counters, the failovers and their latencies, and — when
    the policy traces — the trace ``collector``.
    """
    if orders < 1:
        raise ValueError("orders must be at least 1")
    if len(shards) <= policy.backup_count:
        raise ValueError(
            f"{policy.replication_factor} copies of each intake need as many "
            f"shard nodes, got {len(shards)}"
        )
    if not 0.0 <= kill_after <= 1.0:
        raise ValueError("kill_after must be a fraction in [0, 1]")

    intakes = [OrderIntake() for _ in shards]
    prefix = run_prefix(cluster, "orders")
    # The context manager guarantees teardown (listeners, probes) even when
    # the stream fails midway — nothing leaks into the caller's cluster.
    with Session(cluster, node=client) as session:
        collector = session.tracer().collector if policy.traced else None
        services = [
            session.service(
                f"{prefix}-{index}",
                policy,
                impl=intake,
                node=node,
                backup_nodes=[
                    shards[(index + step) % len(shards)]
                    for step in range(1, policy.backup_count + 1)
                ],
            )
            for index, (node, intake) in enumerate(zip(shards, intakes))
        ]
        manager = session.replica_manager
        scheduler = services[0].scheduler

        started = cluster.clock.now
        messages_before = cluster.metrics.total_messages
        bytes_before = cluster.metrics.total_bytes

        def submit(index):
            return services[index % len(services)].future.submit(
                f"sku-{index % 16}", 1 + index % 3, 10 + index % 7
            )

        # At kill_after == 1.0 the crash lands after the last submission but
        # before the drain, against the in-flight tail.
        kill_index = int(orders * kill_after) if kill is not None else orders
        futures = [submit(index) for index in range(kill_index)]
        killed_at = None
        if kill is not None:
            cluster.network.failures.crash_node(kill)
            killed_at = cluster.clock.now
        futures += [submit(index) for index in range(kill_index, orders)]
        session.drain()

    elapsed = cluster.clock.now - started
    completed = [future for future in futures if future.ok]
    steady = [f.completed_at - f.submitted_at for f in completed if f.attempts == 1]
    recovered = [f.completed_at - f.submitted_at for f in completed if f.attempts > 1]
    groups = [service.group for service in services if service.group is not None]
    failovers = manager.failovers if manager is not None else []
    figures = {
        "transport": policy.transport,
        "orders": orders,
        "batch_size": policy.batch_window,
        "window": policy.pipeline_depth,
        "shards": len(shards),
        "pipelined": policy.pipelined,
        "replicated": policy.replicated,
        "sync": policy.sync if policy.replicated else None,
        "killed_node": kill,
        "accepted": sum(
            (service.group.primary_impl if service.group is not None else intake)
            .accepted_count()
            for service, intake in zip(services, intakes)
        ),
        "values": [future.result() for future in completed],
        "client_visible_failures": orders - len(completed),
        "out_of_order_completions": scheduler.out_of_order_completions,
        "calls_retried": scheduler.calls_retried,
        "calls_redirected": scheduler.calls_redirected,
        # Behind a window of one these read 1 and 1.0 (an unbatched stream
        # bypasses its scheduler: one exchange in flight).
        "max_in_flight": max(1, scheduler.max_in_flight),
        "observed_pipeline_depth": scheduler.observed_pipeline_depth,
        "failovers": len(failovers),
        "failover_times": [record.simulated_time for record in failovers],
        # Simulated seconds from the crash to the first promotion: the
        # window during which affected calls stall (detection + failover).
        "failover_delay_seconds": (
            failovers[0].simulated_time - killed_at
            if failovers and killed_at is not None
            else 0.0
        ),
        "writes_propagated": sum(group.writes_propagated for group in groups),
        "snapshots_shipped": sum(group.snapshots_shipped for group in groups),
        "forward_messages": sum(group.forward_messages for group in groups),
        "steady_calls": len(steady),
        "recovered_calls": len(recovered),
        "steady_latency_mean": sum(steady) / len(steady) if steady else 0.0,
        "recovered_latency_mean": sum(recovered) / len(recovered) if recovered else 0.0,
        "recovered_latency_max": max(recovered) if recovered else 0.0,
        "simulated_seconds": elapsed,
        "per_call_seconds": elapsed / orders,
        "messages": cluster.metrics.total_messages - messages_before,
        "bytes_on_wire": cluster.metrics.total_bytes - bytes_before,
    }
    if collector is not None:
        figures["collector"] = collector
    return figures
