"""Kill-a-shard order ingestion: the replication + failover workload.

The sharded bulk-order workload (:mod:`repro.workloads.pipelined_orders`)
streams submissions across intake shards; this variant asks what happens when
one of those shards *dies mid-stream*.  Everything is assembled by the
:mod:`repro.api` façade from one declarative policy: each shard's
:class:`~repro.workloads.bulk_orders.OrderIntake` becomes a service whose
:class:`~repro.api.policy.ServicePolicy` carries ``replication_factor=2``, so
the session keeps a backup copy on a neighbouring shard node, arms a
heartbeat detector watching the shards from the client, and builds its
pipeline scheduler failover-aware.  Halfway through the stream a shard node
is crashed: its in-flight batches fail, the detector declares it dead, the
replica manager promotes the backup and rebinds the name, and the requeued
calls re-resolve onto the promoted replica — the client sees *every*
submission complete, with the recovery cost visible only as latency: the
affected calls stall for the failover window (crash → detection → promotion,
reported as ``failover_delay_seconds``), never as failures.

``benchmarks/bench_replication.py`` compares this against the unreplicated
baseline (same kill, no backups: the calls to the dead shard are lost) and
reports the failover window plus the recovered-call latency alongside the
steady-state latency.
(Note the recovered *mean* can come out below the steady-state mean: both
are measured from submission, so steady calls carry the eager-replication
write amplification and window backpressure that the post-failover calls —
running unprotected until the dead node re-enlists — do not.)
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api import ServicePolicy, Session

from repro.workloads.bulk_orders import _RUN_SEQ, OrderIntake

#: Members of :class:`~repro.workloads.bulk_orders.OrderIntake` that never
#: mutate state and therefore need no replication to backups.
INTAKE_READONLY = ("accepted_count", "rejected_count", "total_units", "revenue")


def _order_args(index: int) -> tuple:
    """Deterministic (sku, quantity, unit price) for submission ``index``."""
    return (f"sku-{index % 16}", 1 + index % 3, 10 + index % 7)


def run_replicated_order_scenario(
    cluster,
    *,
    transport: str = "rmi",
    orders: int = 256,
    batch_size: int = 16,
    window: int = 4,
    client: str = "client",
    shards: Sequence[str] = ("shard-0", "shard-1"),
    replicate: bool = True,
    sync: str = "eager",
    kill: Optional[str] = None,
    kill_after: float = 0.5,
    heartbeat_interval: float = 0.002,
    miss_threshold: int = 2,
    max_failover_attempts: int = 12,
) -> dict:
    """Stream ``orders`` submissions across shards, optionally killing one.

    One :class:`~repro.workloads.bulk_orders.OrderIntake` is deployed as a
    façade service per shard and submissions are assigned round-robin.  With
    ``replicate=True`` every service's policy replicates (factor 2, backup on
    the next shard node — ring placement), which makes the session stand up
    the heartbeat detector, the replica manager and the failover-aware
    scheduler on its own.  ``kill`` names a shard node to crash after
    ``kill_after`` of the submissions have been issued (``None`` = steady
    state).

    Returns the scenario's simulated figures, including the count of
    client-visible failures (0 in the replicated kill run), the failover
    window (crash to first promotion), per-failover promotion times, and
    the mean latency of steady-state calls vs the calls that rode through
    the failover.
    """
    if orders < 1:
        raise ValueError("orders must be at least 1")
    if len(shards) < 2 and replicate:
        raise ValueError("replication needs at least two shard nodes")
    if not 0.0 <= kill_after <= 1.0:
        raise ValueError("kill_after must be a fraction in [0, 1]")

    intakes = [OrderIntake() for _ in shards]
    # The context manager guarantees teardown (listeners, probes) even when
    # the scenario fails mid-stream — nothing leaks into the caller's cluster.
    with Session(cluster, node=client) as session:
        policy = ServicePolicy(
            transport=transport,
            batch_window=batch_size,
            pipeline_depth=window,
            heartbeat_interval=heartbeat_interval,
            miss_threshold=miss_threshold,
            max_failover_attempts=max_failover_attempts,
        )
        run_id = next(_RUN_SEQ)
        if replicate:
            policy = policy.with_replication(
                2, quorum=1, sync=sync, readonly=INTAKE_READONLY
            )
            services = [
                session.service(
                    f"replicated-orders-{run_id}-{index}",
                    policy,
                    impl=intake,
                    node=node,
                    backup_nodes=[shards[(index + 1) % len(shards)]],
                )
                for index, (node, intake) in enumerate(zip(shards, intakes))
            ]
            groups = [service.group for service in services]
        else:
            services = [
                session.service(f"replicated-orders-{run_id}-{index}", policy, impl=intake, node=node)
                for index, (node, intake) in enumerate(zip(shards, intakes))
            ]
            groups = []
        manager = session.replica_manager
        scheduler = services[0].scheduler

        started = cluster.clock.now
        messages_before = cluster.metrics.total_messages
        bytes_before = cluster.metrics.total_bytes

        kill_index = int(orders * kill_after) if kill is not None else None
        killed_at = None
        futures = []
        for index in range(orders):
            if kill_index is not None and index == kill_index:
                cluster.network.failures.crash_node(kill)
                killed_at = cluster.clock.now
            futures.append(services[index % len(services)].future.submit(*_order_args(index)))
        if kill_index is not None and killed_at is None:
            # kill_after == 1.0: the crash lands after the last submission but
            # before the drain, so the kill still happens (against the in-flight
            # tail) rather than silently degrading to a steady-state run.
            cluster.network.failures.crash_node(kill)
            killed_at = cluster.clock.now
        session.drain()

    elapsed = cluster.clock.now - started
    failures = sum(1 for future in futures if not future.ok)
    values = [future.result() for future in futures if future.ok]

    steady = [
        future.completed_at - future.submitted_at
        for future in futures
        if future.ok and future.attempts == 1
    ]
    recovered = [
        future.completed_at - future.submitted_at
        for future in futures
        if future.ok and future.attempts > 1
    ]

    if groups:
        accepted = sum(group.primary_impl.accepted_count() for group in groups)
        writes_propagated = sum(group.writes_propagated for group in groups)
        snapshots_shipped = sum(group.snapshots_shipped for group in groups)
        forward_messages = sum(group.forward_messages for group in groups)
    else:
        accepted = sum(intake.accepted_count() for intake in intakes)
        writes_propagated = 0
        snapshots_shipped = 0
        forward_messages = 0

    return {
        "transport": transport,
        "orders": orders,
        "batch_size": batch_size,
        "window": window,
        "shards": len(shards),
        "replicated": replicate,
        "sync": sync if replicate else None,
        "killed_node": kill,
        "accepted": accepted,
        "values": values,
        "client_visible_failures": failures,
        "calls_retried": scheduler.calls_retried,
        "calls_redirected": scheduler.calls_redirected,
        "failovers": len(manager.failovers) if manager is not None else 0,
        "failover_times": [
            record.simulated_time for record in manager.failovers
        ]
        if manager is not None
        else [],
        # Simulated seconds from the crash to the first promotion: the
        # window during which affected calls stall (detection + failover).
        "failover_delay_seconds": (
            manager.failovers[0].simulated_time - killed_at
            if manager is not None and manager.failovers and killed_at is not None
            else 0.0
        ),
        "writes_propagated": writes_propagated,
        "snapshots_shipped": snapshots_shipped,
        "forward_messages": forward_messages,
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
