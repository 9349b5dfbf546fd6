"""Partitioned order ledger: the quorum-replication safety workload.

The replicated-orders workload (:mod:`repro.workloads.replicated_orders`)
kills a node outright; this one asks the harder question partitions pose:
**what happens when everyone is alive but some of them cannot talk?**  A
three-replica :class:`OrderLedger` is deployed with
``with_replication(3, quorum="majority")`` (fenced) from a dedicated
*monitor* node, a *writer* session streams acknowledged orders into it, and
a *reader* session watches it through a client-side result cache.  Then one
of four asymmetric partition **cells** is installed:

``A`` — *blinded monitor, healthy primary's minority*: the monitor loses
sight of the primary only.  Its declaration still carries a majority of
adoption votes (both backups answer), so the promotion commits a new epoch;
the old primary fences itself the moment it is probed.

``B`` — *fully blinded monitor*: the monitor loses sight of every replica.
Its promotion attempt gathers no adoption votes and is **vetoed** — it
cannot mint a second primary no matter what its detector believes, and
writes keep committing on the untouched data plane.

``C`` — *isolated primary, quiet monitor*: the primary loses its backups
but the monitor sees everyone, so nothing is ever declared.  Quorum writes
fail visibly (:class:`~repro.api.errors.QuorumLostError`), the client's
acknowledged state stops moving, and the heal re-enlists the backups so
retried writes commit.

``D`` — *isolated primary, watching monitor*: the primary is cut off from
monitor and backups alike.  Writes applied locally on it never gather a
quorum (divergent, unacknowledged), the monitor promotes a backup by
majority vote, and the heal **reconciles** the fenced ex-primary: its
divergent ops are discarded and it is re-seeded from the quorum's state.

Throughout every cell the workload audits the two safety properties the
``benchmarks/bench_partition.py`` gate enforces on all four transports: **no
client-acknowledged write is ever lost** (each ack is mirrored and checked
against the surviving primary's state after the heal) and **no cached read
is ever stale** (every read must observe at least the committed mirror;
reads that run *ahead* of it — dirty reads of unacknowledged writes on an
isolated primary — are reported separately, as the paper's at-least-once
stance tolerates them but never the inverse).  Writes are idempotent keyed
upserts, so the client-side retry of a refused order can never double-count.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import CachePolicy, ServicePolicy, Session, cacheable
from repro.api.errors import FencedError, NetworkError, QuorumLostError

#: Distinguishes concurrent scenario runs sharing one cluster's naming.
_RUN_SEQ = itertools.count()

#: The four partition cells of the safety matrix (see the module docstring).
PARTITION_CELLS = ("A", "B", "C", "D")


class OrderLedger:
    """A replicated order book with idempotent keyed writes.

    ``place`` is an upsert on the order id: re-placing the same order with
    the same amount is a no-op in effect, which makes client-side retries of
    refused writes safe by construction (the at-least-once delivery the
    retry layers provide can never double-count an order).
    """

    def __init__(self):
        self.orders: Dict[str, int] = {}

    def place(self, order_id, amount):
        """Record (or re-record) one order; returns the ledger size."""
        self.orders[order_id] = amount
        return len(self.orders)

    @cacheable
    def order_count(self):
        """How many distinct orders the ledger holds (side-effect-free)."""
        return len(self.orders)

    @cacheable
    def total_amount(self):
        """Sum of all order amounts (side-effect-free)."""
        return sum(self.orders.values())


#: Members that never mutate state: skipped by replication forwarding, and
#: safe for the reader session's cache.
LEDGER_READONLY = ("order_count", "total_amount")


def _pump(cluster, seconds: float) -> None:
    """Run the cluster's event queue for ``seconds`` of simulated time.

    Heartbeat rounds, reseed retries and sync ticks all live on the event
    queue; between synchronous client calls nothing drives it, so the
    scenario pumps explicitly wherever detection or recovery must progress.
    """
    cluster.network.events.run_until(cluster.clock.now + seconds)


def _partition_groups(
    cell: str, monitor: str, replicas: Sequence[str]
) -> Tuple[List[str], List[str]]:
    """The two node groups :meth:`FailureModel.partition` separates for ``cell``.

    Pairwise partitions between *groups* are symmetric; the asymmetry of
    each cell comes from which nodes are **left out** — the writer and
    reader nodes are never partitioned, so the client's view and the
    monitor's view genuinely diverge.
    """
    primary, backups = replicas[0], list(replicas[1:])
    if cell == "A":
        return [monitor], [primary]
    if cell == "B":
        return [monitor], [primary, *backups]
    if cell == "C":
        return [primary], backups
    if cell == "D":
        return [primary], [monitor, *backups]
    raise ValueError(f"unknown partition cell {cell!r} (one of {PARTITION_CELLS})")


def run_partitioned_order_scenario(
    cluster,
    *,
    transport: str = "rmi",
    cell: str = "A",
    orders_before: int = 6,
    orders_during: int = 4,
    orders_after: int = 6,
    monitor: str = "monitor",
    client: str = "client",
    reader: str = "reader",
    replicas: Sequence[str] = ("p0", "p1", "p2"),
    lease_ms: float = 50.0,
    retry_attempts: int = 12,
) -> dict:
    """Drive one cell of the partition matrix; returns the audited figures.

    The scenario has five phases: a healthy *before* stream (every order
    acknowledged), the cell's partition with an immediate *during* burst
    (exercising divergence before any declaration lands), a detection pump
    and a second *during* burst (exercising promotion or veto), the *heal*
    with its reconciliation pump, and an *after* stream that first retries
    every refused order id and then appends fresh ones.  Reads interleave
    with every write and are audited against a client-side mirror of the
    acknowledged state: ``stale_reads`` counts observations *behind* the
    mirror (the gate requires zero), ``dirty_reads`` observations ahead of
    it (tolerated: an isolated primary serves its divergent, unacknowledged
    writes until it is fenced).
    """
    if cell not in PARTITION_CELLS:
        raise ValueError(f"unknown partition cell {cell!r} (one of {PARTITION_CELLS})")
    if len(replicas) < 3:
        raise ValueError("the quorum matrix needs at least three replica nodes")
    nodes = (monitor, client, reader, *replicas)
    if len(set(nodes)) != len(nodes):
        raise ValueError("monitor, client, reader and replica nodes must be distinct")

    run_id = next(_RUN_SEQ)
    name = f"partitioned-orders-{run_id}"
    failures = cluster.network.failures

    committed: Dict[str, int] = {}
    refused: Dict[str, int] = {}
    refusal_counts: Dict[str, int] = {}
    order_seq = itertools.count()
    reads = 0
    stale_reads = 0
    dirty_reads = 0
    read_refusals = 0

    started = cluster.clock.now
    messages_before = cluster.metrics.total_messages
    bytes_before = cluster.metrics.total_bytes

    with Session(cluster, node=monitor) as control, Session(
        cluster, node=client
    ) as writer_session, Session(cluster, node=reader) as reader_session:
        deploy_policy = ServicePolicy(transport=transport).with_replication(
            len(replicas), quorum="majority", readonly=LEDGER_READONLY
        )
        deployed = control.service(
            name,
            deploy_policy,
            impl=OrderLedger(),
            node=replicas[0],
            backup_nodes=list(replicas[1:]),
        )
        group = deployed.group
        manager = control.replica_manager
        heartbeat, misses = control.detector.interval, control.detector.miss_threshold

        ledger = writer_session.service(name, ServicePolicy(transport=transport))
        reads_policy = ServicePolicy(transport=transport).with_caching(
            CachePolicy(lease_ms=lease_ms, cacheable=LEDGER_READONLY)
        )
        ledger_reads = reader_session.service(name, reads_policy)

        def place(order_id: Optional[str] = None) -> bool:
            """Attempt one write; mirror it on ack, record it on refusal."""
            if order_id is None:
                order_id = f"order-{next(order_seq)}"
            amount = 10 + (int(order_id.rsplit("-", 1)[1]) % 7)
            try:
                ledger.place(order_id, amount)
            except (FencedError, QuorumLostError, NetworkError) as error:
                refusal_counts[type(error).__name__] = (
                    refusal_counts.get(type(error).__name__, 0) + 1
                )
                refused[order_id] = amount
                return False
            committed[order_id] = amount
            refused.pop(order_id, None)
            return True

        def check_read() -> None:
            """Audit one cached read pair against the acknowledged mirror."""
            nonlocal reads, stale_reads, dirty_reads, read_refusals
            try:
                observed_count = ledger_reads.order_count()
                observed_total = ledger_reads.total_amount()
                # Immediate re-read: served from the lease cache (a hit) and
                # audited identically — a stale cached value is as much a
                # violation as a stale fill.
                cached_count = ledger_reads.order_count()
            except (FencedError, QuorumLostError, NetworkError):
                read_refusals += 1
                return
            reads += 3
            if (
                observed_count < len(committed)
                or cached_count < len(committed)
                or observed_total < sum(committed.values())
            ):
                stale_reads += 1
            elif observed_count > len(committed):
                dirty_reads += 1

        # Phase 1 — healthy stream: every order must acknowledge.
        for _ in range(orders_before):
            place()
            check_read()
        _pump(cluster, heartbeat * (misses + 2))

        # Phase 2 — install the cell's partition; an immediate burst lands
        # before any declaration can (divergence window in cells C and D).
        failures.partition(*_partition_groups(cell, monitor, replicas))
        for _ in range(orders_during):
            place()
            check_read()

        # Phase 3 — let detection, veto or promotion play out, then a second
        # burst rides whatever the control plane decided.
        _pump(cluster, heartbeat * (misses + 8))
        for _ in range(orders_during):
            place()
            check_read()

        # Mid-run audit: epochs and fencing, observed while still partitioned.
        epoch_after_partition = group.epoch
        single_highest_epoch_primary = group.primary_wrapper._epoch == group.epoch and all(
            stale.epoch < group.epoch for stale in group.stale_primaries
        )
        fenced_probe = False
        if manager is not None and manager.failovers:
            # Probe the superseded reference directly: the fenced ex-primary
            # must reject the call rather than serve its stale state.
            old_ref = manager.failovers[0].old_reference
            try:
                cluster.space(client).invoke_remote(
                    old_ref, "order_count", (), transport=transport
                )
            except FencedError:
                fenced_probe = True
            except NetworkError:  # pragma: no cover - cells never block client->p0
                pass

        # Phase 4 — heal, then pump long enough for recovery declarations,
        # reconciliation and the reseed backoff chains to re-enlist everyone.
        failures.heal()
        _pump(cluster, heartbeat * 45)

        # Phase 5 — retry every refused order id (idempotent upserts make
        # this safe), then append a fresh acknowledged tail.
        for order_id in sorted(refused):
            for _ in range(retry_attempts):
                if place(order_id):
                    break
                _pump(cluster, heartbeat * 4)
            check_read()
        for _ in range(orders_after):
            place()
            check_read()

        # Final audit: every acknowledged write must be present, with its
        # acknowledged amount, in the surviving primary's state.
        ledger_state = group.primary_impl.orders
        acked_lost = sum(
            1
            for order_id, amount in committed.items()
            if ledger_state.get(order_id) != amount
        )
        reconciliations = [
            record
            for record in (manager.reconciliations if manager is not None else [])
            if record.group_name == name
        ]
        failovers = list(manager.failovers) if manager is not None else []
        cache = ledger_reads.cache
        figures = {
            "transport": transport,
            "cell": cell,
            "orders_attempted": orders_before + 2 * orders_during + orders_after,
            "acked": len(committed),
            "outstanding_refused": len(refused),
            "refusals": dict(sorted(refusal_counts.items())),
            "reads": reads,
            "stale_reads": stale_reads,
            "dirty_reads": dirty_reads,
            "read_refusals": read_refusals,
            "acked_lost": acked_lost,
            "failovers": len(failovers),
            "promotion_votes": failovers[0].votes if failovers else 0,
            "promotions_vetoed": group.promotions_vetoed,
            "epoch": group.epoch,
            "epoch_after_partition": epoch_after_partition,
            "single_highest_epoch_primary": single_highest_epoch_primary,
            "fenced_probe": fenced_probe,
            "fenced_calls": group.fenced_calls,
            "acked_writes": group.acked_writes,
            "quorum_failures": group.quorum_failures,
            "ops_discarded": group.ops_discarded,
            "reconciliations": len(reconciliations),
            "stale_primaries_remaining": len(group.stale_primaries),
            "stale_invalidations_rejected": cluster.space(
                reader
            ).stale_invalidations_rejected,
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
        }

    figures["simulated_seconds"] = cluster.clock.now - started
    figures["messages"] = cluster.metrics.total_messages - messages_before
    figures["bytes_on_wire"] = cluster.metrics.total_bytes - bytes_before
    return figures
