"""Cached catalog workload: read-heavy traffic with a writer that invalidates.

The canonical middleware hot path is a read-mostly service: many clients
browse a catalog whose entries change occasionally.  This workload drives
that shape through the :mod:`repro.api` façade with client-side result
caching (:class:`~repro.runtime.caching.CachePolicy`) and checks the
coherence contract the caching subsystem makes: **no read ever observes a
stale value after a write commits** — the owning address space broadcasts
``!inv`` frames to subscribed caches before each write batch is
acknowledged.

The catalog is sharded into several :class:`CatalogShard` objects so
invalidation granularity (per object) matches reality: a *reader* session
caches reads, a separate *writer* session streams batched updates into one
"feed" shard, and reads skew heavily towards hot keys on shards the writer
never touches — so the cache absorbs the hot traffic while the feed shard
exercises the invalidate-and-refill cycle every round.

With ``replicate=True`` every shard keeps a backup on the other server node
and ``kill`` crashes one server mid-run: reads ride the failover (the reader
session's detector promotes the backups), leases held against the demoted
primaries are flushed, and the staleness assertion keeps holding across the
promotion — the coherence property ``benchmarks/bench_caching.py`` enforces
on all four transports.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence

from repro.api import CachePolicy, ServicePolicy, Session, cacheable

#: Distinguishes concurrent scenario runs sharing one cluster's naming.
_RUN_SEQ = itertools.count()


class CatalogShard:
    """One shard of the catalog: a plain key/value store with versioning."""

    def __init__(self):
        self.items = {}
        self.version = 0

    @cacheable
    def get_item(self, key):
        """Look one entry up (side-effect-free: safe to cache client-side)."""
        return self.items.get(key)

    @cacheable
    def item_count(self):
        """How many entries this shard holds (side-effect-free)."""
        return len(self.items)

    def put_item(self, key, value):
        """Insert or update one entry; returns the shard's write version."""
        self.items[key] = value
        self.version = self.version + 1
        return self.version


#: Members that never mutate state: not replicated to backups, and the
#: cacheability markers above let the owning space skip invalidation for them.
CATALOG_READONLY = ("get_item", "item_count")


def run_cached_catalog_scenario(
    cluster,
    *,
    transport: str = "rmi",
    rounds: int = 15,
    shards: int = 4,
    hot_keys: int = 8,
    writes_per_round: int = 4,
    hot_reads_per_round: int = 32,
    cached: bool = True,
    mode: str = "leases",
    lease_ms: float = 250.0,
    max_entries: int = 256,
    reader: str = "client",
    writer: str = "writer",
    servers: Sequence[str] = ("server-0", "server-1"),
    replicate: bool = False,
    kill: bool = False,
    tracing: Optional[float] = None,
) -> dict:
    """Drive the cached catalog and verify coherence; returns the figures.

    Each *round* is 10 % writes, 90 % reads (the benchmark's fixed ratio):
    the writer enqueues ``writes_per_round`` updates to the feed shard and
    flushes them as one batch (whose acknowledgement carries the
    invalidation round), the reader then re-reads every written key — each
    **must** come back with the just-committed value — followed by
    ``hot_reads_per_round`` reads of hot keys on the untouched shards.
    Every read is asserted against a client-side mirror of the committed
    state; mismatches are counted in ``stale_reads`` (the benchmark gate
    requires zero).

    With ``kill=True`` (requires ``replicate=True``) the server node hosting
    the feed shard's primary is crashed halfway: recovery reads ride the
    failover, and the assertion keeps holding against the promoted backups.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if shards < 2:
        raise ValueError("the catalog needs at least two shards (one is the feed)")
    if kill and not replicate:
        raise ValueError("kill=True needs replicate=True (otherwise reads are lost)")
    if len(servers) < 2:
        raise ValueError("the workload needs at least two server nodes")

    run_id = next(_RUN_SEQ)
    names = [f"cached-catalog-{run_id}-{index}" for index in range(shards)]
    feed_index = shards - 1
    hot_shards = shards - 1

    def primary_of(index: int) -> str:
        return servers[index % len(servers)]

    reader_policy = ServicePolicy(
        transport=transport,
        batch_window=max(writes_per_round, 2),
    )
    if cached:
        reader_policy = reader_policy.with_caching(
            CachePolicy(max_entries=max_entries, lease_ms=lease_ms, mode=mode)
        )
    if tracing is not None:
        reader_policy = reader_policy.with_tracing(tracing)
    if replicate:
        reader_policy = reader_policy.with_replication(
            2, quorum=1, readonly=CATALOG_READONLY
        )
    writer_policy = ServicePolicy(
        transport=transport, batch_window=max(writes_per_round, 2)
    )

    committed: Dict[str, object] = {}
    stale_reads = 0
    reads = 0
    writes = 0

    started = cluster.clock.now
    messages_before = cluster.metrics.total_messages
    bytes_before = cluster.metrics.total_bytes

    with Session(cluster, node=reader) as reader_session, Session(
        cluster, node=writer
    ) as writer_session:
        trace_collector = (
            reader_session.tracer().collector if tracing is not None else None
        )
        reader_services = []
        for index, name in enumerate(names):
            kwargs = {"impl": CatalogShard(), "node": primary_of(index)}
            if replicate:
                kwargs["backup_nodes"] = [
                    servers[(index + 1) % len(servers)]
                ]
            reader_services.append(
                reader_session.service(name, reader_policy, **kwargs)
            )
        writer_feed = writer_session.service(names[feed_index], writer_policy)

        def assert_read(service, key) -> None:
            nonlocal reads, stale_reads
            observed = service.get_item(key)
            reads += 1
            if observed != committed.get(key):
                stale_reads += 1

        kill_round = rounds // 2 if kill else None
        killed_node: Optional[str] = None
        killed_at: Optional[float] = None
        warm_seq = itertools.count()

        for round_index in range(rounds):
            if kill_round is not None and round_index == kill_round:
                killed_node = primary_of(feed_index)
                cluster.network.failures.crash_node(killed_node)
                killed_at = cluster.clock.now
                # Recovery reads: one never-cached key per shard whose
                # primary died forces network contact, so the reader's
                # invoker rides out detection + promotion before the writer
                # touches the promoted primary.
                for index, service in enumerate(reader_services):
                    if primary_of(index) == killed_node:
                        assert_read(service, f"warm-miss-{next(warm_seq)}")

            # 1 part writes: a batched update window into the feed shard.
            written = []
            for write_index in range(writes_per_round):
                key = f"feed-{(round_index * writes_per_round + write_index) % (4 * writes_per_round)}"
                value = f"v{round_index}.{write_index}"
                written.append((key, value, writer_feed.future.put_item(key, value)))
            writer_feed.flush()
            for key, value, future in written:
                future.result()  # committed (and the invalidation delivered)
                committed[key] = value
                writes += 1

            # Refill reads: every written key must come back fresh, as one
            # batched window of misses.
            futures = [
                (key, reader_services[feed_index].future.get_item(key))
                for key, _, _ in written
            ]
            reader_services[feed_index].flush()
            for key, future in futures:
                reads += 1
                if future.result() != committed.get(key):
                    stale_reads += 1

            # 8 parts hot reads: keys on shards the writer never touches.
            for read_index in range(hot_reads_per_round):
                slot = (round_index + read_index) % hot_keys
                service = reader_services[slot % hot_shards]
                key = f"hot-{slot}"
                if round_index == 0 and read_index < hot_keys:
                    committed.setdefault(key, None)
                assert_read(service, key)

        manager = reader_session.replica_manager
        failovers = len(manager.failovers) if manager is not None else 0
        caches = [service.cache for service in reader_services if service.cache]
        hits = sum(cache.hits for cache in caches)
        misses = sum(cache.misses for cache in caches)
        cache_manager = reader_session.cache_manager
        invalidations_applied = (
            cache_manager.invalidations_received if cache_manager is not None else 0
        )
        subscriptions_sent = (
            cache_manager.subscriptions_sent if cache_manager is not None else 0
        )

    elapsed = cluster.clock.now - started
    operations = reads + writes
    server_spaces = [cluster.space(node) for node in servers]
    return {
        "transport": transport,
        "cached": cached,
        "mode": mode if cached else None,
        "replicated": replicate,
        "killed_node": killed_node,
        "failover_delay_seconds": (
            manager.failovers[0].simulated_time - killed_at
            if killed_at is not None and failovers
            else 0.0
        ),
        "operations": operations,
        "reads": reads,
        "writes": writes,
        "read_ratio": reads / operations if operations else 0.0,
        "stale_reads": stale_reads,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / (hits + misses) if (hits + misses) else 0.0,
        "invalidations_applied": invalidations_applied,
        "subscriptions_sent": subscriptions_sent,
        "invalidations_sent": sum(
            space.invalidations_sent for space in server_spaces
        ),
        "invalidations_piggybacked": sum(
            space.invalidations_piggybacked for space in server_spaces
        ),
        "failovers": failovers,
        "simulated_seconds": elapsed,
        "per_call_seconds": elapsed / operations if operations else 0.0,
        "messages": cluster.metrics.total_messages - messages_before,
        "bytes_on_wire": cluster.metrics.total_bytes - bytes_before,
        "trace_collector": trace_collector,
    }
