"""Cache coherence across failover: the kill-between-write-and-invalidation case.

The sharpest coherence scenario the caching subsystem must survive: a write
executes on the primary (and is eagerly forwarded to the backup), but the
primary dies *before* its invalidation broadcast reaches the readers — the
one window in which a reader's cache still holds the pre-write value of a
committed write.  After promotion, readers must never observe that stale
value: the promoted export re-keys every lookup, the replica manager flushes
leases held against the demoted primary with an explicit invalidation from
the promoted node, and fills whose subscription cannot be placed are never
stored.
"""

from __future__ import annotations

import matrix
import pytest
from replication_invariants import check_replication_invariants

from repro.api import CachePolicy, ServicePolicy, Session, cacheable
from repro.runtime.cluster import Cluster
from repro.workloads.cached_catalog import run_cached_catalog_scenario


class Catalog:
    """A key/value service with a cacheable read and a plain write."""

    def __init__(self):
        self.items = {}

    @cacheable
    def get_item(self, key):
        return self.items.get(key)

    def put_item(self, key, value):
        self.items[key] = value
        return len(self.items)


def _holds_item(impl, item):
    """Whether a catalog copy holds ``item``, a ``(key, value)`` pair."""
    key, value = item
    return impl.items.get(key) == value


class _CrashAfter:
    """Dispatch hook that crashes a node right after one member executes.

    Installed on the primary's address space: ``after_dispatch`` runs inside
    the dispatcher, *after* the member (and its eager replication forward)
    executed but *before* the space's invalidation broadcast — exactly the
    "kill between a write and its invalidation" instant.
    """

    def __init__(self, cluster, node_id, member):
        self.cluster = cluster
        self.node_id = node_id
        self.member = member
        self.armed = False
        self.fired = False

    def before_dispatch(self, space):
        pass

    def after_dispatch(self, space):
        if self.armed and not self.fired:
            self.fired = True
            self.cluster.network.failures.crash_node(self.node_id)


@pytest.fixture
def cluster():
    return Cluster(("reader", "writer", "primary", "backup"))


class TestKillBetweenWriteAndInvalidation:
    def test_reader_never_observes_the_stale_value_after_promotion(self, cluster):
        reader = Session(cluster, node="reader")
        writer = Session(cluster, node="writer")
        policy = (
            ServicePolicy(transport="rmi")
            .with_caching(CachePolicy(lease_ms=10_000))  # far beyond the test
            .with_replication(2, quorum=1, readonly=("get_item",))
        )
        svc = reader.service(
            "catalog", policy, impl=Catalog(), node="primary", backup_nodes=["backup"]
        )
        wsvc = writer.service("catalog", ServicePolicy(transport="rmi"))

        wsvc.put_item("a", "v1")
        assert svc.get_item("a") == "v1"  # cached under a very long lease
        old_object_id = svc.reference.object_id

        # The write commits (primary + eager forward to the backup), but the
        # primary dies before broadcasting the invalidation.
        crash = _CrashAfter(cluster, "primary", "put_item")
        cluster.space("primary").add_dispatch_hook(crash)
        crash.armed = True
        assert wsvc.put_item("a", "v2") == 1  # acknowledged: v2 is committed
        assert crash.fired
        # The invalidation was lost: the reader's space never saw one.
        assert cluster.space("reader").coherence.invalidations_received == 0

        # The reader's next read rides detection + promotion (its session
        # owns the detector/manager) and must see the committed value.
        group = svc.group
        backup_impl = group.backups["backup"].impl
        assert backup_impl.items["a"] == "v2"  # the eager forward landed
        observed = svc.get_item("a")
        assert observed == "v2", f"stale read after promotion: {observed!r}"
        assert len(reader.replica_manager.failovers) == 1
        # The promoted export re-keys lookups: nothing is served under the
        # demoted primary's object id any more.
        assert svc.reference.object_id != old_object_id

        # Coherence keeps holding against the promoted primary.
        wsvc.put_item("a", "v3")
        assert svc.get_item("a") == "v3"
        check_replication_invariants(
            reader.replica_manager, group, acked=[("a", "v3")], holds=_holds_item
        )
        reader.close()
        writer.close()

    def test_failover_flushes_leases_held_against_the_demoted_primary(self, cluster):
        """The promoted node sends the demoted primary's subscribers an
        explicit invalidation for the old reference."""
        reader = Session(cluster, node="reader")
        writer = Session(cluster, node="writer")
        policy = (
            ServicePolicy(transport="rmi")
            # The lease outlasts the failover: only the flush empties the cache.
            .with_caching(CachePolicy(lease_ms=60_000))
            .with_replication(2, quorum=1, readonly=("get_item",))
        )
        svc = reader.service(
            "catalog", policy, impl=Catalog(), node="primary", backup_nodes=["backup"]
        )
        wsvc = writer.service("catalog", ServicePolicy(transport="rmi"))
        wsvc.put_item("a", "v1")
        assert svc.get_item("a") == "v1"
        assert sum(map(len, cluster.space("primary").coherence.subscribers.values())) == 1

        cluster.network.failures.crash_node("primary")
        # Pump until the detector promotes the backup.
        events = cluster.network.events
        manager = reader.replica_manager
        for _ in range(10_000):
            if manager.failovers:
                break
            assert events.run_next(), "event queue went idle before the failover"
        assert manager.failovers
        # The failover handed the dead primary's subscriber table over and
        # invalidated from the promoted node: the reader's cache is empty.
        assert cluster.space("reader").coherence.invalidations_received >= 1
        assert svc.cache.entries_invalidated >= 1
        assert cluster.space("backup").invalidations_sent >= 1
        assert len(svc.cache) == 0
        assert svc.get_item("a") == "v1"  # a fresh fill from the promotion
        check_replication_invariants(manager, svc.group, acked=[("a", "v1")], holds=_holds_item)
        reader.close()
        writer.close()

    def test_workload_kill_run_stays_coherent_on_every_transport(self):
        """The bench's kill scenario: zero stale reads across the promotion."""
        for transport in matrix.TRANSPORTS:
            outcome = run_cached_catalog_scenario(
                Cluster(("client", "writer", "server-0", "server-1")),
                transport=transport,
                rounds=6,
                cached=True,
                replicate=True,
                kill=True,
            )
            assert outcome["stale_reads"] == 0, transport
            assert outcome["failovers"] >= 1, transport
            assert outcome["hit_rate"] > 0.5, transport
