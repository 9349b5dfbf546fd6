"""Tests for the unified service façade (repro.api).

How a direct, a batched and a pipelined service answer plain calls,
application errors and the network's faults is a row each of
``tests/matrix.py``'s fault table (``test_pipelining.py::TestDriverParity``).
"""

from __future__ import annotations

import pytest

from repro.api import ServicePolicy, Session
from repro.api.errors import PolicyError
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import RetryPolicy
from repro.transports.base import parse_frame
from repro.workloads.bulk_orders import OrderIntake


@pytest.fixture
def cluster():
    return Cluster(("client", "server", "spare"))


# ---------------------------------------------------------------------------
# ServicePolicy
# ---------------------------------------------------------------------------

class TestServicePolicy:
    def test_defaults_are_neutral(self):
        policy = ServicePolicy()
        assert not policy.batched
        assert not policy.pipelined
        assert not policy.replicated
        assert policy.backup_count == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_window": 0},
            {"pipeline_depth": 0},
            {"replication_factor": 0},
            {"sync": "lazy"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PolicyError):
            ServicePolicy(**kwargs)

    def test_builder_returns_modified_copies(self):
        base = ServicePolicy(transport="rmi")
        tuned = base.with_batching(32).with_pipelining(8).with_replication(3, quorum=1)
        assert (base.batch_window, base.pipeline_depth, base.replication_factor) == (1, 1, 1)
        assert tuned.batch_window == 32
        assert tuned.pipeline_depth == 8
        assert tuned.replication_factor == 3
        assert tuned.backup_count == 2
        assert tuned.transport == "rmi"

    def test_with_retry_forms(self):
        assert ServicePolicy().with_retry(max_attempts=5).retry.max_attempts == 5
        custom = RetryPolicy(max_attempts=2, initial_backoff=0.01)
        assert ServicePolicy().with_retry(custom).retry is custom
        with pytest.raises(PolicyError):
            ServicePolicy().with_retry(custom, max_attempts=2)
        with pytest.raises(PolicyError):
            ServicePolicy().with_retry(max_attempts=0)  # not silently 3

    def test_shared_scheduler_key_ignores_replication_knobs(self):
        a = ServicePolicy(batch_window=8, pipeline_depth=4)
        b = a.with_replication(2, quorum=1)
        assert a.scheduler_key() == b.scheduler_key()


# ---------------------------------------------------------------------------
# plain (direct) services
# ---------------------------------------------------------------------------

class TestDirectService:
    def test_future_form_resolves_immediately(self, cluster):
        with Session(cluster, node="client") as session:
            svc = session.service("orders", impl=OrderIntake(), node="server")
            future = svc.future.submit("sku-1", 2, 10)
            assert future.done and future.ok
            assert future.result() == 0

    def test_lookup_mode_attaches_to_an_existing_name(self, cluster):
        intake = OrderIntake()
        reference = cluster.space("server").export(intake)
        cluster.naming.rebind("orders", reference)
        with Session(cluster, node="client") as session:
            svc = session.service("orders")
            assert svc.submit("sku-1", 1, 10) == 0
        assert intake.accepted_count() == 1

    def test_duplicate_service_name_rejected(self, cluster):
        with Session(cluster, node="client") as session:
            session.service("orders", impl=OrderIntake(), node="server")
            with pytest.raises(PolicyError):
                session.service("orders", impl=OrderIntake(), node="server")

    def test_deploy_cannot_steal_a_name_another_session_bound(self, cluster):
        """A second deploy of a taken name must fail loudly, not rewire the
        first session's live service onto the new implementation."""
        first_impl = OrderIntake()
        session_a = Session(cluster, node="client")
        svc_a = session_a.service("orders", impl=first_impl, node="server")
        with Session(cluster, node="client") as session_b:
            with pytest.raises(PolicyError, match="already bound"):
                session_b.service("orders", impl=OrderIntake(), node="spare")
            # Attaching (no impl) remains the supported cross-session path.
            attached = session_b.service("orders")
            assert attached.submit("sku-1", 1, 10) == 0
        assert svc_a.accepted_count() == 1  # still the original implementation
        assert first_impl.accepted_count() == 1
        session_a.close()

    def test_closed_session_rejects_new_services(self, cluster):
        session = Session(cluster, node="client")
        session.close()
        with pytest.raises(PolicyError):
            session.service("orders", impl=OrderIntake(), node="server")

    @pytest.mark.parametrize(
        "policy",
        [
            ServicePolicy(),
            ServicePolicy(batch_window=8),
            ServicePolicy(batch_window=8, pipeline_depth=2),
        ],
        ids=["direct", "batched", "pipelined"],
    )
    def test_dispatch_through_a_closed_session_fails_fast(self, cluster, policy):
        """A service outliving its session must not dispatch with the
        failover machinery torn down — it fails fast instead."""
        session = Session(cluster, node="client")
        svc = session.service("orders", policy, impl=OrderIntake(), node="server")
        session.close()
        with pytest.raises(PolicyError, match="closed"):
            svc.submit("sku-1", 1, 10)
        with pytest.raises(PolicyError, match="closed"):
            svc.future.submit("sku-1", 1, 10)


# ---------------------------------------------------------------------------
# batched services
# ---------------------------------------------------------------------------

class TestBatchedService:
    def test_one_message_carries_the_window(self, cluster):
        with Session(cluster, node="client") as session:
            svc = session.service(
                "orders",
                ServicePolicy(transport="rmi", batch_window=16),
                impl=OrderIntake(),
                node="server",
            )
            before = cluster.metrics.total_messages
            futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(16)]
            # The window filled: exactly one request + one response message.
            assert cluster.metrics.total_messages - before == 2
            assert [f.result() for f in futures] == list(range(16))

    def test_plain_call_on_batched_service_flushes(self, cluster):
        with Session(cluster, node="client") as session:
            svc = session.service(
                "orders",
                ServicePolicy(batch_window=8),
                impl=OrderIntake(),
                node="server",
            )
            pending = svc.future.submit("sku-1", 1, 10)
            assert svc.submit("sku-2", 1, 10) == 1  # plain call drives the flush
            assert pending.done and pending.result() == 0

    def test_session_flush_covers_all_services(self, cluster):
        with Session(cluster, node="client") as session:
            policy = ServicePolicy(batch_window=8)
            a = session.service("a", policy, impl=OrderIntake(), node="server")
            b = session.service("b", policy, impl=OrderIntake(), node="spare")
            fa = a.future.submit("sku-1", 1, 10)
            fb = b.future.submit("sku-2", 1, 10)
            session.flush()
            assert fa.result() == 0 and fb.result() == 0


# ---------------------------------------------------------------------------
# pipelined services
# ---------------------------------------------------------------------------

class TestPipelinedService:
    def test_services_share_one_scheduler_and_overlap(self, cluster):
        with Session(cluster, node="client") as session:
            policy = ServicePolicy(transport="rmi", batch_window=8, pipeline_depth=4)
            a = session.service("a", policy, impl=OrderIntake(), node="server")
            b = session.service("b", policy, impl=OrderIntake(), node="spare")
            assert a.scheduler is b.scheduler
            futures = [
                (a if i % 2 == 0 else b).future.submit(f"sku-{i}", 1, 10)
                for i in range(64)
            ]
            session.drain()
            assert all(f.ok for f in futures)
            assert a.scheduler.max_in_flight > 1

    def test_different_policies_get_different_schedulers(self, cluster):
        with Session(cluster, node="client") as session:
            a = session.service(
                "a", ServicePolicy(batch_window=8, pipeline_depth=4),
                impl=OrderIntake(), node="server",
            )
            b = session.service(
                "b", ServicePolicy(batch_window=4, pipeline_depth=2),
                impl=OrderIntake(), node="spare",
            )
            assert a.scheduler is not b.scheduler

    def test_result_drives_the_pipeline(self, cluster):
        with Session(cluster, node="client") as session:
            svc = session.service(
                "orders",
                ServicePolicy(batch_window=8, pipeline_depth=2),
                impl=OrderIntake(),
                node="server",
            )
            future = svc.future.submit("sku-1", 1, 10)
            assert future.result() == 0  # flushes + pumps events internally


# ---------------------------------------------------------------------------
# replicated services
# ---------------------------------------------------------------------------

class TestReplicatedService:
    def test_session_stands_up_detector_and_manager(self, cluster):
        with Session(cluster, node="client") as session:
            assert session.replica_manager is None
            svc = session.service(
                "orders",
                ServicePolicy(batch_window=4, pipeline_depth=2).with_replication(2, quorum=1),
                impl=OrderIntake(),
                node="server",
            )
            assert session.replica_manager is not None
            assert session.detector is not None
            assert svc.group is not None
            assert set(session.detector.watched_nodes()) == {"server", "spare"}
            assert (session.detector.interval, session.detector.miss_threshold) == (0.002, 2)

    def test_kill_primary_loses_nothing(self, cluster):
        with Session(cluster, node="client") as session:
            policy = (
                ServicePolicy(transport="rmi", batch_window=4, pipeline_depth=2)
                .with_replication(2, quorum=1, readonly=("accepted_count",))
            )
            svc = session.service(
                "orders", policy, impl=OrderIntake(), node="server",
                backup_nodes=["spare"],
            )
            futures = []
            for i in range(32):
                if i == 16:
                    cluster.network.failures.crash_node("server")
                futures.append(svc.future.submit(f"sku-{i}", 1, 10))
            session.drain()
            assert all(f.ok for f in futures)
            assert len(session.replica_manager.failovers) == 1
            # New submissions address the promoted replica directly.
            assert svc.reference.node_id == "spare"

    def test_each_group_replicates_over_its_own_transport(self):
        """Two replicated services of one session, on rmi and on soap, share
        the backup node ``b``: each group's frames to it speak its service's
        transport, whichever service replicated first."""
        cluster = Cluster(("client", "a", "b", "c"))
        sent = []
        send_request = cluster.network.send_request

        def recording(source, destination, payload, **kwargs):
            sent.append((source, destination, parse_frame(payload)[0]))
            return send_request(source, destination, payload, **kwargs)

        cluster.network.send_request = recording
        with Session(cluster, node="client") as session:
            placed = {"one": ("rmi", "a"), "two": ("soap", "c")}
            services = {
                name: session.service(
                    name,
                    ServicePolicy(transport=transport).with_replication(2, quorum=1),
                    impl=OrderIntake(), node=primary, backup_nodes=["b"],
                )
                for name, (transport, primary) in placed.items()
            }
            for name, (transport, primary) in placed.items():
                del sent[:]
                services[name].submit("sku", 1, 10)
                assert sent == [("client", primary, transport), (primary, "b", transport)]

    def test_backup_count_mismatch_rejected(self, cluster):
        with Session(cluster, node="client") as session:
            with pytest.raises(PolicyError):
                session.service(
                    "orders",
                    ServicePolicy().with_replication(3, quorum=1),
                    impl=OrderIntake(),
                    node="server",
                    backup_nodes=["spare"],  # policy wants 2
                )

    def test_auto_backup_placement_needs_enough_nodes(self):
        small = Cluster(("client", "server"))
        with Session(small, node="client") as session:
            with pytest.raises(PolicyError):
                session.service(
                    "orders",
                    ServicePolicy().with_replication(2, quorum=1),
                    impl=OrderIntake(),
                    node="server",
                )

    def test_auto_backup_placement_is_a_ring(self):
        """Backups of services on successive nodes must spread, not pile up."""
        cluster = Cluster(("client", "s1", "s2", "s3"))
        with Session(cluster, node="client") as session:
            policy = ServicePolicy().with_replication(2, quorum=1)
            services = [
                session.service(f"svc-{node}", policy, impl=OrderIntake(), node=node)
                for node in ("s1", "s2", "s3")
            ]
            placements = {
                svc.group.primary_node: list(svc.group.backups) for svc in services
            }
            assert placements == {"s1": ["s2"], "s2": ["s3"], "s3": ["s1"]}

    def test_lookup_mode_rejects_replicated_policy(self, cluster):
        intake = OrderIntake()
        cluster.naming.rebind("orders", cluster.space("server").export(intake))
        with Session(cluster, node="client") as session:
            with pytest.raises(PolicyError, match="replication_factor"):
                session.service("orders", ServicePolicy().with_replication(2, quorum=1))
