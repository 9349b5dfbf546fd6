"""One call path from a handle to the wire.

A transformed object's call leaves its address space in exactly one place,
``Proxy._call``.  A static proxy calls it with its own space and transport, a
rebindable handle's metaobject calls it with the caller's space (and, until
the recorded ``set_transport`` exception is flipped, the policy's transport)
and the handle's one slot, ``remote_invoker`` — where ``guard_handle`` puts
its retrying invoker and a session the service that *adopted* the handle.

``TestCallPathParity`` drives one script through every way of reaching
``sample_app.Y`` on ``server`` and compares values, routes and bytes; the rest
pins the guard's and the adopted handle's lifecycle, the Figure 1 acceptance
scenario (the paper's unedited ``A``/``B``/``C`` replicated, cached and traced
across a primary crash) and what the deleted generated batch proxies promised,
on the engine that now keeps those promises.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import pytest
import sample_app

import repro.core
from repro.api import ServicePolicy, Session
from repro.api.errors import PolicyError, RedistributionError
from repro.core.transformer import ApplicationTransformer
from repro.network.failures import FailureModel
from repro.network.simnet import SimulatedNetwork
from repro.policy.policy import all_local_policy, remote
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import RetryPolicy, guard_handle
from repro.runtime.pipelining import InvocationFuture
from repro.runtime.redistribution import DistributionController
from repro.transports.base import parse_frame
from repro.workloads.figure1 import A, B, C, run_figure1_plain

SAMPLE = [sample_app.X, sample_app.Y, sample_app.Z]
NODES = ("client", "server", "backup")


def _deployed(classes=SAMPLE, policy=None, nodes=NODES, failures=None):
    """A transformed application deployed on a fresh cluster (so that object
    ids, which reach the wire, are the same from one row to the next)."""
    app = ApplicationTransformer(policy or all_local_policy(dynamic=True)).transform(classes)
    network = SimulatedNetwork(failures=failures) if failures is not None else None
    cluster = Cluster(nodes, network=network)
    app.deploy(cluster, default_node="client")
    return app, cluster


def _record_frames(cluster):
    """Every exchange on the network from now on, inline or posted:
    ``(transport, source, destination, is_batch, request, response)``."""
    frames = []
    exchange = cluster.network._exchange

    def recording(source, destination, payload, trace=None):
        response = yield from exchange(source, destination, payload, trace)
        transport, _, is_batch = parse_frame(payload)
        frames.append((transport, source, destination, is_batch, payload, response))
        return response

    cluster.network._exchange = recording
    return frames


def _drop_next(cluster, count=1):
    """Lose the next ``count`` messages, whichever link they travel."""
    remaining = {"count": count}

    def should_drop(source, destination):
        remaining["count"] -= 1
        return remaining["count"] >= 0

    cluster.network.failures.should_drop = should_drop


# ---------------------------------------------------------------------------
# The parity table
# ---------------------------------------------------------------------------

def _static_proxy():
    policy = all_local_policy()
    policy.set_class("Y", instances=remote("server"))
    app, cluster = _deployed(policy=policy)
    proxy = app.new("Y", 5)
    assert type(proxy).__name__ == "Y_O_Proxy_RMI"
    return cluster, lambda member, *args: getattr(proxy, member)(*args)


def _remote_handle():
    app, cluster = _deployed()
    handle = app.new("Y", 5)
    DistributionController(app, cluster).make_remote(handle, "server")
    return cluster, lambda member, *args: getattr(handle, member)(*args), handle


def _bare_handle():
    return _remote_handle()[:2]


def _local_handle_called_from_another_node():
    app, cluster = _deployed()
    with app.executing_on("server"):
        handle = app.new("Y", 5)
    assert (handle.meta.kind, handle.meta.node_id) == ("local", "server")

    def call(member, *args):
        with app.executing_on("client"):
            return getattr(handle, member)(*args)

    return cluster, call


def _guarded_handle():
    cluster, call, handle = _remote_handle()
    guard_handle(handle, policy=RetryPolicy(max_attempts=3))
    return cluster, call


def _adopted(policy):
    def build():
        app, cluster = _deployed()
        handle = app.new("Y", 5)
        Session(cluster, node="client").service("y", policy, impl=handle, node="server")
        return cluster, lambda member, *args: getattr(handle, member)(*args)

    return build


def _adopted_batched_futures():
    app, cluster = _deployed()
    handle = app.new("Y", 5)
    service = Session(cluster, node="client").service(
        "y", ServicePolicy().with_batching(4), impl=handle, node="server"
    )
    pending = []

    def call(member, *args):
        pending.append(service.future(member, *args))
        return pending[-1]

    return cluster, call, service


#: The script every row runs, and what the original class answers (the field
#: read is the original's ``y.base``).
SCRIPT = (("n", 1), ("get_base",), ("n", 2))
ORIGINAL = [sample_app.Y(5).n(1), sample_app.Y(5).base, sample_app.Y(5).n(2)]

ROWS = {
    "static proxy": _static_proxy,
    "handle made remote": _bare_handle,
    "local handle, caller on another node": _local_handle_called_from_another_node,
    "guarded handle": _guarded_handle,
    "adopted, default policy": _adopted(ServicePolicy()),
    "adopted, with_retry": _adopted(ServicePolicy().with_retry(max_attempts=3)),
}


def _run(build):
    cluster, call = build()
    frames = _record_frames(cluster)
    values = [call(member, *args) for member, *args in SCRIPT]
    return values, frames


class TestCallPathParity:
    """One row per way to reach ``sample_app.Y`` on ``server``."""

    @pytest.mark.parametrize("row", ROWS)
    def test_values_and_routes(self, row):
        values, frames = _run(ROWS[row])
        assert values == ORIGINAL
        # One single-call frame per call, from the caller's node to the object's.
        assert [frame[:4] for frame in frames] == [("rmi", "client", "server", False)] * 3

    @pytest.mark.parametrize("row", ["guarded handle", "adopted, default policy"])
    def test_bytes_equal_the_bare_handles(self, row):
        _, bare = _run(_bare_handle)
        _, frames = _run(ROWS[row])
        assert [frame[4:] for frame in frames] == [frame[4:] for frame in bare]

    def test_adopted_with_batching_through_the_future_view(self):
        cluster, call, service = _adopted_batched_futures()
        frames = _record_frames(cluster)
        pending = [call(member, *args) for member, *args in SCRIPT]
        assert frames == [] and service.pending == 3
        service.flush()
        assert [future.result() for future in pending] == ORIGINAL
        assert [frame[:4] for frame in frames] == [("rmi", "client", "server", True)]

    def test_proxy_generated_per_transport(self):
        """A static proxy ships the transport it was generated for (a handle,
        until the recorded exception is flipped, its policy's)."""
        for transport in ("soap", "rmi", "corba"):
            policy = all_local_policy()
            policy.set_class("Y", instances=remote("server", transport=transport))
            app, cluster = _deployed(policy=policy)
            proxy = app.new("Y", 5)
            generated = app.artifacts("Y").proxy_for(transport)
            assert type(proxy) is generated
            assert (generated._repro_role, generated._repro_transport) == ("proxy", transport)
            frames = _record_frames(cluster)
            assert proxy.n(1) == 6
            assert [frame[:3] for frame in frames] == [(transport, "client", "server")]

    def test_class_proxy_ships_static_calls(self):
        policy = all_local_policy()
        policy.set_class("Y", statics=remote("server"))
        app, cluster = _deployed(policy=policy)
        statics = app.statics("Y")
        assert type(statics).__name__ == "Y_C_Proxy_RMI"
        frames = _record_frames(cluster)
        assert statics.get_K() == sample_app.Y.K
        assert [frame[:4] for frame in frames] == [("rmi", "client", "server", False)]

    def test_rebinding_a_proxy_redirects_its_calls(self):
        """``_call`` reads the binding at call time — which is what lets a
        metaobject keep the proxy of its remote leg across calls."""
        app, cluster = _deployed()
        server = cluster.space("server")
        first, second = app.new_local("Y", 1), app.new_local("Y", 100)
        proxy = app.proxy_for_ref(server.export(first), cluster.space("client"))
        assert proxy.n(1) == 2
        proxy.bind(server.export(second), cluster.space("backup"))
        frames = _record_frames(cluster)
        assert proxy.n(1) == 101
        assert [frame[1:3] for frame in frames] == [("backup", "server")]

    def test_one_call_site_in_core(self):
        core = Path(repro.core.__file__).parent
        hits = [
            (path.name, number)
            for path in sorted(core.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "invoke_remote(" in line
        ]
        assert [name for name, _ in hits] == ["metaobject.py"]
        source = (core / "metaobject.py").read_text()
        body = source[source.index("    def _call("):]
        assert "invoke_remote(" in body[: body.index("\ndef ")]

    def test_class_and_transport_are_resolved_once_per_binding(self, monkeypatch):
        cluster, call, handle = _remote_handle()
        policy = handle.meta._application.policy
        lookups = []
        instance_decision = policy.instance_decision

        def counting(class_name):
            lookups.append(class_name)
            return instance_decision(class_name)

        monkeypatch.setattr(policy, "instance_decision", counting)
        for value in range(100):
            assert call("n", value) == 5 + value
        assert len(lookups) <= 1
        DistributionController(handle.meta._application, cluster).move(handle, "backup")
        lookups.clear()
        assert call("n", 1) == 6 and call("n", 2) == 7
        assert lookups == ["Y"]  # the rebind dropped the leg: resolved again, once


# ---------------------------------------------------------------------------
# The one retry slot
# ---------------------------------------------------------------------------

class TestGuardIsTheHandles:
    """``guard_handle`` fills the handle's slot and leaves its binding alone."""

    def _guarded(self):
        app, cluster = _deployed(failures=FailureModel())
        handle = app.new("Y", 5)
        controller = DistributionController(app, cluster)
        controller.make_remote(handle, "server")
        log = guard_handle(handle, policy=RetryPolicy(max_attempts=3))
        return handle, controller, cluster, log

    def test_guard_survives_move_and_set_transport(self):
        handle, controller, cluster, log = self._guarded()
        # The guard is the slot, not a stand-in target a rebind would drop.
        assert type(handle.meta.target).__name__ == "Y_O_Proxy_RMI"
        controller.move(handle, "backup")
        controller.set_transport(handle, "soap")
        assert type(handle.meta.target).__name__ == "Y_O_Proxy_SOAP"
        _drop_next(cluster)
        assert handle.n(1) == 6
        assert (log.total_failures, log.recovered_failures) == (1, 1)

    def test_guard_is_idle_while_local_and_applies_again(self):
        handle, controller, cluster, log = self._guarded()
        controller.make_local(handle)
        _drop_next(cluster)
        assert handle.n(1) == 6 and log.total_failures == 0  # no message to lose
        controller.make_remote(handle, "server")
        assert handle.n(2) == 7  # the armed drop hits this call and is retried
        assert log.recovered_failures == 1


# ---------------------------------------------------------------------------
# Adoption: lifecycle
# ---------------------------------------------------------------------------

def _exports(cluster):
    return {node: cluster.space(node).object_count() for node in cluster.node_ids()}


class TestAdoptedLifecycle:
    @pytest.fixture
    def adopted(self):
        app, cluster = _deployed()
        handle = app.new("Y", 5)
        session = Session(cluster, node="client")
        service = session.service("y", ServicePolicy(), impl=handle, node="server")
        return app, cluster, handle, session, service

    def test_service_and_handle_are_two_faces_of_one_object(self, adopted):
        _, cluster, handle, _, service = adopted
        assert (handle.meta.kind, handle.meta.node_id) == ("remote", "server")
        handle.set_base(7)
        assert service.n(1) == 8 and handle.n(1) == 8
        assert cluster.space("server").object_count() == 1

    def test_every_boundary_change_is_refused(self, adopted):
        app, cluster, handle, _, service = adopted
        controller = DistributionController(app, cluster)
        changes = (
            lambda: controller.make_remote(handle, "backup"),
            lambda: controller.make_local(handle),
            lambda: controller.move(handle, "backup"),
            lambda: controller.set_transport(handle, "soap"),
            lambda: controller.move_graph(handle, "backup"),
        )
        for change in changes:
            with pytest.raises(RedistributionError, match="adopted by service 'y'"):
                change()
        assert controller.boundary_of(handle) == ("remote", "server")
        assert controller.changes == []
        assert service.n(1) == 6 and handle.n(1) == 6  # the export is still there

    def test_dismantle_returns_the_handle_local_with_its_state(self, adopted):
        app, cluster, handle, session, _ = adopted
        handle.set_base(11)
        assert (handle.meta.kind, handle.meta.node_id) == ("remote", "server")
        session.dismantle()
        assert (handle.meta.kind, handle.meta.node_id) == ("local", "client")
        assert handle.meta.remote_invoker is None
        messages = cluster.metrics.total_messages
        assert handle.n(1) == 12
        assert cluster.metrics.total_messages == messages
        assert set(_exports(cluster).values()) == {0}
        assert "y" not in cluster.naming
        # ... and it is free to be redistributed again.
        DistributionController(app, cluster).make_remote(handle, "backup")
        assert handle.n(1) == 12

    def test_dismantle_of_a_replica_group_returns_the_live_copy(self):
        app, cluster = _deployed([A, B, C], nodes=("client", "s1", "s2", "s3"))
        shared = app.new("C", "x")
        session = Session(cluster, node="client")
        policy = ServicePolicy().with_replication(3, quorum=2)
        session.service("c", policy, impl=shared, node="s1")
        assert shared.add(3) == 3
        cluster.network.failures.crash_node("s1")
        assert shared.add(4) == 7  # served by the promoted backup
        manager = session.replica_manager
        session.dismantle()
        assert (shared.meta.kind, shared.meta.node_id) == ("local", "client")
        assert shared.get_total() == 7 and shared.get_entries() == 2
        assert manager.groups() == [] and "c" not in cluster.naming
        assert set(_exports(cluster).values()) == {0}

    def test_a_closed_session_fails_the_handles_calls(self, adopted):
        _, _, handle, session, _ = adopted
        session.close()
        with pytest.raises(PolicyError, match="this session is closed"):
            handle.n(1)

    def test_adopting_a_remote_handle_is_refused_cleanly(self):
        app, cluster = _deployed()
        handle = app.new("Y", 5)
        DistributionController(app, cluster).make_remote(handle, "server")
        before = _exports(cluster)
        with Session(cluster, node="client") as session:
            with pytest.raises(PolicyError, match="must be local"):
                session.service("y", impl=handle, node="backup")
            assert session.services() == []
        assert _exports(cluster) == before and "y" not in cluster.naming
        assert handle.n(1) == 6

    def test_adopting_one_name_twice_is_refused_cleanly(self, adopted):
        app, cluster, handle, session, _ = adopted
        other = app.new("Y", 9)
        before = _exports(cluster)
        with pytest.raises(PolicyError, match="already has a service named 'y'"):
            session.service("y", impl=other, node="backup")
        assert _exports(cluster) == before
        assert (other.meta.kind, other.meta.remote_invoker) == ("local", None)
        assert other.n(1) == 10 and handle.n(1) == 6

    def test_adoption_needs_the_application_on_this_cluster(self):
        app, _ = _deployed()
        handle = app.new("Y", 5)
        elsewhere = Cluster(("client", "server"))
        with Session(elsewhere, node="client") as session:
            with pytest.raises(PolicyError, match="deployed on this cluster"):
                session.service("y", impl=handle)
        assert "y" not in elsewhere.naming


# ---------------------------------------------------------------------------
# Adoption: what the policy brings
# ---------------------------------------------------------------------------

class StampedCounter:
    """Writes the wall clock into its state: backups re-executing an
    acknowledged ``add`` would diverge from the primary (DS101)."""

    def __init__(self):
        self.total = 0
        self.stamp = 0.0

    def add(self, amount):
        self.total = self.total + amount
        self.stamp = time.time()
        return self.total


QUORUM = ServicePolicy().with_replication(3, quorum=2)


class TestAdoptedUnderPolicy:
    @pytest.fixture
    def figure1(self):
        return _deployed([A, B, C], nodes=("client", "s1", "s2", "s3"))

    def test_replicating_a_generated_local_seeds_its_backups(self, figure1):
        app, cluster = figure1
        with Session(cluster, node="client") as session:
            service = session.service("c", QUORUM, impl=app.new_local("C", "x"), node="s1")
            assert service.add(3) == 3
            records = service.group.backups.values()
            assert [record.impl.get_total() for record in records] == [3, 3]
            assert {type(record.impl).__name__ for record in records} == {"C_O_Local"}
            assert {record.impl.get_label() for record in records} == {"x"}

    def test_static_checks_lint_the_class_the_user_wrote(self, figure1):
        app, cluster = figure1
        with Session(cluster, node="client") as session:
            checked = QUORUM.with_static_checks()
            handle = app.new("C", "x")
            session.service("handle", checked, impl=handle, node="s1")
            session.service("local", checked, impl=app.new_local("C", "y"), node="s1")
            assert handle.add(2) == 2

    def test_static_checks_refuse_a_nondeterministic_writer(self):
        app, cluster = _deployed([StampedCounter], nodes=("client", "s1", "s2", "s3"))
        counter = app.new("StampedCounter")
        before = _exports(cluster)
        with Session(cluster, node="client") as session:
            with pytest.raises(PolicyError) as refusal:
                session.service("stamped", QUORUM.with_static_checks(), impl=counter, node="s1")
            assert session.replica_manager is None
        assert "DS101" in str(refusal.value) and "StampedCounter" in str(refusal.value)
        assert "test_call_path.py" in str(refusal.value)
        assert _exports(cluster) == before and "stamped" not in cluster.naming
        assert counter.meta.kind == "local" and counter.add(1) == 1

    def test_figure1_replicated_cached_traced_across_a_crash(self, figure1):
        """ROADMAP item 2's acceptance: the paper's "distribution without user
        intervention", extended to the whole stack."""
        app, cluster = figure1
        shared = app.new("C", "shared")
        a, b = app.new("A", shared), app.new("B", shared)
        session = Session(cluster, node="client")
        policy = QUORUM.with_caching(lease_ms=50).with_tracing(1.0)
        service = session.service("shared", policy, impl=shared, node="s1")

        values = range(1, 21)
        for index, value in enumerate(values):
            if index == 10:
                cluster.network.failures.crash_node("s1")
            a.record(value)
            b.record(value)
        outcome = (
            shared.get_total(), shared.average(), shared.describe(),
            a.get_recorded(), b.get_recorded(),
        )
        assert outcome == run_figure1_plain(values).as_tuple() == (630, 15.75, "shared:630", 20, 20)

        group = service.group
        assert (group.primary_node, group.epoch) == ("s2", 1)
        assert group.primary_impl.get_total() == 630
        assert group.backups["s3"].healthy and group.backups["s3"].impl.get_total() == 630

        # The repeated read is one miss and one hit (the first one above filled).
        hits, misses = service.cache.hits, service.cache.misses
        cluster.clock.advance(0.1)  # past the lease: the entry is gone
        assert shared.get_total() == 630 and shared.get_total() == 630
        assert (service.cache.hits - hits, service.cache.misses - misses) == (1, 1)

        # One root span per remote call, named after the service and the member
        # (the cache hit never left the client, so it has none).
        roots = Counter(root.name for root in session.tracer().collector.roots())
        assert roots == {
            "shared.add": 40, "shared.get_total": 2, "shared.average": 1, "shared.describe": 1,
        }
        session.dismantle()
        assert shared.get_total() == 630 and shared.meta.kind == "local"


# ---------------------------------------------------------------------------
# What the generated batch proxies promised, kept by the engine
# ---------------------------------------------------------------------------

class Buffer:
    """Member names that collide with the façade's control plane."""

    def __init__(self):
        self.items = []

    def add(self, value):
        items = self.items
        items.append(value)
        self.items = items
        return len(items)

    def flush(self):
        count = len(self.items)
        self.items = []
        return count


class TestAdoptedBatching:
    @staticmethod
    def _adopt(policy, base=5):
        app, cluster = _deployed()
        handle = app.new("Y", base)
        session = Session(cluster, node="client")
        return handle, session.service("y", policy, impl=handle, node="server"), session, cluster

    def test_methods_buffer_and_return_futures(self):
        handle, service, _, cluster = self._adopt(ServicePolicy().with_batching(4))
        before = cluster.metrics.total_messages
        futures = [service.future.n(i) for i in range(3)]
        assert all(isinstance(future, InvocationFuture) for future in futures)
        assert cluster.metrics.total_messages == before  # nothing shipped yet
        assert service.pending == 3
        service.flush()
        assert [future.result() for future in futures] == [5, 6, 7]
        # One batch message + one response for the whole window.
        assert cluster.metrics.total_messages - before == 2

    def test_window_auto_flushes(self):
        handle, service, _, cluster = self._adopt(ServicePolicy().with_batching(2), base=1)
        before = cluster.metrics.total_messages
        first = service.future.n(1)
        second = service.future.n(2)  # fills the window of 2
        assert first.done and second.done
        assert cluster.metrics.total_messages - before == 2

    def test_a_plain_call_on_the_handle_ships_the_window_it_joined(self):
        handle, service, _, cluster = self._adopt(ServicePolicy().with_batching(4))
        queued = service.future.n(1)
        assert handle.n(2) == 7  # interface-typed, synchronous: flushes to get its value
        assert queued.done and queued.result() == 6

    def test_adopted_handle_streams_through_the_session_scheduler(self):
        policy = ServicePolicy(transport="rmi", batch_window=2, pipeline_depth=2)
        handle, service, session, _ = self._adopt(policy, base=3)
        futures = [service.future.n(i) for i in range(6)]
        session.drain()
        assert [future.result() for future in futures] == [3 + i for i in range(6)]
        assert service.scheduler is session._scheduler_for(policy)
        assert service.scheduler.batches_shipped >= 3
        assert handle.n(10) == 13


class TestNoReservedNames:
    """A string façade reserves ``flush`` for itself; the interface-typed
    handle of an adopted object has no such collision."""

    @pytest.fixture
    def buffer(self):
        app, cluster = _deployed([Buffer])
        handle = app.new("Buffer")
        session = Session(cluster, node="client")
        service = session.service(
            "buffer", ServicePolicy().with_batching(8), impl=handle, node="server"
        )
        return handle, service

    def test_flush_keeps_control_plane_semantics(self, buffer):
        handle, service = buffer
        futures = [service.future.add(i) for i in range(3)]
        assert service.pending == 3
        assert service.flush() is None  # the façade's flush: ships the window
        assert [future.result() for future in futures] == [1, 2, 3]
        assert handle.get_items() == [0, 1, 2]

    def test_colliding_remote_member_reachable_through_the_handle(self, buffer):
        handle, service = buffer
        handle.add(1)
        assert handle.flush() == 1  # the REMOTE flush: Buffer's item count
        assert handle.get_items() == []
        assert service.call("flush") == 0
