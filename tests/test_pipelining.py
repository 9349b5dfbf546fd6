"""Tests for the pipelined invocation scheduler and its event-queue substrate.

Batches posted through the scheduler are in flight concurrently: their
round-trip delays overlap in simulated time and their responses complete
futures strictly in *arrival* order, which differs from submission order
whenever shards answer at different speeds.  Per-call result integrity must
survive the reordering — every future resolves to exactly its own call's
value.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import ServicePolicy, Session
from repro.api.errors import (
    InvocationError,
    MessageDroppedError,
    NodeUnreachableError,
    PartitionError,
    RemoteInvocationError,
    UnknownTransportError,
)
from repro.network.clock import EventQueue, SimClock
from repro.network.heartbeat import HeartbeatDetector
from repro.network.simnet import LinkConfig, SimulatedNetwork
from repro.runtime.batching import BatchingProxy
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import RetryPolicy
from repro.runtime.invocation import request_dict
from repro.runtime.pipelining import InvocationFuture, PipelineScheduler
from repro.runtime.replication import ReplicaManager
from repro.transports.base import frame_batch_message, parse_frame
from repro.transports.rmi import RmiTransport
from repro.workloads.bulk_orders import OrderIntake
from repro.workloads.pipelined_orders import run_sharded_order_scenario
from test_batch_faulttolerance import ScriptedDrops


class Echo:
    """Returns exactly what each call sent: the integrity oracle."""

    def echo(self, value):
        return value


@pytest.fixture
def cluster():
    return Cluster(("client", "shard-0", "shard-1"))


def _exported_echo(cluster, node):
    service = Echo()
    return service, cluster.space(node).export(service)


class TestEventQueue:
    def test_events_fire_in_timestamp_order(self):
        clock = SimClock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule(0.3, lambda: fired.append("late"))
        queue.schedule(0.1, lambda: fired.append("early"))
        queue.schedule(0.2, lambda: fired.append("middle"))
        assert queue.run_until_idle() == 3
        assert fired == ["early", "middle", "late"]

    def test_equal_timestamps_fire_in_fifo_order(self):
        queue = EventQueue(SimClock())
        fired = []
        for index in range(4):
            queue.schedule(0.5, lambda index=index: fired.append(index))
        queue.run_until_idle()
        assert fired == [0, 1, 2, 3]

    def test_run_next_advances_the_clock_to_the_fire_time(self):
        clock = SimClock()
        queue = EventQueue(clock)
        seen = []
        queue.schedule(0.25, lambda: seen.append(clock.now))
        assert queue.run_next()
        assert seen == [pytest.approx(0.25)]
        assert clock.now == pytest.approx(0.25)

    def test_callbacks_can_schedule_follow_up_events(self):
        clock = SimClock()
        queue = EventQueue(clock)
        fired = []

        def first():
            fired.append(("first", clock.now))
            queue.schedule(0.1, lambda: fired.append(("second", clock.now)))

        queue.schedule(0.1, first)
        assert queue.run_until_idle() == 2
        assert fired == [("first", pytest.approx(0.1)), ("second", pytest.approx(0.2))]

    def test_negative_delay_clamps_to_now(self):
        clock = SimClock()
        clock.advance(1.0)
        queue = EventQueue(clock)
        assert queue.schedule(-5.0, lambda: None) == pytest.approx(1.0)

    def test_idle_queue_reports_no_progress(self):
        queue = EventQueue(SimClock())
        assert not queue.run_next()
        assert queue.pending == 0
        assert queue.next_fire_time() is None

    def test_clear_drops_pending_events(self):
        queue = EventQueue(SimClock())
        queue.schedule(0.1, lambda: pytest.fail("cleared event fired"))
        queue.clear()
        assert queue.run_until_idle() == 0


class TestAsyncPost:
    def test_posted_round_trips_overlap_in_simulated_time(self, cluster):
        """Two concurrent posts cost ~max, two sequential sends cost ~sum."""
        _, ref0 = _exported_echo(cluster, "shard-0")
        client = cluster.space("client")

        started = cluster.clock.now
        client.invoke_remote(ref0, "echo", (1,))
        client.invoke_remote(ref0, "echo", (2,))
        sequential = cluster.clock.now - started

        responses = []
        started = cluster.clock.now
        for argument in (3, 4):
            body = RmiTransport().encode_batch_request(
                [request_dict(ref0, "echo", [argument], {}, None)]
            )
            cluster.network.post(
                "client", "shard-0", frame_batch_message("rmi", body),
                responses.append, responses.append,
            )
        cluster.network.events.run_until_idle()
        overlapped = cluster.clock.now - started

        assert len(responses) == 2
        assert overlapped < sequential * 0.75

    def test_post_to_unregistered_node_reports_error_via_callback(self, cluster):
        errors = []
        cluster.network.post(
            "client", "ghost", b"rmi\n{}",
            lambda response: pytest.fail("unexpected response"),
            errors.append,
        )
        cluster.network.events.run_until_idle()
        assert len(errors) == 1
        assert isinstance(errors[0], NodeUnreachableError)


class TestInvocationFuture:
    def test_resolution_and_callbacks(self):
        future = InvocationFuture("m")
        seen = []
        future.add_done_callback(seen.append)
        assert not future.done
        future._resolve(41)
        assert future.done and future.ok
        assert future.result() == 41
        assert future.exception() is None
        assert seen == [future]
        # A callback added after completion runs immediately.
        future.add_done_callback(seen.append)
        assert seen == [future, future]

    def test_failure_reraises_from_result(self):
        future = InvocationFuture("m")
        future._fail(ValueError("boom"))
        assert future.done and not future.ok
        with pytest.raises(ValueError):
            future.result()
        assert isinstance(future.exception(), ValueError)

    def test_unowned_pending_future_cannot_block(self):
        with pytest.raises(InvocationError):
            InvocationFuture("m").result()
        # exception() must not read as "success" for a call that never ran.
        with pytest.raises(InvocationError):
            InvocationFuture("m").exception()


class TestPipelineScheduler:
    def test_results_preserve_per_call_integrity(self, cluster):
        _, ref0 = _exported_echo(cluster, "shard-0")
        _, ref1 = _exported_echo(cluster, "shard-1")
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=4, window=8)
        futures = [
            scheduler.submit((ref0, ref1)[index % 2], "echo", f"payload-{index}")
            for index in range(20)
        ]
        scheduler.drain()
        assert [future.result() for future in futures] == [
            f"payload-{index}" for index in range(20)
        ]
        assert all(future.ok for future in futures)

    def test_completions_arrive_out_of_submission_order(self, cluster):
        """Futures for a fast shard overtake earlier submissions to a slow one."""
        cluster.network.set_symmetric_link(
            "client", "shard-0", LinkConfig(latency=0.050)
        )
        _, slow_ref = _exported_echo(cluster, "shard-0")
        _, fast_ref = _exported_echo(cluster, "shard-1")
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=4, window=8)
        # All slow-shard calls are submitted BEFORE any fast-shard call.
        slow = [scheduler.submit(slow_ref, "echo", f"slow-{i}") for i in range(4)]
        fast = [scheduler.submit(fast_ref, "echo", f"fast-{i}") for i in range(4)]
        completions = []
        for future in slow + fast:
            future.add_done_callback(completions.append)
        scheduler.drain()

        assert scheduler.out_of_order_completions > 0
        # Arrival order: every fast future completed before every slow one.
        positions = {id(future): pos for pos, future in enumerate(completions)}
        assert max(positions[id(f)] for f in fast) < min(positions[id(f)] for f in slow)
        # Reordering must not leak between slots: each future kept its value.
        assert [future.result() for future in slow] == [f"slow-{i}" for i in range(4)]
        assert [future.result() for future in fast] == [f"fast-{i}" for i in range(4)]

    def test_window_bounds_concurrent_batches(self, cluster):
        _, ref0 = _exported_echo(cluster, "shard-0")
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=2, window=2)
        futures = [scheduler.submit(ref0, "echo", index) for index in range(12)]
        scheduler.drain()
        assert scheduler.batches_shipped == 6
        assert scheduler.max_in_flight <= 2
        assert [future.result() for future in futures] == list(range(12))

    def test_result_on_a_pending_future_drives_the_pipeline(self, cluster):
        _, ref0 = _exported_echo(cluster, "shard-0")
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=32, window=4)
        future = scheduler.submit(ref0, "echo", "lazy")
        assert not future.done
        assert future.result() == "lazy"  # flushes and pumps internally

    def test_local_destination_short_circuits(self, cluster):
        service = Echo()
        local_ref = cluster.space("client").export(service)
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=4, window=4)
        future = scheduler.submit(local_ref, "echo", "home")
        scheduler.drain()
        assert future.result() == "home"
        assert cluster.metrics.total_messages == 0

    def test_context_manager_drains_on_clean_exit(self, cluster):
        _, ref0 = _exported_echo(cluster, "shard-0")
        with PipelineScheduler(cluster.space("client"), max_batch=8, window=4) as scheduler:
            futures = [scheduler.submit(ref0, "echo", index) for index in range(3)]
        assert [future.result() for future in futures] == [0, 1, 2]

    def test_submission_requires_a_reference(self, cluster):
        scheduler = PipelineScheduler(cluster.space("client"))
        with pytest.raises(InvocationError):
            scheduler.submit(object(), "echo", 1)

    def test_invalid_configuration_rejected(self, cluster):
        with pytest.raises(InvocationError):
            PipelineScheduler(cluster.space("client"), max_batch=0)
        with pytest.raises(InvocationError):
            PipelineScheduler(cluster.space("client"), window=0)

    def test_synchronous_dispatch_failure_releases_the_window_slot(self, cluster):
        """An unknown transport fails at encode time, before anything is
        posted: the error surfaces, the futures fail, and no window slot or
        outstanding count leaks (a later drain must not stall)."""
        from repro.api.errors import UnknownTransportError

        _, ref0 = _exported_echo(cluster, "shard-0")
        scheduler = PipelineScheduler(
            cluster.space("client"), max_batch=4, window=2, transport="carrier-pigeon"
        )
        future = scheduler.submit(ref0, "echo", "lost")
        with pytest.raises(UnknownTransportError):
            scheduler.flush()
        assert future.done and isinstance(future.exception(), UnknownTransportError)
        assert scheduler.in_flight == 0
        assert scheduler.outstanding == 0
        scheduler.drain()  # idle, not stalled

    def test_application_errors_stay_isolated_per_slot(self, cluster):
        class Picky:
            """Rejects odd values."""

            def accept(self, value):
                if value % 2:
                    raise ValueError(f"odd value {value}")
                return value

        service = Picky()
        reference = cluster.space("shard-0").export(service)
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=8, window=4)
        futures = [scheduler.submit(reference, "accept", index) for index in range(6)]
        scheduler.drain()
        assert [future.ok for future in futures] == [True, False] * 3
        assert futures[0].result() == 0
        with pytest.raises(Exception):
            futures[1].result()


    def test_a_settled_future_is_collectable_once_its_caller_drops_it(self, cluster):
        """The scheduler keeps no record of settled futures: a long-lived one
        (a session's) must not pin every call it ever carried."""
        _, ref0 = _exported_echo(cluster, "shard-0")
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=4, window=2)
        future = scheduler.submit(ref0, "echo", "payload")
        scheduler.drain()
        assert future.result() == "payload"
        watcher = weakref.ref(future)
        del future
        gc.collect()
        assert watcher() is None


class Recorder:
    """Echoes like :class:`Echo`, remembers execution order, refuses "bad"."""

    def __init__(self):
        self.seen = []

    def echo(self, value):
        self.seen.append(value)
        if value == "bad":
            raise ValueError("refused")
        return value


def _parity_cluster(drops=()):
    network = SimulatedNetwork(failures=ScriptedDrops(drops))
    return Cluster(("client", "monitor", "a", "b", "c"), network=network)


def _replica_manager(cluster):
    detector = HeartbeatDetector(
        cluster.network, "monitor", interval=0.002, miss_threshold=2
    )
    for node in ("a", "b", "c"):
        detector.watch(node)
    manager = ReplicaManager(cluster, detector=detector)
    detector.start()
    return manager


def _plain(drops=(), values=("v0", "v1", "v2", "v3"), **scheduler_kwargs):
    """A scenario: one unreplicated :class:`Recorder` on node ``a``."""

    def arrange():
        cluster = _parity_cluster(drops)
        reference = cluster.space("a").export(Recorder())
        return cluster, reference, scheduler_kwargs, values

    return arrange


def _partitioned():
    cluster, reference, _, values = _plain()()
    cluster.network.failures.partition(["client"], ["a"])
    return cluster, reference, {"retry_policy": RetryPolicy(max_attempts=3)}, values


def _crashed_primary():
    cluster = _parity_cluster()
    manager = _replica_manager(cluster)
    group = manager.replicate(
        Recorder(), name="rec", primary_node="a", backup_nodes=["b"], readonly=()
    )
    cluster.network.failures.crash_node("a")
    return cluster, group.primary_ref, {"replica_manager": manager}, ("v0", "v1", "v2", "v3")


def _quorumless_primary():
    """The primary hears the client but not its backups, so every write slot
    comes back ``QuorumLostError`` (``FencedError`` takes the same branch);
    an operator promotes a backup while the refused window waits its backoff
    out, and the re-ship re-resolves to it.  No detector: the promotion is
    one event at a fixed instant, so both drivers see it identically."""
    cluster = _parity_cluster()
    manager = ReplicaManager(cluster)
    group = manager.replicate(
        Recorder(), name="rec", primary_node="a", backup_nodes=["b", "c"],
        readonly=(), quorum=2,
    )
    cluster.network.failures.partition(["a"], ["b", "c"])
    cluster.network.events.schedule(0.5, lambda: manager.failover(group))
    patient = RetryPolicy(max_attempts=1, initial_backoff=1.0)
    return (
        cluster,
        group.primary_ref,
        {"replica_manager": manager, "retry_policy": patient},
        ("v0", "v1", "v2", "v3"),
    )


#: name -> (arrange, expected per-future outcomes, heartbeat detector running)
DRIVER_SCENARIOS = {
    "plain": (_plain(), ["v0", "v1", "v2", "v3"], False),
    "application_error_in_a_slot": (
        _plain(values=("v0", "bad", "v2", "v3")),
        ["v0", RemoteInvocationError, "v2", "v3"],
        False,
    ),
    "dropped_request_retried": (
        _plain({("client", "a"): 1}, retry_policy=RetryPolicy(max_attempts=3)),
        ["v0", "v1", "v2", "v3"],
        False,
    ),
    "dropped_response_retried": (
        _plain({("a", "client"): 1}, retry_policy=RetryPolicy(max_attempts=3)),
        ["v0", "v1", "v2", "v3"],
        False,
    ),
    "retries_exhausted": (
        _plain({("client", "a"): 5}, retry_policy=RetryPolicy(max_attempts=2)),
        [MessageDroppedError] * 4,
        False,
    ),
    "partition_is_fatal": (_partitioned, [PartitionError] * 4, False),
    "crashed_primary_fails_over": (_crashed_primary, ["v0", "v1", "v2", "v3"], True),
    "refusal_is_rerouted": (_quorumless_primary, ["v0", "v1", "v2", "v3"], False),
    "unknown_transport": (
        _plain(transport="carrier-pigeon"), [UnknownTransportError] * 4, False
    ),
}


class TestDriverParity:
    """A window of one ships inline, a wider one posts: one engine, so the
    same outcome, the same simulated instants, the same accounting."""

    @staticmethod
    def _run_one_window(arrange, window):
        cluster, reference, scheduler_kwargs, values = arrange()
        scheduler = PipelineScheduler(
            cluster.space("client"), max_batch=8, window=window, **scheduler_kwargs
        )
        futures = [scheduler.submit(reference, "echo", value) for value in values]
        try:
            scheduler.drain()
            raised = None
        except Exception as error:  # noqa: BLE001 - the outcome under test
            raised = type(error)
        return cluster, scheduler, futures, raised

    @pytest.mark.parametrize("scenario", sorted(DRIVER_SCENARIOS))
    def test_both_drivers_agree(self, scenario):
        arrange, expected, detector_running = DRIVER_SCENARIOS[scenario]
        observed = []
        for window in (1, 2):
            cluster, scheduler, futures, raised = self._run_one_window(arrange, window)
            assert scheduler.outstanding == 0 and scheduler.in_flight == 0
            observed.append(
                (
                    [
                        (f._value if f.ok else type(f._error), f.attempts, f.completed_at)
                        for f in futures
                    ],
                    raised,
                    cluster.clock.now,
                    scheduler.failure_log.records,
                    (
                        scheduler.calls_submitted,
                        scheduler.batches_shipped,
                        scheduler.calls_retried,
                        scheduler.calls_redirected,
                        scheduler.out_of_order_completions,
                    ),
                    # Heartbeat probes keep firing while a posted exchange is
                    # in flight and cannot during an inline one — the driver
                    # difference itself — so traffic totals only compare
                    # where no detector runs.
                    None if detector_running else cluster.metrics.snapshot(),
                )
            )
        inline, posted = observed
        assert [outcome for outcome, _, _ in inline[0]] == expected
        assert inline == posted

    def test_the_table_really_retries_and_fails_over(self):
        """Guards the table: the recoveries it claims to cover do happen."""
        _, scheduler, futures, _ = self._run_one_window(
            DRIVER_SCENARIOS["dropped_response_retried"][0], window=1
        )
        assert scheduler.calls_retried == 4 and all(f.attempts == 2 for f in futures)
        for scenario in ("crashed_primary_fails_over", "refusal_is_rerouted"):
            _, scheduler, _, _ = self._run_one_window(DRIVER_SCENARIOS[scenario][0], 1)
            assert scheduler.calls_redirected >= 4
            assert scheduler.replica_manager.failovers

    def test_a_retried_window_still_executes_before_the_next(self):
        """The inline driver waits its backoff out in place: scheduling the
        re-ship would free the only slot and let the next window overtake —
        a batched service would lose "batches execute in order"."""
        cluster = _parity_cluster({("client", "a"): 1})
        recorder = Recorder()
        reference = cluster.space("a").export(recorder)
        scheduler = PipelineScheduler(
            cluster.space("client"),
            max_batch=4,
            window=1,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        futures = [scheduler.submit(reference, "echo", index) for index in range(8)]
        scheduler.drain()
        assert [future.result() for future in futures] == list(range(8))
        assert futures[0].attempts == 2 and futures[4].attempts == 1
        assert recorder.seen == list(range(8))

    def test_a_handler_may_call_back_through_the_same_inline_scheduler(self):
        """A synchronous call whose handler calls back into the caller's
        scheduler nests inside the outer exchange — it must not wait for the
        outer call's slot by pumping the event queue (with a heartbeat
        running that wait would never end)."""
        cluster = _parity_cluster()
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=1, window=1)
        ticks = []

        def tick():  # a bounded stand-in for a periodic event source
            ticks.append(cluster.clock.now)
            if len(ticks) < 1000:
                cluster.network.events.schedule(0.0001, tick)

        class Pong:
            def pong(self, depth):
                if depth == 0:
                    return "done"
                return scheduler.submit(ping_ref, "ping", depth - 1).result()

        class Ping:
            def ping(self, depth):
                return cluster.space("a").invoke_remote(pong_ref, "pong", (depth,))

        ping_ref = cluster.space("a").export(Ping())
        pong_ref = cluster.space("client").export(Pong())
        cluster.network.events.schedule(0.0001, tick)
        assert scheduler.submit(ping_ref, "ping", 2).result() == "done"
        assert ticks == []  # an inline exchange never pumps the event queue
        assert scheduler.max_in_flight == 3 and scheduler.in_flight == 0

    @pytest.mark.parametrize("window, is_batch", [(1, False), (2, True)])
    def test_a_batch_size_of_one_picks_the_frame(self, window, is_batch):
        """``max_batch == 1`` on the inline driver is a direct call: it ships
        the single-call frame, not a batch of one."""
        cluster = _parity_cluster()
        space = cluster.space("a")
        reference = space.export(Recorder())
        frames = []

        def recording_handler(source, payload):
            frames.append(payload)
            return space._handle_message(source, payload)

        cluster.network.register("a", recording_handler)
        scheduler = PipelineScheduler(cluster.space("client"), max_batch=1, window=window)
        future = scheduler.submit(reference, "echo", "solo")
        scheduler.drain()
        assert future.result() == "solo"
        assert [parse_frame(frame)[2] for frame in frames] == [is_batch]


class TestShardedWorkload:
    def test_pipelined_beats_sequential_with_identical_results(self):
        sequential = run_sharded_order_scenario(
            Cluster(("client", "server-0", "server-1")), pipelined=False, orders=128
        )
        pipelined = run_sharded_order_scenario(
            Cluster(("client", "server-0", "server-1")), pipelined=True, orders=128
        )
        assert pipelined["values"] == sequential["values"]
        assert pipelined["accepted"] == sequential["accepted"] == 128
        assert pipelined["simulated_seconds"] < sequential["simulated_seconds"]
        assert pipelined["max_in_flight"] > 1

    def test_scenario_validates_inputs(self):
        with pytest.raises(ValueError):
            run_sharded_order_scenario(Cluster(("client",)), orders=0)
        with pytest.raises(ValueError):
            run_sharded_order_scenario(Cluster(("client",)), servers=())


class TestBatchingProxyFutures:
    def test_pending_calls_are_invocation_futures(self, cluster):
        service, reference = _exported_echo(cluster, "shard-0")
        proxy = BatchingProxy(reference, space=cluster.space("client"), max_batch=8)
        pending = proxy.echo("hello")
        assert type(pending) is InvocationFuture
        seen = []
        pending.add_done_callback(seen.append)
        proxy.flush()
        assert pending.done and pending.ok
        assert pending.result() == "hello"
        assert seen == [pending]

    def test_result_still_auto_flushes(self, cluster):
        _, reference = _exported_echo(cluster, "shard-0")
        proxy = BatchingProxy(reference, space=cluster.space("client"), max_batch=8)
        pending = proxy.echo("flush-me")
        assert pending.result() == "flush-me"


def _pipelined_scheduler(*, window: int, orders: int):
    """Drive a façade stream through ``window`` and return its scheduler."""
    cluster = Cluster(("client", "server-0", "server-1"))
    session = Session(cluster, node="client")
    policy = ServicePolicy(transport="rmi", batch_window=8, pipeline_depth=window)
    services = [
        session.service(f"svc-{node}", policy, impl=OrderIntake(), node=node)
        for node in ("server-0", "server-1")
    ]
    futures = [
        services[i % 2].future.submit(f"sku-{i}", 1, 10) for i in range(orders)
    ]
    session.drain()
    assert all(f.ok for f in futures)
    scheduler = services[0].scheduler
    session.close()
    return scheduler


class TestObservedDepth:
    """The scheduler samples the in-flight depth it actually achieves, which
    differs from the configured window whenever traffic cannot fill it."""

    def test_unfilled_window_reports_lower_than_configured(self):
        # 16 orders over 2 shards at batch 8 = one batch per shard: the
        # configured window of 8 can never hold more than 2 batches.
        scheduler = _pipelined_scheduler(window=8, orders=16)
        assert scheduler.window == 8
        assert scheduler.depth_samples > 0
        assert scheduler.observed_pipeline_depth < 8
        assert 1.0 <= scheduler.observed_pipeline_depth <= 2.0

    def test_fresh_scheduler_reports_no_overlap(self):
        session = Session(Cluster(("client", "server-0")), node="client")
        svc = session.service(
            "svc",
            ServicePolicy(batch_window=8, pipeline_depth=4),
            impl=OrderIntake(),
            node="server-0",
        )
        assert svc.scheduler.observed_pipeline_depth == 1.0
        session.close()
