"""Tests for the pipelined invocation scheduler and its event-queue substrate.

Batches posted through the scheduler are in flight concurrently: their
round-trip delays overlap in simulated time and their responses complete
futures strictly in *arrival* order, which differs from submission order
whenever shards answer at different speeds.  Per-call result integrity must
survive the reordering — every future resolves to exactly its own call's
value.
"""

from __future__ import annotations

import pytest

from repro.api.errors import InvocationError, NodeUnreachableError
from repro.network.clock import EventQueue, SimClock
from repro.network.simnet import LinkConfig
from repro.policy.adaptive import AdaptiveDistributionManager
from repro.runtime.batching import BatchingProxy, PendingCall
from repro.runtime.cluster import Cluster
from repro.runtime.pipelining import InvocationFuture, PipelineScheduler
from repro.workloads.pipelined_orders import run_sharded_order_scenario


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
        payload = client._encode_batch_payload([(ref0, "echo", (3,), {}, {})], None)
        cluster.network.post("client", "shard-0", payload, responses.append, responses.append)
        payload = client._encode_batch_payload([(ref0, "echo", (4,), {}, {})], None)
        cluster.network.post("client", "shard-0", payload, responses.append, responses.append)
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
        completions = scheduler.drain()

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
        assert scheduler.drain() == [future]  # idle, not stalled

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
        assert isinstance(pending, PendingCall)
        assert isinstance(pending, InvocationFuture)
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


class TestPipelineAwareAdaptivePolicy:
    def _manager(self, **kwargs):
        # The manager's weighting is pure arithmetic over the monitor window;
        # application/controller are not exercised here.
        return AdaptiveDistributionManager(None, None, **kwargs)

    def test_pipeline_depth_amortises_observed_windows(self):
        manager = self._manager(batch_size=4, pipeline_depth=8)

        class Window:
            total_calls = 64

        assert manager.amortised_call_count(Window()) == pytest.approx(2.0)

    def test_default_depth_keeps_batch_only_weighting(self):
        batch_only = self._manager(batch_size=4)
        assert batch_only.pipeline_depth == 1

        class Window:
            total_calls = 64

        assert batch_only.amortised_call_count(Window()) == pytest.approx(16.0)

    def test_invalid_pipeline_depth_rejected(self):
        from repro.api.errors import RedistributionError

        with pytest.raises(RedistributionError):
            self._manager(pipeline_depth=0)
