"""Batch-aware fault tolerance: retries and failure isolation on the batch path.

The ROADMAP gap this closes: retry policies used to wrap only the single-call
path.  Here the sync batch path (``FaultTolerantInvoker.invoke_many``), the
pipelined path (``PipelineScheduler``) and the batching ergonomics
(``BatchingProxy`` composed with ``guard_handle``) must all honour a
``RetryPolicy``: a sub-batch hitting a transient ``MessageDroppedError`` is
requeued and retried while the rest of the traffic completes, and fatal
failures (``PartitionError``) surface immediately without retry.
"""

from __future__ import annotations

import pytest

import sample_app
from repro.api.errors import InvocationError, MessageDroppedError, PartitionError
from repro.core.transformer import ApplicationTransformer
from repro.network.failures import FailureModel
from repro.network.simnet import SimulatedNetwork
from repro.policy.policy import all_local_policy, remote
from repro.runtime.batching import BatchingProxy
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import (
    FailureLog,
    FaultTolerantInvoker,
    RetryPolicy,
    guard_handle,
)
from repro.runtime.pipelining import PipelineScheduler
from repro.workloads.bulk_orders import OrderIntake


class ScriptedDrops(FailureModel):
    """Drops the first N messages of chosen (source, destination) links."""

    def __init__(self, drops):
        super().__init__()
        self._remaining = dict(drops)

    def should_drop(self, source, destination):
        left = self._remaining.get((source, destination), 0)
        if left > 0:
            self._remaining[(source, destination)] = left - 1
            return True
        return False


def _cluster(drops=None, nodes=("client", "shard-0", "shard-1")):
    failures = ScriptedDrops(drops or {})
    network = SimulatedNetwork(failures=failures)
    return Cluster(nodes, network=network), failures


def _intake_calls(reference, count):
    return [
        (reference, "submit", (f"sku-{index}", 1, 10), {}) for index in range(count)
    ]


class TestInvokeMany:
    def test_transparent_success(self):
        cluster, _ = _cluster()
        intake = OrderIntake()
        reference = cluster.space("shard-0").export(intake)
        invoker = FaultTolerantInvoker(cluster.space("client"))
        results = invoker.invoke_many(_intake_calls(reference, 4))
        assert [result.unwrap() for result in results] == [0, 1, 2, 3]
        assert invoker.log.total_failures == 0

    def test_dropped_batch_is_retried_and_logged_per_call(self):
        cluster, _ = _cluster(drops={("client", "shard-0"): 1})
        intake = OrderIntake()
        reference = cluster.space("shard-0").export(intake)
        invoker = FaultTolerantInvoker(
            cluster.space("client"), policy=RetryPolicy(max_attempts=3)
        )
        results = invoker.invoke_many(_intake_calls(reference, 4))
        assert [result.unwrap() for result in results] == [0, 1, 2, 3]
        # The lost request never reached the server: no duplicate effects.
        assert intake.accepted_count() == 4
        # One network incident touched four logical calls.
        assert invoker.log.total_failures == 4
        assert sum(record.recovered for record in invoker.log.records) == 4
        assert {record.error_type for record in invoker.log.records} == {
            "MessageDroppedError"
        }

    def test_exhausted_retries_reraise(self):
        cluster, _ = _cluster(drops={("client", "shard-0"): 5})
        reference = cluster.space("shard-0").export(OrderIntake())
        invoker = FaultTolerantInvoker(
            cluster.space("client"), policy=RetryPolicy(max_attempts=2)
        )
        with pytest.raises(MessageDroppedError):
            invoker.invoke_many(_intake_calls(reference, 3))
        assert invoker.log.total_failures == 6  # 3 calls x 2 attempts
        assert sum(not record.recovered for record in invoker.log.records) == 3

    def test_fatal_partition_surfaces_without_retry(self):
        cluster, failures = _cluster()
        reference = cluster.space("shard-0").export(OrderIntake())
        failures.partition(["client"], ["shard-0"])
        invoker = FaultTolerantInvoker(
            cluster.space("client"), policy=RetryPolicy(max_attempts=5)
        )
        with pytest.raises(PartitionError):
            invoker.invoke_many(_intake_calls(reference, 2))
        assert all(record.attempt == 1 for record in invoker.log.records)
        assert sum(record.recovered for record in invoker.log.records) == 0

    def test_backoff_charged_to_simulated_time(self):
        cluster, _ = _cluster(drops={("client", "shard-0"): 1})
        reference = cluster.space("shard-0").export(OrderIntake())
        policy = RetryPolicy(max_attempts=2, initial_backoff=0.5)
        invoker = FaultTolerantInvoker(cluster.space("client"), policy=policy)
        invoker.invoke_many(_intake_calls(reference, 2))
        assert cluster.clock.now >= 0.5


class TestPipelinePartialBatchFailure:
    def test_dropped_sub_call_retries_while_the_rest_completes(self):
        """One sub-call's message drops; it is retried per policy while the
        other shard's sub-batch completes undisturbed — partial-batch
        failure never poisons unrelated in-flight traffic."""
        cluster, _ = _cluster(drops={("client", "shard-0"): 1})
        lonely = cluster.space("shard-0").export(OrderIntake())
        busy_intake = OrderIntake()
        busy = cluster.space("shard-1").export(busy_intake)
        scheduler = PipelineScheduler(
            cluster.space("client"),
            max_batch=8,
            window=4,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        dropped = scheduler.submit(lonely, "submit", "sku-lonely", 1, 10)
        others = [scheduler.submit(busy, "submit", f"sku-{i}", 1, 10) for i in range(5)]
        completions = []
        for future in [dropped, *others]:
            future.add_done_callback(completions.append)
        scheduler.drain()

        assert dropped.result() == 0
        assert [future.result() for future in others] == [0, 1, 2, 3, 4]
        # Exactly the one sub-call was hit, retried once, and recovered.
        assert dropped.attempts == 2
        assert all(future.attempts == 1 for future in others)
        assert scheduler.calls_retried == 1
        assert scheduler.failure_log.total_failures == 1
        assert sum(record.recovered for record in scheduler.failure_log.records) == 1
        assert busy_intake.accepted_count() == 5
        # The healthy sub-batch finished before the retried call came back.
        positions = {id(future): pos for pos, future in enumerate(completions)}
        assert positions[id(dropped)] > max(positions[id(f)] for f in others)

    def test_exhausted_sub_batch_fails_with_the_network_error(self):
        cluster, _ = _cluster(drops={("client", "shard-0"): 10})
        doomed_ref = cluster.space("shard-0").export(OrderIntake())
        fine_ref = cluster.space("shard-1").export(OrderIntake())
        scheduler = PipelineScheduler(
            cluster.space("client"),
            max_batch=4,
            window=4,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        doomed = [scheduler.submit(doomed_ref, "submit", f"s{i}", 1, 10) for i in range(2)]
        fine = [scheduler.submit(fine_ref, "submit", f"s{i}", 1, 10) for i in range(2)]
        scheduler.drain()
        for future in doomed:
            assert isinstance(future.exception(), MessageDroppedError)
            assert future.attempts == 2
        assert [future.result() for future in fine] == [0, 1]
        assert sum(not record.recovered for record in scheduler.failure_log.records) == 2

    def test_fatal_partition_fails_futures_without_retry(self):
        cluster, failures = _cluster()
        cut_off = cluster.space("shard-0").export(OrderIntake())
        reachable = cluster.space("shard-1").export(OrderIntake())
        failures.partition(["client"], ["shard-0"])
        scheduler = PipelineScheduler(
            cluster.space("client"),
            max_batch=4,
            window=4,
            retry_policy=RetryPolicy(max_attempts=5),
        )
        lost = [scheduler.submit(cut_off, "submit", f"s{i}", 1, 10) for i in range(3)]
        kept = [scheduler.submit(reachable, "submit", f"s{i}", 1, 10) for i in range(3)]
        scheduler.drain()
        for future in lost:
            assert isinstance(future.exception(), PartitionError)
            assert future.attempts == 1  # fatal: no second attempt
        assert [future.result() for future in kept] == [0, 1, 2]
        assert scheduler.calls_retried == 0

    def test_retry_backoff_is_scheduled_not_blocking(self):
        """The retried sub-batch waits out its backoff on the event queue
        while other traffic proceeds; total time includes the backoff."""
        cluster, _ = _cluster(drops={("client", "shard-0"): 1})
        reference = cluster.space("shard-0").export(OrderIntake())
        policy = RetryPolicy(max_attempts=2, initial_backoff=0.25)
        scheduler = PipelineScheduler(
            cluster.space("client"), max_batch=4, window=4, retry_policy=policy
        )
        future = scheduler.submit(reference, "submit", "sku", 1, 10)
        scheduler.drain()
        assert future.result() == 0
        assert cluster.clock.now >= 0.25


class TestGuardedHandleBatching:
    """guard_handle + BatchingProxy: guarded handles keep fault tolerance."""

    @staticmethod
    def _guarded_handle(drops=None):
        policy = all_local_policy()
        policy.set_class("Y", instances=remote("server", dynamic=True))
        app = ApplicationTransformer(policy).transform(
            [sample_app.X, sample_app.Y, sample_app.Z]
        )
        failures = ScriptedDrops({})
        network = SimulatedNetwork(failures=failures)
        cluster = Cluster(("client", "server"), network=network)
        app.deploy(cluster, default_node="client")
        handle = app.new("Y", 5)
        log = guard_handle(handle, policy=RetryPolicy(max_attempts=3))
        # Arm the drops only now: deployment and remote instantiation above
        # must not consume them.
        failures._remaining.update(drops or {})
        return handle, cluster, log

    def test_batching_proxy_discovers_the_guard_invoker(self):
        handle, cluster, _ = self._guarded_handle()
        proxy = BatchingProxy(handle, max_batch=8)
        assert proxy._invoker is not None

    def test_guarded_batches_retry_transient_drops(self):
        handle, cluster, log = self._guarded_handle(drops={("client", "server"): 1})
        proxy = BatchingProxy(handle, max_batch=8)
        pending = [proxy.n(value) for value in range(4)]
        proxy.flush()
        # Y(5).n(v) == 5 + v; the dropped batch was retried transparently.
        assert [p.result() for p in pending] == [5, 6, 7, 8]
        assert log.total_failures == 4
        assert sum(record.recovered for record in log.records) == 4

    def test_unguarded_proxy_stays_atomic_on_drops(self):
        """Without a guard the historical semantics hold: the batch fails."""
        failing_cluster, _ = _cluster(drops={("client", "shard-0"): 1})
        reference = failing_cluster.space("shard-0").export(OrderIntake())
        proxy = BatchingProxy(
            reference, space=failing_cluster.space("client"), max_batch=8
        )
        pending = proxy.submit("sku", 1, 10)
        with pytest.raises(MessageDroppedError):
            proxy.flush()
        assert isinstance(pending.exception(), MessageDroppedError)

    def test_exception_on_a_pending_call_returns_the_flush_failure(self):
        """exception() honours its contract even when the wait itself raises:
        the call's own failure comes back as the return value."""
        cluster, _ = _cluster(drops={("client", "shard-0"): 1})
        reference = cluster.space("shard-0").export(OrderIntake())
        proxy = BatchingProxy(reference, space=cluster.space("client"), max_batch=8)
        pending = proxy.submit("sku", 1, 10)
        assert isinstance(pending.exception(), MessageDroppedError)

    def test_explicit_retry_policy_on_a_raw_reference(self):
        cluster, _ = _cluster(drops={("client", "shard-0"): 1})
        intake = OrderIntake()
        reference = cluster.space("shard-0").export(intake)
        log = FailureLog()
        invoker = FaultTolerantInvoker(
            cluster.space("client"), policy=RetryPolicy(max_attempts=3), log=log
        )
        proxy = BatchingProxy(
            reference, space=cluster.space("client"), max_batch=8, invoker=invoker
        )
        pending = [proxy.submit(f"sku-{i}", 1, 10) for i in range(3)]
        proxy.flush()
        assert [p.result() for p in pending] == [0, 1, 2]
        assert sum(record.recovered for record in log.records) == 3

    def test_retry_policy_shortcut_builds_an_invoker(self):
        cluster, _ = _cluster(drops={("client", "shard-0"): 1})
        reference = cluster.space("shard-0").export(OrderIntake())
        proxy = BatchingProxy(
            reference,
            space=cluster.space("client"),
            max_batch=8,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        assert proxy.submit("sku", 1, 10).result() == 0

    def test_invoker_and_retry_policy_are_mutually_exclusive(self):
        cluster, _ = _cluster()
        reference = cluster.space("shard-0").export(OrderIntake())
        with pytest.raises(InvocationError):
            BatchingProxy(
                reference,
                space=cluster.space("client"),
                invoker=FaultTolerantInvoker(cluster.space("client")),
                retry_policy=RetryPolicy(),
            )
