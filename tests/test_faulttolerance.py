"""Unit tests for fault tolerance of remote invocations (paper §4 failure concern)."""

from __future__ import annotations

import pytest

import sample_app
from repro.api import MetricsInterceptor
from repro.api.errors import (
    MessageDroppedError,
    PartitionError,
    RedistributionError,
)
from repro.core.transformer import ApplicationTransformer
from repro.network.failures import FailureModel
from repro.network.simnet import SimulatedNetwork
from repro.policy.policy import all_local_policy, remote
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import (
    NO_RETRY,
    FailureLog,
    FaultTolerantInvoker,
    RetryPolicy,
    guard_handle,
)
from repro.runtime.redistribution import DistributionController

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]


def _deployed(drop_probability=0.0, seed=0):
    policy = all_local_policy()
    policy.set_class("Y", instances=remote("server", dynamic=True))
    app = ApplicationTransformer(policy).transform(CLASSES)
    failures = FailureModel(drop_probability=drop_probability, seed=seed)
    network = SimulatedNetwork(failures=failures)
    cluster = Cluster(("client", "server"), network=network)
    app.deploy(cluster, default_node="client")
    return app, cluster, failures


class TestRetryPolicy:
    def test_backoff_doubles_per_attempt(self):
        policy = RetryPolicy(initial_backoff=0.01)
        assert policy.backoff_for_attempt(1) == pytest.approx(0.01)
        assert policy.backoff_for_attempt(2) == pytest.approx(0.02)
        assert policy.backoff_for_attempt(3) == pytest.approx(0.04)
        assert policy.backoff_for_attempt(0) == 0.0

    def test_transient_failures_are_retried_up_to_the_limit(self):
        policy = RetryPolicy(max_attempts=3)
        error = MessageDroppedError("lost")
        assert policy.should_retry(error, 1)
        assert policy.should_retry(error, 2)
        assert not policy.should_retry(error, 3)

    def test_fatal_failures_are_never_retried(self):
        policy = RetryPolicy(max_attempts=5)
        assert not policy.should_retry(PartitionError("split"), 1)

    def test_no_retry_policy(self):
        assert not NO_RETRY.should_retry(MessageDroppedError("lost"), 1)


class TestFaultTolerantInvoker:
    def test_success_without_failures_is_transparent(self):
        app, cluster, _ = _deployed()
        y = app.new("Y", 5)
        reference = y.meta.target._ref
        invoker = FaultTolerantInvoker(cluster.space("client"))
        assert invoker.invoke(reference, "n", (3,)) == 8
        assert invoker.log.total_failures == 0

    def test_transient_drops_are_retried_and_logged(self):
        app, cluster, failures = _deployed()
        y = app.new("Y", 5)
        reference = y.meta.target._ref
        invoker = FaultTolerantInvoker(
            cluster.space("client"), policy=RetryPolicy(max_attempts=4, initial_backoff=0.001)
        )

        # Force exactly the next message to drop, then heal.
        failures.drop_probability = 1.0
        with pytest.raises(MessageDroppedError):
            cluster.space("client").invoke_remote(reference, "n", (1,))
        failures.drop_probability = 0.0

        # Now interleave: one drop followed by success, handled by the invoker.
        failures.drop_probability = 1.0

        original_should_drop = failures.should_drop
        calls = {"count": 0}

        def drop_once(source, destination):
            calls["count"] += 1
            return calls["count"] == 1

        failures.should_drop = drop_once  # type: ignore[assignment]
        try:
            assert invoker.invoke(reference, "n", (2,)) == 7
        finally:
            failures.should_drop = original_should_drop
            failures.drop_probability = 0.0

        assert invoker.log.total_failures == 1
        assert sum(record.recovered for record in invoker.log.records) == 1
        (first, *_) = [record for record in invoker.log.records if record.member == "n"]
        assert first.error_type == "MessageDroppedError"

    def test_exhausted_retries_reraise(self):
        app, cluster, failures = _deployed()
        y = app.new("Y", 5)
        failures.drop_probability = 1.0
        reference = y.meta.target._ref
        invoker = FaultTolerantInvoker(
            cluster.space("client"), policy=RetryPolicy(max_attempts=2, initial_backoff=0.001)
        )
        with pytest.raises(MessageDroppedError):
            invoker.invoke(reference, "n", (2,))
        assert invoker.log.total_failures == 2
        assert sum(not record.recovered for record in invoker.log.records) == 1

    def test_partitions_surface_immediately(self):
        app, cluster, failures = _deployed()
        y = app.new("Y", 5)
        reference = y.meta.target._ref
        failures.partition(["client"], ["server"])
        invoker = FaultTolerantInvoker(cluster.space("client"))
        with pytest.raises(PartitionError):
            invoker.invoke(reference, "n", (2,))
        assert invoker.log.total_failures == 1

    def test_backoff_advances_the_simulated_clock(self):
        app, cluster, failures = _deployed()
        y = app.new("Y", 5)
        reference = y.meta.target._ref
        invoker = FaultTolerantInvoker(
            cluster.space("client"),
            policy=RetryPolicy(max_attempts=3, initial_backoff=0.5),
        )
        calls = {"count": 0}

        def drop_twice(source, destination):
            calls["count"] += 1
            return calls["count"] <= 2

        failures.should_drop = drop_twice  # type: ignore[assignment]
        before = cluster.clock.now
        assert invoker.invoke(reference, "n", (2,)) == 7
        assert cluster.clock.now - before >= 1.5  # backoffs of 0.5 s and 1 s


class TestGuardHandle:
    def test_guarded_handle_retries_transparently(self):
        app, cluster, failures = _deployed()
        y = app.new("Y", 5)
        log = guard_handle(y, policy=RetryPolicy(max_attempts=3, initial_backoff=0.001))

        calls = {"count": 0}

        def drop_once(source, destination):
            calls["count"] += 1
            return calls["count"] == 1

        failures.should_drop = drop_once  # type: ignore[assignment]
        assert y.n(1) == 6
        assert log.total_failures == 1
        assert sum(record.recovered for record in log.records) == 1

    def test_guarding_requires_a_remote_handle(self):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(CLASSES)
        app.deploy(Cluster(("client", "server")), default_node="client")
        y = app.new("Y", 5)  # local handle
        with pytest.raises(RedistributionError):
            guard_handle(y)
        with pytest.raises(RedistributionError):
            guard_handle(object())

    def test_guarded_handle_still_supports_redistribution(self):
        app, cluster, _ = _deployed()
        y = app.new("Y", 5)
        guard_handle(y)
        controller = DistributionController(app, cluster)
        controller.make_local(y)
        assert y.n(4) == 9

    def test_metrics_interceptor_on_the_handle_observes_failures(self):
        app, cluster, failures = _deployed()
        y = app.new("Y", 5)
        failures.drop_probability = 1.0
        metrics = y.meta.add_interceptor(MetricsInterceptor())
        with pytest.raises(MessageDroppedError):
            y.n(1)
        failures.drop_probability = 0.0
        y.set_base(None)
        with pytest.raises(Exception):
            y.n(1)
        row = metrics.snapshot()["n"]
        assert (row["calls"], row["errors"]) == (2, 2)
        assert metrics.snapshot()["set_base"]["errors"] == 0
        assert row["total_latency"] > 0.0  # simulated time of the remote attempts

    def test_shared_failure_log_across_handles(self):
        app, cluster, failures = _deployed()
        first = app.new("Y", 1)
        second = app.new("Y", 2)
        shared_log = FailureLog()
        guard_handle(first, log=shared_log, policy=RetryPolicy(max_attempts=2))
        guard_handle(second, log=shared_log, policy=RetryPolicy(max_attempts=2))
        failures.drop_probability = 1.0
        with pytest.raises(MessageDroppedError):
            first.n(1)
        with pytest.raises(MessageDroppedError):
            second.n(1)
        assert shared_log.total_failures == 4  # two attempts each
        shared_log.records.clear()
        assert shared_log.total_failures == 0
