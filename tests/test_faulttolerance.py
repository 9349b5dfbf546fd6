"""Fault tolerance of remote invocations (paper §4 failure concern).

Every view of the engine honours a ``RetryPolicy`` on every fault cell —
``tests/matrix.py``'s table, run by ``test_pipelining.py::TestDriverParity``.
What is left here is the policy itself, a handle guarded by ``guard_handle``,
and how a ``BatchingProxy`` finds its invoker: on a guarded handle, from
``invoker=`` or ``retry_policy=``, or not at all (the batch then fails
atomically on a drop).
"""

from __future__ import annotations

import pytest

import matrix
import sample_app
from repro.api import MetricsInterceptor
from repro.api.errors import (
    InvocationError,
    MessageDroppedError,
    PartitionError,
    RedistributionError,
)
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, remote
from repro.runtime.batching import BatchingProxy
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import (
    NO_RETRY,
    FailureLog,
    FaultTolerantInvoker,
    RetryPolicy,
    guard_handle,
)
from repro.workloads.bulk_orders import OrderIntake

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]


def _deployed():
    policy = all_local_policy()
    policy.set_class("Y", instances=remote("server", dynamic=True))
    app = ApplicationTransformer(policy).transform(CLASSES)
    cluster, failures = matrix.dropping_cluster(("client", "server"))
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


class TestGuardHandle:
    def test_guarding_requires_a_remote_handle(self):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(CLASSES)
        app.deploy(Cluster(("client", "server")), default_node="client")
        y = app.new("Y", 5)  # local handle
        with pytest.raises(RedistributionError):
            guard_handle(y)
        with pytest.raises(RedistributionError):
            guard_handle(object())

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


class TestBatchingProxyInvoker:
    def test_guarded_batches_retry_transient_drops(self):
        app, cluster, failures = _deployed()
        handle = app.new("Y", 5)
        log = guard_handle(handle, policy=RetryPolicy(max_attempts=3))
        # Arm the drop only now: deployment and remote instantiation above
        # must not consume it.
        failures.drop({("client", "server"): 1})
        proxy = BatchingProxy(handle, max_batch=8)
        pending = [proxy.n(value) for value in range(4)]
        proxy.flush()
        # Y(5).n(v) == 5 + v; the dropped batch was retried transparently.
        assert [p.result() for p in pending] == [5, 6, 7, 8]
        assert log.total_failures == 4
        assert sum(record.recovered for record in log.records) == 4

    @staticmethod
    def _exported(drops=()):
        cluster, _ = matrix.dropping_cluster(("client", "server"), drops)
        return cluster, cluster.space("server").export(OrderIntake())

    def test_exception_on_a_pending_call_returns_the_flush_failure(self):
        """exception() honours its contract even when the wait itself raises:
        the call's own failure comes back as the return value."""
        cluster, reference = self._exported({("client", "server"): 1})
        proxy = BatchingProxy(reference, space=cluster.space("client"), max_batch=8)
        pending = proxy.submit("sku", 1, 10)
        assert isinstance(pending.exception(), MessageDroppedError)

    def test_retry_policy_shortcut_builds_an_invoker(self):
        cluster, reference = self._exported({("client", "server"): 1})
        proxy = BatchingProxy(
            reference,
            space=cluster.space("client"),
            max_batch=8,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        assert proxy.submit("sku", 1, 10).result() == 0

    def test_invoker_and_retry_policy_are_mutually_exclusive(self):
        cluster, reference = self._exported()
        with pytest.raises(InvocationError):
            BatchingProxy(
                reference,
                space=cluster.space("client"),
                invoker=FaultTolerantInvoker(cluster.space("client")),
                retry_policy=RetryPolicy(),
            )
