"""Property: span accounting is conserved, whatever faults a run injects.

Hypothesis drives the façade through randomized combinations of batching,
pipelining, sampling, dropped messages, a crashed primary mid-stream and
throttled retries.  However the run ends — every call served, some
shed, some failed terminally — the tracer's books must balance:

* every span opened was closed exactly once (no leaks, no double ends);
* every child span lies inside its parent's interval;
* every settled trace's critical-path phases sum *exactly* (integer
  nanoseconds) to its root span's duration.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import matrix
from repro.api import ServicePolicy, Session
from repro.api.middleware import RateLimitInterceptor
from repro.observability import critical_path
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import RetryPolicy
from repro.workloads.bulk_orders import OrderIntake


@given(
    n_calls=st.integers(min_value=8, max_value=20),
    batch_window=st.sampled_from([1, 2, 4]),
    pipeline_depth=st.sampled_from([1, 2]),
    sample_rate=st.sampled_from([0.5, 1.0]),
    drops=st.integers(min_value=0, max_value=3),
    kill_primary=st.booleans(),
    throttle=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_span_accounting_survives_fault_injection(
    n_calls, batch_window, pipeline_depth, sample_rate, drops, kill_primary, throttle
):
    cluster = Cluster(("client", "server", "spare"))
    if drops:
        # The first ``drops`` messages are lost, whichever link they travel.
        matrix.drop_next(cluster, {(None, None): drops})
    with Session(cluster, node="client") as session:
        policy = (
            ServicePolicy(
                transport="rmi",
                batch_window=batch_window,
                pipeline_depth=pipeline_depth,
            )
            .with_retry(RetryPolicy(max_attempts=8, initial_backoff=0.005))
            .with_tracing(sample_rate)
        )
        if throttle:
            policy = policy.with_middleware(
                RateLimitInterceptor(rate=500.0, burst=4, retryable=True)
            )
        backup_nodes = None
        if kill_primary:
            policy = policy.with_replication(2, quorum=1, readonly=("accepted_count",))
            backup_nodes = ["spare"]
        svc = session.service(
            "orders", policy, impl=OrderIntake(), node="server",
            backup_nodes=backup_nodes,
        )
        for i in range(n_calls):
            if kill_primary and i == n_calls // 2:
                cluster.network.failures.crash_node("server")
            try:
                svc.future.submit(f"sku-{i}", 1, 10.0)
            except Exception:  # noqa: BLE001 - terminal failures are a valid outcome
                pass
        # A sync batch flush re-raises terminal errors through drain (after
        # failing that window's futures) — a valid outcome here, so keep
        # draining until the session has nothing left in flight.
        for _ in range(n_calls):
            try:
                session.drain()
                break
            except Exception:  # noqa: BLE001 - the next drain picks up the rest
                continue
        tracer = session.tracer()
        collector = tracer.collector

    # Conservation: opened == ended == collected, and nothing is left open.
    assert tracer.spans_started == tracer.spans_ended == len(collector)
    assert collector.open_spans() == []

    for trace_id in collector.trace_ids():
        spans = collector.spans(trace_id)
        root = collector.root(trace_id)
        assert root is not None and root.end is not None

        # Structure: children never escape their parent's interval.
        for span in spans:
            assert span.end is not None
            assert span.start <= span.end
            if span.parent_id is None:
                continue
            parent = collector.find(trace_id, span.parent_id)
            assert parent is not None
            assert parent.start <= span.start
            assert span.end <= parent.end

        # Attribution: the phase decomposition is exact, always.
        path = critical_path(spans, root)
        assert sum(path.phases_ns.values()) == path.duration_ns
        assert path.duration_ns >= 0
