"""Conformance and fault-injection suite for the interceptor chain.

Pins the bracket guarantees of :mod:`repro.core.interception` across every
dispatch shape the façade composes — 3 pipes (direct, batched, pipelined)
x 4 transports — across every state a transformed object's handle can be
called in (:class:`TestHandleChain`: unbound, co-located, called from
another node, remote over each transport, guarded, adopted), and the fault
paths the chain must survive:

* ``begin``/``end`` exactly once per call; ``abort`` (not ``end``) on every
  error path — application errors, typed admission rejections, crashed
  nodes, retry exhaustion, deadline expiry;
* chain order: ``begin`` in registration order, ``end``/``abort`` in
  reverse; a rejecting ``begin`` short-circuits later ``begin``\\ s and
  aborts the already-begun in reverse;
* a raising ``end``/``abort`` hook is isolated (counted, not propagated),
  so one misbehaving interceptor cannot corrupt its batch's other calls;
* failover retries carry the *remaining* deadline (the absolute instant
  stamped at first ship, not a fresh budget), and rate-limit buckets never
  double-charge a retried call;
* a hypothesis property: for arbitrary interleavings of flaky interceptors
  and settlements, ``sum(begin) == sum(end) + sum(abort)`` per interceptor
  and the per-call event nesting stays well formed.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    CallContext,
    DeadlineInterceptor,
    Interceptor,
    InterceptorChain,
    MetricsInterceptor,
    RateLimitInterceptor,
    ServicePolicy,
    Session,
)
from repro.api.errors import (
    DeadlineExceededError,
    PolicyError,
    RateLimitError,
    RemoteInvocationError,
)
from repro.core.metaobject import Metaobject, metaobject_of
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import PlacementDecision, all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import RetryPolicy, guard_handle
from repro.runtime.redistribution import DistributionController
from repro.workloads.bulk_orders import OrderIntake
from repro.workloads.figure1 import A, B, C

TRANSPORTS = ["inproc", "rmi", "corba", "soap"]

#: The three pipe shapes, as policy factories (transport filled in per test).
PIPES = {
    "direct": lambda t: ServicePolicy(transport=t),
    "batch": lambda t: ServicePolicy(transport=t, batch_window=4),
    "stream": lambda t: ServicePolicy(transport=t, batch_window=4, pipeline_depth=2),
}


class Recorder(Interceptor):
    """Records every bracket event into a log shared across interceptors."""

    def __init__(self, name: str, log: list):
        self.name = name
        self.log = log

    def begin(self, ctx):
        self.log.append(("begin", self.name, ctx.call_id))

    def end(self, ctx, result):
        self.log.append(("end", self.name, ctx.call_id))

    def abort(self, ctx, error):
        self.log.append(("abort", self.name, ctx.call_id, type(error).__name__))


def _events_by_call(log):
    """The log sliced per call id, preserving order within each call."""
    calls = {}
    for event in log:
        calls.setdefault(event[2], []).append(event)
    return calls


@pytest.fixture
def cluster():
    return Cluster(("client", "server", "spare"))


# ---------------------------------------------------------------------------
# chain unit conformance (no cluster)
# ---------------------------------------------------------------------------


class TestChainUnit:
    def test_non_interceptor_rejected_at_construction(self):
        with pytest.raises(PolicyError):
            InterceptorChain([object()])

    def test_begin_in_order_settle_in_reverse(self):
        log = []
        chain = InterceptorChain([Recorder("a", log), Recorder("b", log), Recorder("c", log)])
        ctx = CallContext(member="m")
        chain.open(ctx).close("ok")
        assert [e[:2] for e in log] == [
            ("begin", "a"), ("begin", "b"), ("begin", "c"),
            ("end", "c"), ("end", "b"), ("end", "a"),
        ]

    def test_rejecting_begin_short_circuits_and_aborts_in_reverse(self):
        log = []

        class Reject(Recorder):
            def begin(self, ctx):
                super().begin(ctx)
                raise RateLimitError("no")

        chain = InterceptorChain([Recorder("a", log), Reject("b", log), Recorder("c", log)])
        with pytest.raises(RateLimitError):
            chain.open(CallContext(member="m"))
        # c never saw begin; a (the only entered one) aborted.
        assert [e[:2] for e in log] == [
            ("begin", "a"), ("begin", "b"), ("abort", "a"),
        ]

    def test_bracket_settles_exactly_once(self):
        log = []
        chain = InterceptorChain([Recorder("a", log)])
        bracket = chain.open(CallContext(member="m"))
        bracket.close(1)
        bracket.fail(RuntimeError("late"))
        bracket.close(2)
        assert [e[0] for e in log] == ["begin", "end"]
        assert bracket.settled

    def test_raising_hooks_are_isolated_and_counted(self):
        log = []

        class Broken(Recorder):
            def end(self, ctx, result):
                super().end(ctx, result)
                raise RuntimeError("end boom")

            def abort(self, ctx, error):
                super().abort(ctx, error)
                raise RuntimeError("abort boom")

        chain = InterceptorChain([Recorder("a", log), Broken("b", log)])
        chain.open(CallContext(member="m")).close("ok")
        chain.open(CallContext(member="m")).fail(RuntimeError("call failed"))
        # The outer interceptor still saw every settlement despite b raising.
        assert [e[:2] for e in log] == [
            ("begin", "a"), ("begin", "b"), ("end", "b"), ("end", "a"),
            ("begin", "a"), ("begin", "b"), ("abort", "b"), ("abort", "a"),
        ]
        assert chain.callback_failures == 2


# ---------------------------------------------------------------------------
# conformance across 3 pipes x 4 transports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("pipe", sorted(PIPES))
class TestPipeConformance:
    def test_begin_and_end_exactly_once_per_call(self, cluster, pipe, transport):
        log = []
        policy = PIPES[pipe](transport).with_middleware(
            Recorder("outer", log), Recorder("inner", log)
        )
        with Session(cluster, node="client") as session:
            svc = session.service(
                f"orders-{pipe}-{transport}", policy, impl=OrderIntake(), node="server"
            )
            futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(8)]
            svc.flush()
            session.drain()
        assert all(f.ok for f in futures)
        calls = _events_by_call(log)
        assert len(calls) == 8
        for events in calls.values():
            assert [e[:2] for e in events] == [
                ("begin", "outer"), ("begin", "inner"),
                ("end", "inner"), ("end", "outer"),
            ]

    def test_application_error_aborts_not_ends(self, cluster, pipe, transport):
        log = []
        policy = PIPES[pipe](transport).with_middleware(Recorder("rec", log))
        with Session(cluster, node="client") as session:
            svc = session.service(
                f"orders-{pipe}-{transport}", policy, impl=OrderIntake(), node="server"
            )
            good = svc.future.submit("sku-ok", 1, 10)
            bad = svc.future.submit("sku-bad", 0, 10)  # quantity 0 raises remotely
            svc.flush()
            session.drain()
        assert good.ok
        assert not bad.ok
        assert isinstance(bad.exception(), RemoteInvocationError)
        calls = _events_by_call(log)
        kinds = sorted(tuple(e[0] for e in events) for events in calls.values())
        assert kinds == [("begin", "abort"), ("begin", "end")]

    def test_rejected_call_never_ships_and_batchmates_survive(
        self, cluster, pipe, transport
    ):
        """A begin rejection fails only its own call: the other calls of the
        same window still ship and complete."""
        log = []
        limiter = RateLimitInterceptor(rate=0.001, burst=3.0, retryable=False)
        policy = PIPES[pipe](transport).with_middleware(limiter, Recorder("rec", log))
        with Session(cluster, node="client") as session:
            svc = session.service(
                f"orders-{pipe}-{transport}", policy, impl=OrderIntake(), node="server"
            )
            futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(4)]
            svc.flush()
            session.drain()
        # Burst 3: the fourth call is rejected client-side, the rest complete.
        assert [f.ok for f in futures] == [True, True, True, False]
        assert isinstance(futures[3].exception(), RateLimitError)
        assert limiter.rejected == {"default": 1}
        # The rejected call opened no bracket on the recorder (begin was
        # short-circuited), so only the three shipped calls appear.
        assert len(_events_by_call(log)) == 3


# ---------------------------------------------------------------------------
# server-side chain
# ---------------------------------------------------------------------------


class TestServerChain:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_server_chain_brackets_each_call_of_a_batch(self, cluster, transport):
        log = []
        policy = ServicePolicy(transport=transport, batch_window=4).with_middleware(
            MetricsInterceptor(), server=[Recorder("srv", log)]
        )
        with Session(cluster, node="client") as session:
            svc = session.service(
                f"orders-{transport}", policy, impl=OrderIntake(), node="server"
            )
            futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(4)]
            svc.flush()
            session.drain()
        assert all(f.ok for f in futures)
        # One framed batch message, but four individual server-side brackets.
        calls = _events_by_call(log)
        assert len(calls) == 4
        for events in calls.values():
            assert [e[0] for e in events] == ["begin", "end"]

    def test_server_rejection_travels_back_typed(self, cluster):
        policy = ServicePolicy(transport="soap").with_middleware(
            MetricsInterceptor(),
            server=[RateLimitInterceptor(rate=0.001, burst=1.0, retryable=False)],
        ).with_tenant("acme")
        intake = OrderIntake()
        with Session(cluster, node="client") as session:
            svc = session.service("orders", policy, impl=intake, node="server")
            assert svc.submit("sku-0", 1, 10) == 0
            with pytest.raises(RateLimitError):
                svc.submit("sku-1", 1, 10)
        # The rejected call never reached the implementation.
        assert intake.accepted_count() == 1

    def test_server_chain_requires_a_deploy(self, cluster):
        """Attaching to an existing name cannot reconfigure the hosting
        node's dispatch path: server middleware is deploy-only."""
        with Session(cluster, node="client") as deployer:
            deployer.service("orders", impl=OrderIntake(), node="server")
            with Session(cluster, node="client") as attacher:
                with pytest.raises(PolicyError):
                    attacher.service(
                        "orders",
                        ServicePolicy().with_middleware(server=[MetricsInterceptor()]),
                    )


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_expired_deadline_rejected_server_side_before_execution(self, cluster):
        """A deadline shorter than the one-way latency expires in flight: the
        serving chain aborts it before the target method runs and the typed
        error surfaces at the client, whose own bracket aborts."""
        log = []
        intake = OrderIntake()
        policy = ServicePolicy(transport="rmi").with_middleware(
            DeadlineInterceptor(1e-6),  # far below the 0.5 ms link latency
            Recorder("rec", log),
            server=[DeadlineInterceptor(60.0)],
        )
        with Session(cluster, node="client") as session:
            svc = session.service("orders", policy, impl=intake, node="server")
            future = svc.future.submit("sku-0", 1, 10)
            session.drain()
        assert not future.ok
        assert isinstance(future.exception(), DeadlineExceededError)
        assert intake.accepted_count() == 0
        (events,) = _events_by_call(log).values()
        assert [e[0] for e in events] == ["begin", "abort"]

    def test_expired_deadline_aborts_client_side_without_shipping(self, cluster):
        """A context already past its deadline fails at the chain: nothing
        ships.  Forced by stacking two deadline interceptors — the first
        stamps a sub-latency budget, and enough simulated time is burnt
        between calls that the second sees it expired."""
        deadline = DeadlineInterceptor(60.0)
        policy = ServicePolicy(transport="rmi").with_middleware(deadline)
        with Session(cluster, node="client") as session:
            svc = session.service("orders", policy, impl=OrderIntake(), node="server")
            assert svc.submit("sku-0", 1, 10) == 0
            sent_before = cluster.network.metrics.total_messages

            # Hand-build an already-expired context through the service's
            # chain to pin the client-side enforcement deterministically.
            chain_ctx = CallContext(
                member="submit",
                deadline=cluster.clock.now - 1.0,
                side="client",
                clock=cluster.clock,
            )
            with pytest.raises(DeadlineExceededError):
                svc._pipe.chain.open(chain_ctx)
            assert deadline.expired_calls == 1
            assert cluster.network.metrics.total_messages == sent_before


# ---------------------------------------------------------------------------
# fault injection: failover and retries
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_failover_retry_carries_the_remaining_deadline(self, cluster):
        """Kill the primary with deadlines pending: the re-ship against the
        promoted replica must carry the *original* absolute deadline, not a
        fresh budget stamped at retry time."""
        client_log: list = []
        server_log: list = []
        stamped: dict = {}

        class StampRecorder(Recorder):
            """Runs after DeadlineInterceptor: sees the stamped deadline."""

            def begin(self, ctx):
                super().begin(ctx)
                stamped[ctx.call_id] = ctx.deadline

        class ServerRecorder(Interceptor):
            def begin(self, ctx):
                server_log.append((ctx.call_id, ctx.deadline, ctx.now()))

        policy = (
            ServicePolicy(transport="rmi", batch_window=4, pipeline_depth=2)
            .with_replication(2, quorum=1, readonly=("accepted_count",))
            .with_middleware(
                DeadlineInterceptor(5.0),
                StampRecorder("stamp", client_log),
                server=[ServerRecorder()],
            )
        )
        with Session(cluster, node="client") as session:
            svc = session.service(
                "orders", policy, impl=OrderIntake(), node="server",
                backup_nodes=["spare"],
            )
            futures = []
            for i in range(16):
                if i == 8:
                    cluster.network.failures.crash_node("server")
                futures.append(svc.future.submit(f"sku-{i}", 1, 10))
            session.drain()
            assert all(f.ok for f in futures)
            assert len(session.replica_manager.failovers) == 1
            assert svc.reference.node_id == "spare"
        # Every server-side observation carries exactly the client-stamped
        # absolute deadline, and executed within its remaining budget.
        assert stamped and server_log
        for call_id, observed_deadline, served_at in server_log:
            assert observed_deadline == stamped[call_id]
            assert served_at < observed_deadline

    def test_retried_call_is_not_double_charged(self, cluster):
        """Drop the response of an admitted call: the client retries, the
        server dispatches the same logical call twice, but the rate-limit
        bucket charges it once (the retry rides the charged-call memory)."""
        limiter = RateLimitInterceptor(rate=0.001, burst=1.0, retryable=False)
        policy = (
            ServicePolicy(transport="rmi")
            .with_retry(max_attempts=3)
            .with_middleware(MetricsInterceptor(), server=[limiter])
            .with_tenant("acme")
        )
        intake = OrderIntake()
        failures = cluster.network.failures
        drops = {"remaining": 1}

        def drop_first_response(source, destination):
            if source == "server" and destination == "client" and drops["remaining"]:
                drops["remaining"] -= 1
                return True
            return False

        failures.should_drop = drop_first_response
        with Session(cluster, node="client") as session:
            svc = session.service("orders", policy, impl=intake, node="server")
            future = svc.future.submit("sku-0", 1, 10)
            session.drain()
        assert future.ok
        assert future.attempts == 2  # the drop forced exactly one retry
        assert intake.accepted_count() == 2  # at-least-once: both dispatches ran
        # ... but the bucket charged the logical call once: burst is 1, so a
        # double-charge would have rejected (and failed) the retry.
        assert limiter.admitted == {"acme": 1}
        assert limiter.rejected == {}

    def test_retry_exhaustion_aborts_exactly_once(self, cluster):
        log = []
        policy = (
            ServicePolicy(transport="rmi")
            .with_retry(RetryPolicy(max_attempts=2, initial_backoff=0.001))
            .with_middleware(Recorder("rec", log))
        )
        failures = cluster.network.failures
        failures.should_drop = lambda source, destination: destination == "server"
        with Session(cluster, node="client") as session:
            svc = session.service("orders", policy, impl=OrderIntake(), node="server")
            future = svc.future.submit("sku-0", 1, 10)
            session.drain()
        assert not future.ok
        (events,) = _events_by_call(log).values()
        assert [e[0] for e in events] == ["begin", "abort"]

    def test_throttled_rejection_is_retryable_and_heals(self, cluster):
        """A retryable server-side throttle (ThrottledError) backs off and
        succeeds on a later attempt once the bucket refills."""
        limiter = RateLimitInterceptor(rate=100.0, burst=1.0, retryable=True)
        policy = (
            ServicePolicy(transport="rmi")
            .with_retry(RetryPolicy(max_attempts=4, initial_backoff=0.02))
            .with_middleware(MetricsInterceptor(), server=[limiter])
            .with_tenant("acme")
        )
        with Session(cluster, node="client") as session:
            svc = session.service("orders", policy, impl=OrderIntake(), node="server")
            first = svc.future.submit("sku-0", 1, 10)
            second = svc.future.submit("sku-1", 1, 10)
            session.drain()
        assert first.ok
        # The second call drained the bucket's single token's worth of
        # budget on arrival, was throttled, backed off (simulated time
        # advances through the retry backoff, refilling at 100/s) and
        # eventually succeeded — a *fresh* admission, charged separately.
        assert second.ok
        assert second.attempts > 1
        assert limiter.admitted == {"acme": 2}
        assert limiter.rejected["acme"] >= 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_session_metrics_namespace_client_and_server_counters(self, cluster):
        client_metrics = MetricsInterceptor()
        server_metrics = MetricsInterceptor()
        policy = ServicePolicy(transport="rmi", batch_window=4).with_middleware(
            client_metrics, server=[server_metrics]
        )
        with Session(cluster, node="client") as session:
            svc = session.service("orders", policy, impl=OrderIntake(), node="server")
            futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(6)]
            svc.flush()
            session.drain()
            assert all(f.ok for f in futures)
            merged = session.metrics()
        # The two sides are reported under separate namespaces — summing
        # them into one row would double-count every remote call.
        assert merged["client"]["members"]["submit"]["calls"] == 6
        assert merged["server"]["members"]["submit"]["calls"] == 6
        assert merged["client"]["members"]["submit"]["errors"] == 0
        assert client_metrics.snapshot()["submit"]["calls"] == 6
        assert server_metrics.snapshot()["submit"]["calls"] == 6
        # Client-side latency includes the round trip; server-side is local.
        assert client_metrics.snapshot()["submit"]["total_latency"] > 0.0
        assert merged["client"]["latency"]["count"] == 6
        assert merged["server"]["latency"]["count"] == 6
        assert merged["client"]["latency"]["mean"] >= merged["server"]["latency"]["mean"]

    def test_session_metrics_merge_histograms_across_interceptors(self, cluster):
        first = MetricsInterceptor()
        second = MetricsInterceptor()
        policy_a = ServicePolicy(transport="rmi", batch_window=2).with_middleware(first)
        policy_b = ServicePolicy(transport="rmi", batch_window=2).with_middleware(second)
        with Session(cluster, node="client") as session:
            a = session.service("orders-a", policy_a, impl=OrderIntake(), node="server")
            b = session.service("orders-b", policy_b, impl=OrderIntake(), node="server")
            futures = [a.future.submit(f"a-{i}", 1, 10) for i in range(4)]
            futures += [b.future.submit(f"b-{i}", 1, 10) for i in range(3)]
            a.flush()
            b.flush()
            session.drain()
            assert all(f.ok for f in futures)
            merged = session.metrics()
        # One merged client histogram covering both services' interceptors.
        assert merged["client"]["latency"]["count"] == 7
        assert merged["client"]["latency"]["max"] >= merged["client"]["latency"]["min"] > 0.0


# ---------------------------------------------------------------------------
# the handle's chain: the same brackets around a transformed object's calls
# ---------------------------------------------------------------------------

#: Every state a handle of Figure 1's shared ``C`` can be called in.
HANDLE_STATES = [
    "unbound",
    "co-located",
    "executing-on",
    *(f"remote-{transport}" for transport in TRANSPORTS),
    "guarded",
    "adopted",
]


class _HandleRow:
    """A handle in one state, its cluster (``None`` when unbound) and the
    context its calls run in."""

    def __init__(self, handle, cluster=None, where=nullcontext):
        self.handle = handle
        self.meta = metaobject_of(handle)
        self.cluster = cluster
        self.where = where

    def messages(self) -> int:
        return self.cluster.network.metrics.total_messages if self.cluster else 0


@pytest.fixture(params=HANDLE_STATES)
def row(request, cluster):
    state = request.param
    transport = state.split("-", 1)[1] if state.startswith("remote-") else "rmi"
    policy = all_local_policy(dynamic=True)
    policy.set_class("C", instances=PlacementDecision(dynamic=True, transport=transport))
    app = ApplicationTransformer(policy, transports=TRANSPORTS).transform([A, B, C])
    if state == "unbound":
        # An application that is not deployed makes plain objects; the handle
        # around one has no application behind it.
        artifacts = app.artifacts("C")
        meta = Metaobject(app.new("C", "shared"), interface_name=artifacts.instance_interface.name)
        yield _HandleRow(artifacts.redirector_cls(meta))
        return
    app.deploy(cluster, default_node="client")
    handle = app.new("C", "shared")
    if state == "executing-on":
        # The object stays on the client; the calling code runs on the server.
        yield _HandleRow(handle, cluster, lambda: app.executing_on("server"))
        return
    if state.startswith("remote-") or state == "guarded":
        DistributionController(app, cluster).make_remote(handle, "server", transport=transport)
        if state == "guarded":
            guard_handle(handle)
    if state == "adopted":
        with Session(cluster, node="client") as session:
            session.service("shared", ServicePolicy(transport="rmi"), impl=handle, node="server")
            yield _HandleRow(handle, cluster)
        return
    yield _HandleRow(handle, cluster)


#: What a failing ``C.add`` raises: the application's own error when the
#: object is called in place, its remote rendering when the call crossed a wire.
APPLICATION_ERRORS = (TypeError, RemoteInvocationError)


class TestHandleChain:
    """A handle's chain keeps every bracket guarantee of a service's chain,
    whatever state the handle is in."""

    def test_begin_in_order_end_in_reverse_once_per_call(self, row):
        log = []
        row.meta.add_interceptor(Recorder("outer", log))
        row.meta.add_interceptor(Recorder("inner", log))
        with row.where():
            assert [row.handle.add(value) for value in (1, 2, 3)] == [1, 3, 6]
        calls = _events_by_call(log)
        assert len(calls) == 3
        for events in calls.values():
            assert [e[:2] for e in events] == [
                ("begin", "outer"), ("begin", "inner"),
                ("end", "inner"), ("end", "outer"),
            ]

    def test_application_error_aborts_not_ends(self, row):
        log = []
        row.meta.add_interceptor(Recorder("rec", log))
        with row.where(), pytest.raises(APPLICATION_ERRORS):
            row.handle.add("not a number")
        (events,) = _events_by_call(log).values()
        assert [e[0] for e in events] == ["begin", "abort"]

    def test_rejecting_begin_runs_nothing_and_ships_nothing(self, row):
        log = []

        class Reject(Recorder):
            def begin(self, ctx):
                super().begin(ctx)
                raise RateLimitError("no")

        rejecter = Reject("b", log)
        for interceptor in (Recorder("a", log), rejecter, Recorder("c", log)):
            row.meta.add_interceptor(interceptor)
        sent = row.messages()
        with row.where(), pytest.raises(RateLimitError):
            row.handle.add(5)
        assert row.messages() == sent
        assert [e[:2] for e in log] == [("begin", "a"), ("begin", "b"), ("abort", "a")]
        row.meta.remove_interceptor(rejecter)
        with row.where():
            assert row.handle.get_entries() == 0  # the rejected add never ran

    def test_raising_end_and_abort_are_isolated_and_counted(self, row):
        log = []

        class Broken(Recorder):
            def end(self, ctx, result):
                super().end(ctx, result)
                raise RuntimeError("end boom")

            def abort(self, ctx, error):
                super().abort(ctx, error)
                raise RuntimeError("abort boom")

        row.meta.add_interceptor(Recorder("a", log))
        row.meta.add_interceptor(Broken("b", log))
        with row.where():
            assert row.handle.add(4) == 4
            with pytest.raises(APPLICATION_ERRORS):
                row.handle.add("not a number")
        assert [e[:2] for e in log] == [
            ("begin", "a"), ("begin", "b"), ("end", "b"), ("end", "a"),
            ("begin", "a"), ("begin", "b"), ("abort", "b"), ("abort", "a"),
        ]
        assert row.meta.chain.callback_failures == 2


# ---------------------------------------------------------------------------
# property: bracket accounting under arbitrary interleavings
# ---------------------------------------------------------------------------


class Flaky(Interceptor):
    """An interceptor whose hooks optionally raise, with full accounting."""

    def __init__(self, name, fail_begin, fail_end, fail_abort, log):
        self.name = name
        self.fail_begin = fail_begin
        self.fail_end = fail_end
        self.fail_abort = fail_abort
        self.log = log
        self.begins = self.begin_failures = self.ends = self.aborts = 0

    def begin(self, ctx):
        self.log.append(("begin", self.name))
        if self.fail_begin:
            self.begin_failures += 1
            raise RuntimeError(f"{self.name}: begin boom")
        self.begins += 1

    def end(self, ctx, result):
        self.log.append(("end", self.name))
        self.ends += 1
        if self.fail_end:
            raise RuntimeError(f"{self.name}: end boom")

    def abort(self, ctx, error):
        self.log.append(("abort", self.name))
        self.aborts += 1
        if self.fail_abort:
            raise RuntimeError(f"{self.name}: abort boom")


class TestBracketAccountingProperty:
    @given(
        specs=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.booleans()),
            min_size=1,
            max_size=5,
        ),
        outcomes=st.lists(
            st.sampled_from(["close", "fail", "close-fail", "fail-close"]),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_begun_call_settles_exactly_once(self, specs, outcomes):
        log: list = []
        interceptors = [
            Flaky(f"i{n}", fb, fe, fa, log) for n, (fb, fe, fa) in enumerate(specs)
        ]
        chain = InterceptorChain(interceptors)
        boundaries = [0]
        for outcome in outcomes:
            try:
                bracket = chain.open(CallContext(member="m"))
            except RuntimeError:
                boundaries.append(len(log))
                continue
            if outcome in ("close", "close-fail"):
                bracket.close("ok")
            if outcome in ("fail", "close-fail", "fail-close"):
                bracket.fail(RuntimeError("call failed"))
            if outcome == "fail-close":
                bracket.close("ok")
            boundaries.append(len(log))

        # Accounting: every successful begin is settled exactly once,
        # whatever combination of hooks raised around it.
        order = [i.name for i in interceptors]
        for interceptor in interceptors:
            assert interceptor.begins == interceptor.ends + interceptor.aborts

        # Nesting: per call, begins are a prefix of registration order and
        # the settlement runs over exactly the entered set, in reverse.
        for start, stop in zip(boundaries, boundaries[1:]):
            events = log[start:stop]
            begun = [name for kind, name in events if kind == "begin"]
            assert begun == order[: len(begun)]
            settled = [name for kind, name in events if kind != "begin"]
            # A failed begin is always the last begin logged for its call.
            last_failed = begun and interceptors[len(begun) - 1].fail_begin
            entered = begun[:-1] if last_failed else begun
            assert settled == list(reversed(entered))
