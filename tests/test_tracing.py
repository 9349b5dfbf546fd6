"""End-to-end tracing: spans, critical-path attribution, export and CLI.

Covers the observability layer bottom-up: the tracer/span core in
isolation, the integer-nanosecond critical-path decomposition on
synthetic traces, the Chrome/text exporters, then full-stack traces
collected through the façade (interceptors, queues, wire legs, server
dispatch, replication, caching, failover) and the ``repro trace`` CLI.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.api import ServicePolicy, Session, cacheable
from repro.api.errors import MessageDroppedError
from repro.api.middleware import MetricsInterceptor
from repro.cli import main
from repro.network.failures import FailureModel
from repro.observability import (
    PHASES,
    SampleGate,
    Tracer,
    critical_path,
    render_phase_table,
    render_trace_tree,
    slowest_traces,
    to_chrome_trace,
)
from repro.observability.tracing import trace_refs_from_contexts
from repro.runtime.cluster import Cluster
from repro.runtime.faulttolerance import NO_RETRY
from repro.workloads.bulk_orders import OrderIntake
from repro.workloads.open_loop import run_open_loop_scenario


@pytest.fixture
def cluster():
    return Cluster(("client", "server", "spare"))


class _ManualClock:
    """A settable stand-in for the simulation clock in unit tests."""

    def __init__(self) -> None:
        self.now = 0.0


# ---------------------------------------------------------------------------
# tracer / span core
# ---------------------------------------------------------------------------


class TestTracerCore:
    def test_root_and_child_span_lifecycle(self):
        tracer = Tracer()
        root = tracer.start_trace("orders.submit", ts=0.0, service="orders")
        assert root.trace_id == "t1"
        assert root.parent_id is None
        assert root.kind == "client"
        assert not root.closed
        child = tracer.start_span(
            "request-wire",
            trace_id=root.trace_id,
            parent_id=root.span_id,
            kind="wire",
            ts=0.1,
        )
        tracer.end_span(child, ts=0.25)
        tracer.end_span(root, ts=0.3, attempts=1)
        assert child.duration == pytest.approx(0.15)
        assert root.attrs["service"] == "orders"
        assert root.attrs["attempts"] == 1
        collector = tracer.collector
        assert collector.trace_ids() == [root.trace_id]
        assert collector.root(root.trace_id) is root
        assert collector.find(root.trace_id, child.span_id) is child
        assert collector.open_spans() == []
        assert len(collector) == 2

    def test_duration_of_open_span_raises(self):
        tracer = Tracer()
        span = tracer.start_trace("call", ts=1.0)
        with pytest.raises(ValueError, match="still open"):
            span.duration  # noqa: B018 - the property raising is the point

    def test_ending_a_span_twice_raises(self):
        tracer = Tracer()
        span = tracer.start_trace("call", ts=0.0)
        tracer.end_span(span, ts=1.0)
        with pytest.raises(RuntimeError):
            tracer.end_span(span, ts=2.0)

    def test_ending_before_start_raises(self):
        tracer = Tracer()
        span = tracer.start_trace("call", ts=5.0)
        with pytest.raises(ValueError):
            tracer.end_span(span, ts=4.0)

    def test_record_span_is_already_closed(self):
        tracer = Tracer()
        root = tracer.start_trace("call", ts=0.0)
        queued = tracer.record_span(
            "pipeline-queue",
            trace_id=root.trace_id,
            parent_id=root.span_id,
            kind="queue",
            start=0.0,
            end=0.5,
        )
        assert queued.closed
        assert queued.duration == pytest.approx(0.5)
        with pytest.raises(ValueError):
            tracer.record_span("bad", trace_id=root.trace_id, start=2.0, end=1.0)

    def test_span_context_manager_tags_errors(self):
        clock = _ManualClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("call", kind="client"):
                clock.now = 0.5
                raise RuntimeError("boom")
        (root,) = tracer.collector.roots()
        assert root.closed
        assert "boom" in root.attrs["error"]
        assert tracer.open_count == 0

    def test_annotate_unknown_span_is_a_noop(self):
        clock = _ManualClock()
        tracer = Tracer(clock=clock)
        root = tracer.start_trace("call", ts=0.0)
        assert tracer.annotate(root.trace_id, "nope", "event") is False
        assert tracer.annotate("t9", root.span_id, "event") is False
        assert tracer.annotate(root.trace_id, root.span_id, "retry", ts=0.5, why="drop")
        assert root.events == [("retry", 0.5, {"why": "drop"})]

    def test_started_ended_accounting(self):
        tracer = Tracer()
        root = tracer.start_trace("call", ts=0.0)
        child = tracer.start_span("inner", trace_id=root.trace_id, ts=0.1)
        assert (tracer.spans_started, tracer.spans_ended) == (2, 0)
        assert tracer.open_count == 2
        tracer.end_span(child, ts=0.2)
        tracer.end_span(root, ts=0.3)
        assert (tracer.spans_started, tracer.spans_ended) == (2, 2)
        assert tracer.open_count == 0

    def test_instants_are_global_events(self):
        tracer = Tracer()
        tracer.instant("cache-hit", ts=1.5, member="lookup")
        assert tracer.collector.instants == [("cache-hit", 1.5, {"member": "lookup"})]

    def test_trace_refs_skip_untraced_and_dedupe(self):
        contexts = [
            {"i": 1, "x": "t0", "p": "s0"},
            {"i": 2},
            {"i": 3, "x": "t0", "p": "s0"},
            {"i": 4, "x": "t1", "p": "s9"},
            None,
        ]
        assert trace_refs_from_contexts(contexts) == [("t0", "s0"), ("t1", "s9")]


class TestSampleGate:
    def test_rejects_rates_outside_unit_interval(self):
        with pytest.raises(ValueError):
            SampleGate(1.5)
        with pytest.raises(ValueError):
            SampleGate(-0.1)

    def test_deterministic_fractional_sampling(self):
        gate = SampleGate(0.25)
        admitted = [gate.admit() for _ in range(8)]
        assert sum(admitted) == 2
        rerun_gate = SampleGate(0.25)
        assert [rerun_gate.admit() for _ in range(8)] == admitted

    def test_extremes(self):
        assert all(SampleGate(1.0).admit() for _ in range(4))
        gate = SampleGate(0.0)
        assert not any(gate.admit() for _ in range(4))


# ---------------------------------------------------------------------------
# critical-path decomposition
# ---------------------------------------------------------------------------


def _synthetic_trace(tracer, segments):
    """One root [0, 10] with pre-closed child spans from ``segments``."""
    root = tracer.start_trace("orders.submit", ts=0.0)
    for kind, start, end in segments:
        tracer.record_span(
            kind, trace_id=root.trace_id, parent_id=root.span_id,
            kind=kind, start=start, end=end,
        )
    tracer.end_span(root, ts=10.0)
    return root


class TestCriticalPath:
    def test_phases_partition_the_root_exactly(self):
        tracer = Tracer()
        root = _synthetic_trace(
            tracer,
            [("wire", 1.0, 3.0), ("server_queue", 2.0, 5.0), ("service", 5.0, 9.0)],
        )
        path = critical_path(tracer.collector.spans(root.trace_id), root)
        assert path.duration_ns == 10_000_000_000
        assert sum(path.phases_ns.values()) == path.duration_ns
        # server_queue outranks the overlapping wire leg on [2, 3].
        assert path.phases_ns["wire"] == 1_000_000_000
        assert path.phases_ns["server_queue"] == 3_000_000_000
        assert path.phases_ns["service"] == 4_000_000_000
        # Uncovered root time ([0,1] and [9,10]) is client-side overhead.
        assert path.phases_ns["client_queue"] == 2_000_000_000
        assert path.dominant == "service"
        assert path.share("service") == pytest.approx(0.4)

    def test_replication_outranks_service(self):
        tracer = Tracer()
        root = _synthetic_trace(
            tracer, [("service", 3.0, 8.0), ("replication", 4.0, 6.0)]
        )
        path = critical_path(tracer.collector.spans(root.trace_id), root)
        assert path.phases_ns["replication"] == 2_000_000_000
        assert path.phases_ns["service"] == 3_000_000_000
        assert sum(path.phases_ns.values()) == path.duration_ns

    def test_bare_root_is_all_client_queue(self):
        tracer = Tracer()
        root = tracer.start_trace("call", ts=0.0)
        tracer.end_span(root, ts=2.0)
        path = critical_path([root])
        assert path.phases_ns["client_queue"] == path.duration_ns == 2_000_000_000

    def test_child_spans_are_clipped_to_the_root_window(self):
        tracer = Tracer()
        root = _synthetic_trace(tracer, [("wire", -1.0, 12.0)])
        path = critical_path(tracer.collector.spans(root.trace_id), root)
        assert path.phases_ns["wire"] == path.duration_ns
        assert path.phases_ns["client_queue"] == 0

    def test_structural_kinds_own_no_time(self):
        tracer = Tracer()
        root = tracer.start_trace("call", ts=0.0)
        server = tracer.start_span(
            "impl.call", trace_id=root.trace_id, parent_id=root.span_id,
            kind="server", ts=1.0,
        )
        tracer.end_span(server, ts=9.0)
        tracer.end_span(root, ts=10.0)
        path = critical_path(tracer.collector.spans(root.trace_id), root)
        assert path.phases_ns["client_queue"] == path.duration_ns

    def test_open_root_raises(self):
        tracer = Tracer()
        root = tracer.start_trace("call", ts=0.0)
        with pytest.raises(ValueError, match="still open"):
            critical_path([root])
        with pytest.raises(ValueError, match="no root"):
            critical_path([])


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class TestExport:
    def _collector(self):
        tracer = Tracer()
        root = tracer.start_trace("orders.submit", ts=0.0, service="orders")
        tracer.annotate(root.trace_id, root.span_id, "retry-requeued", ts=0.4, attempt=2)
        wire = tracer.start_span(
            "request-wire", trace_id=root.trace_id, parent_id=root.span_id,
            kind="wire", ts=0.1,
        )
        tracer.end_span(wire, ts=0.2)
        tracer.end_span(root, ts=1.0)
        tracer.instant("cache-hit", ts=0.05, member="lookup")
        return tracer.collector, root.trace_id

    def test_chrome_trace_structure(self):
        collector, _ = self._collector()
        data = to_chrome_trace(collector)
        events = data["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"orders.submit", "request-wire"}
        wire = next(e for e in complete if e["cat"] == "wire")
        assert wire["ts"] == pytest.approx(100_000)
        assert wire["dur"] == pytest.approx(100_000)
        assert "parent_id" in wire["args"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"retry-requeued", "cache-hit"}
        assert any(e["ph"] == "M" for e in events)
        json.dumps(data)  # must be serialisable as-is

    def test_tree_renderer_shows_hierarchy_and_events(self):
        collector, trace_id = self._collector()
        tree = render_trace_tree(collector, trace_id)
        lines = tree.splitlines()
        assert lines[0].startswith("[client] orders.submit")
        assert any(line.startswith("  ! retry-requeued") for line in lines)
        assert any(line.startswith("  [wire] request-wire") for line in lines)

    def test_phase_table_names_every_phase(self):
        collector, trace_id = self._collector()
        table = render_phase_table(collector, trace_id)
        assert "dominant:" in table
        for phase in PHASES:
            assert phase in table


# ---------------------------------------------------------------------------
# the full stack, traced through the façade
# ---------------------------------------------------------------------------


class TestTracedFacade:
    def test_direct_call_spans_every_layer(self, cluster):
        with Session(cluster, node="client") as session:
            policy = (
                ServicePolicy(transport="rmi")
                .with_middleware(MetricsInterceptor(), server=[MetricsInterceptor()])
                .with_tracing()
            )
            svc = session.service("orders", policy, impl=OrderIntake(), node="server")
            assert svc.submit("sku-1", 2, 10.0) == 0
            collector = session.tracer().collector
        (trace_id,) = collector.trace_ids()
        spans = collector.spans(trace_id)
        root = collector.root(trace_id)
        assert root.kind == "client"
        assert root.name == "orders.submit"
        assert root.attrs["attempts"] == 1
        by_kind = {}
        for span in spans:
            by_kind.setdefault(span.kind, []).append(span)
        # Client + server interceptor spans, tagged with their side.
        sides = {span.attrs["side"] for span in by_kind["interceptor"]}
        assert sides == {"client", "server"}
        # Both wire legs hang off the client root span.
        wires = by_kind["wire"]
        assert {w.name for w in wires} == {"request-wire", "response-wire"}
        assert all(w.parent_id == root.span_id for w in wires)
        # The server dispatch span is parented to the client span too.
        (server,) = by_kind["server"]
        assert server.name == "OrderIntake.submit"
        assert server.parent_id == root.span_id
        assert server.attrs["node"] == "server"
        # Everything settles inside the root interval, and nothing leaks.
        assert collector.open_spans() == []
        for span in spans:
            assert root.start <= span.start
            assert span.end <= root.end

    @pytest.mark.parametrize("fault", ["response-dropped", "handler-raises"])
    def test_failed_direct_call_still_bills_its_service_time(self, cluster, fault):
        """The server did the work even though no reply came: its ``service``
        span is recorded before the failure surfaces at the caller."""
        with Session(cluster, node="client") as session:
            policy = ServicePolicy(transport="rmi").with_tracing()
            svc = session.service("orders", policy, impl=OrderIntake(), node="server")
            if fault == "response-dropped":
                failures = FailureModel()
                failures.should_drop = lambda source, destination: source == "server"
                cluster.network.failures = failures
                expected = MessageDroppedError
            else:
                def handler(source, payload):
                    cluster.clock.advance(0.002)
                    raise RuntimeError("dispatcher exploded")

                cluster.network.register("server", handler)
                expected = RuntimeError
            with pytest.raises(expected):
                svc.submit("sku-1", 2, 10.0)
            collector = session.tracer().collector
        (trace_id,) = collector.trace_ids()
        root = collector.root(trace_id)
        (service,) = [s for s in collector.spans(trace_id) if s.kind == "service"]
        assert service.parent_id == root.span_id
        assert service.attrs["node"] == "server"
        if fault == "handler-raises":
            assert service.attrs["error"] == "RuntimeError"
            assert service.duration == pytest.approx(0.002)
        else:
            assert [event[0] for event in root.events] == ["response-dropped"]
        assert collector.open_spans() == []

    def test_batch_queue_wait_is_recorded(self, cluster):
        with Session(cluster, node="client") as session:
            policy = ServicePolicy(transport="rmi", batch_window=3).with_tracing()
            svc = session.service("orders", policy, impl=OrderIntake(), node="server")
            svc.future.submit("sku-0", 1, 10.0)
            cluster.clock.advance(0.005)  # the first call waits in the window
            svc.future.submit("sku-1", 1, 10.0)
            svc.future.submit("sku-2", 1, 10.0)  # window full: flush
            session.drain()
            collector = session.tracer().collector
        queued = [
            span
            for trace_id in collector.trace_ids()
            for span in collector.spans(trace_id)
            if span.name == "pipeline-queue"
        ]
        assert len(queued) == 1  # later arrivals waited zero time: no span
        assert queued[0].kind == "queue"
        assert queued[0].duration == pytest.approx(0.005)
        assert collector.open_spans() == []

    def test_pipeline_queue_wait_is_recorded(self, cluster):
        with Session(cluster, node="client") as session:
            policy = ServicePolicy(
                transport="rmi", batch_window=1, pipeline_depth=2
            ).with_tracing()
            svc = session.service("orders", policy, impl=OrderIntake(), node="server")
            for i in range(6):  # window 2: later calls wait for an in-flight slot
                svc.future.submit(f"sku-{i}", 1, 10.0)
            session.drain()
            collector = session.tracer().collector
        queued = [
            span
            for trace_id in collector.trace_ids()
            for span in collector.spans(trace_id)
            if span.name == "pipeline-queue"
        ]
        assert queued, "queued calls must carry a pipeline-queue span"
        assert all(span.kind == "queue" for span in queued)
        assert all(span.duration > 0 for span in queued)
        assert collector.open_spans() == []

    def test_eager_replication_forward_is_a_span(self, cluster):
        with Session(cluster, node="client") as session:
            policy = (
                ServicePolicy(transport="rmi")
                .with_replication(2, quorum=1)
                .with_tracing()
            )
            svc = session.service(
                "orders", policy, impl=OrderIntake(), node="server",
                backup_nodes=["spare"],
            )
            svc.submit("sku-1", 1, 10.0)
            collector = session.tracer().collector
        (trace_id,) = collector.trace_ids()
        forwards = [s for s in collector.spans(trace_id) if s.kind == "replication"]
        assert forwards, "an eager write must trace its replication forward"
        assert forwards[0].name == "replicate"
        assert forwards[0].attrs["op"] == "submit"
        root = collector.root(trace_id)
        assert all(s.parent_id == root.span_id for s in forwards)

    def test_failover_reship_annotates_the_client_span(self, cluster):
        with Session(cluster, node="client") as session:
            policy = (
                ServicePolicy(transport="rmi", batch_window=4, pipeline_depth=2)
                .with_replication(2, quorum=1, readonly=("accepted_count",))
                .with_tracing()
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
            collector = session.tracer().collector
        reshipped = [
            (span, event)
            for trace_id in collector.trace_ids()
            for span in collector.spans(trace_id)
            for event in span.events
            if event[0] == "failover-reship"
        ]
        assert reshipped, "calls re-shipped after the crash must say so"
        for span, (_, ts, attrs) in reshipped:
            assert span.kind == "client"
            assert span.start <= ts <= span.end
            assert "error" in attrs
        assert collector.open_spans() == []

    def test_cache_hits_and_misses_emit_instants(self, cluster):
        class CachedCatalog:
            def __init__(self):
                self.values = {"a": 1, "b": 2}

            @cacheable
            def lookup(self, key):
                return self.values.get(key)

        with Session(cluster, node="client") as session:
            policy = (
                ServicePolicy(transport="rmi").with_caching(lease_ms=1000).with_tracing()
            )
            svc = session.service(
                "catalog", policy, impl=CachedCatalog(), node="server"
            )
            assert svc.lookup("a") == 1  # miss: fills the cache
            assert svc.lookup("a") == 1  # hit: served locally
            collector = session.tracer().collector
        events = [(name, attrs) for name, _, attrs in collector.instants]
        assert ("cache-miss", {"member": "lookup", "object": svc.reference.object_id}) in [
            (name, attrs) for name, attrs in events
        ]
        assert any(name == "cache-hit" for name, _ in events)
        # The cache hit never went to the wire, so only the miss traced a
        # server span.
        server_spans = [
            span
            for trace_id in collector.trace_ids()
            for span in collector.spans(trace_id)
            if span.kind == "server"
        ]
        assert len(server_spans) == 1

    def test_fractional_sampling_traces_a_subset(self, cluster):
        with Session(cluster, node="client") as session:
            policy = ServicePolicy(transport="rmi").with_tracing(0.5)
            svc = session.service("orders", policy, impl=OrderIntake(), node="server")
            for i in range(8):
                svc.submit(f"sku-{i}", 1, 10.0)
            collector = session.tracer().collector
        assert len(collector.trace_ids()) == 4

    def test_rate_zero_is_wire_identical_to_untraced(self):
        def run(policy):
            cluster = Cluster(("client", "server"))
            with Session(cluster, node="client") as session:
                svc = session.service(
                    "orders", policy, impl=OrderIntake(), node="server"
                )
                for i in range(6):
                    svc.submit(f"sku-{i}", 1, 10.0)
            return (
                cluster.metrics.total_messages,
                cluster.metrics.total_bytes,
                cluster.clock.now,
            )

        plain = run(ServicePolicy(transport="rmi"))
        sampled_out = run(ServicePolicy(transport="rmi").with_tracing(0.0))
        assert sampled_out == plain

    def test_session_close_detaches_the_tracer(self, cluster):
        session = Session(cluster, node="client")
        policy = ServicePolicy(transport="rmi").with_tracing()
        svc = session.service("orders", policy, impl=OrderIntake(), node="server")
        svc.submit("sku-1", 1, 10.0)
        assert cluster.network.tracer is not None
        session.close()
        assert cluster.network.tracer is None


# ---------------------------------------------------------------------------
# acceptance: above the knee, the server queue dominates — exactly
# ---------------------------------------------------------------------------


class TestSaturationAttribution:
    def test_server_queue_dominates_above_the_knee(self):
        result = run_open_loop_scenario(
            Cluster(("client", "server")),
            transport="rmi",
            offered_load=1.5 * (2 / 0.002),  # 1.5x the pool's capacity
            duration=0.4,
            queue_limit=64,
            retry_policy=NO_RETRY,
            tracing=1.0,
        )
        collector = result["trace_collector"]
        assert collector is not None
        assert result["completed"] > 100
        assert collector.open_spans() == []
        paths = slowest_traces(collector, len(collector.trace_ids()))
        assert len(paths) == len(collector.trace_ids())
        for path in paths:
            # The invariant: phases partition the root span exactly.
            assert sum(path.phases_ns.values()) == path.duration_ns
        # Above the knee the slowest calls sat in the admission queue.
        for path in slowest_traces(collector, 5):
            assert path.dominant == "server_queue"
            assert path.share("server_queue") > 0.5
        kinds = {
            span.kind
            for trace_id in collector.trace_ids()
            for span in collector.spans(trace_id)
        }
        assert {"client", "wire", "server_queue", "service", "server"} <= kinds

    def test_untraced_run_collects_nothing(self):
        result = run_open_loop_scenario(
            Cluster(("client", "server")),
            offered_load=100.0,
            duration=0.05,
        )
        assert result["trace_collector"] is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


class TestTraceCommand:
    def test_open_loop_breakdown(self):
        code, output = run_cli(
            "trace", "--workload", "open_loop", "--duration", "0.2", "--top", "2"
        )
        assert code == 0
        assert "open_loop on rmi" in output
        assert "traces" in output
        assert output.count("dominant:") == 2
        assert "server_queue" in output

    def test_cached_catalog_with_tree_and_export(self, tmp_path):
        export = tmp_path / "trace.json"
        code, output = run_cli(
            "trace", "--workload", "cached_catalog", "--top", "1",
            "--tree", "--export", str(export),
        )
        assert code == 0
        assert "cached_catalog on rmi" in output
        assert "cache events" in output
        assert "[client]" in output  # the tree rendering
        data = json.loads(export.read_text(encoding="utf-8"))
        names = {event["name"] for event in data["traceEvents"]}
        assert "cache-hit" in names

    def test_rejects_bad_arguments(self):
        code, output = run_cli("trace", "--sample-rate", "7")
        assert code == 1
        assert "--sample-rate" in output
        code, output = run_cli("trace", "--transport", "warp")
        assert code == 1
        assert "unknown transport" in output
        code, output = run_cli("trace", "--top", "0")
        assert code == 1
        assert "--top" in output
