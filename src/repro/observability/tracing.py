"""Span/Tracer core: typed spans on the simulated clock.

Every timestamp in a span comes from the simulated clock, so intervals
are exact values, not sampled wall time.  Identifiers are small
deterministic counters (``t1``, ``s42``) — two runs of the same seeded
scenario produce byte-identical traces, which the regression benches
rely on.

Span kinds are a small closed vocabulary; the critical-path analyzer
keys its phase attribution off them:

==============  ====================================================
kind            emitted by
==============  ====================================================
``client``      the dispatch pipe — the root span of every trace
``interceptor`` one child per interceptor bracketing the call
``queue``       batching / pipelining client-side buffer wait
``wire``        one-way link transit (request and response legs)
``server_queue``service-pool admission wait on the server
``service``     service-pool busy time executing the message
``server``      per-call server dispatch inside a framed batch
``replication`` eager op-forward fan-out on the primary
==============  ====================================================
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple


class Span:
    """One timed interval in a trace.

    ``end`` is ``None`` while the span is open.  ``events`` holds
    ``(name, timestamp, attrs)`` triples — point annotations such as
    ``failover-reship`` that mark a moment rather than an interval.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "kind",
        "start",
        "end",
        "attrs",
        "events",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs or {}
        self.events: List[Tuple[str, float, Dict[str, Any]]] = []

    def add_event(self, name: str, ts: float, **attrs: Any) -> None:
        self.events.append((name, ts, attrs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tail = f"{self.end:.6f}" if self.end is not None else "open"
        return (
            f"<Span {self.span_id} {self.kind}:{self.name} "
            f"[{self.start:.6f}, {tail}] trace={self.trace_id}>"
        )


class TraceCollector:
    """Owns every span and global instant emitted by one tracer.

    Spans are registered the moment they start, so annotations can be
    attached to a span that has not settled yet (a failover re-ship
    lands on the still-open client span).
    """

    def __init__(self) -> None:
        self._traces: Dict[str, List[Span]] = {}
        self._index: Dict[Tuple[str, str], Span] = {}
        self.instants: List[Tuple[str, float, Dict[str, Any]]] = []

    def register(self, span: Span) -> None:
        self._traces.setdefault(span.trace_id, []).append(span)
        self._index[(span.trace_id, span.span_id)] = span

    def add_instant(self, name: str, ts: float, attrs: Dict[str, Any]) -> None:
        self.instants.append((name, ts, attrs))

    def trace_ids(self) -> List[str]:
        return list(self._traces)

    def spans(self, trace_id: str) -> List[Span]:
        return list(self._traces.get(trace_id, ()))

    def find(self, trace_id: str, span_id: str) -> Optional[Span]:
        return self._index.get((trace_id, span_id))

    def root(self, trace_id: str) -> Optional[Span]:
        for span in self._traces.get(trace_id, ()):
            if span.parent_id is None:
                return span
        return None

    def roots(self) -> List[Span]:
        return [span for span in self._index.values() if span.parent_id is None]

    def open_spans(self) -> List[Span]:
        return [span for span in self._index.values() if span.end is None]

    def __len__(self) -> int:
        return len(self._index)


class SampleGate:
    """Deterministic counter-based sampling.

    Admits call ``n`` (0-based) exactly when
    ``floor((n + 1) * rate) > floor(n * rate)`` — i.e. a rate of 0.25
    admits every fourth call, 1.0 admits all, 0.0 admits none.  No
    randomness: a seeded scenario samples the same calls every run.
    """

    __slots__ = ("rate", "_seen")

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be within [0, 1], got {rate!r}")
        self.rate = rate
        self._seen = 0

    def admit(self) -> bool:
        n = self._seen
        self._seen += 1
        return math.floor((n + 1) * self.rate) > math.floor(n * self.rate)


class Tracer:
    """Creates, ends and annotates spans; owns the id counters.

    One tracer is shared by every layer of a cluster — it hangs off
    ``network.tracer`` so the network, address spaces, schedulers and
    replica manager all reach the same instance (or ``None`` when
    tracing is off, the common case, guarded by a single attribute
    read).
    """

    def __init__(self, clock: Any = None) -> None:
        self.clock = clock
        self.collector = TraceCollector()
        self._trace_seq = 0
        self._span_seq = 0
        self.spans_started = 0
        self.spans_ended = 0

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    def _now(self, ts: Optional[float]) -> float:
        if ts is not None:
            return ts
        if self.clock is None:
            raise ValueError("no timestamp given and the tracer has no clock")
        return self.clock.now

    def _next_span_id(self) -> str:
        self._span_seq += 1
        return f"s{self._span_seq}"

    def start_trace(
        self, name: str, *, kind: str = "client", ts: Optional[float] = None, **attrs: Any
    ) -> Span:
        """Open the root span of a brand-new trace."""
        self._trace_seq += 1
        trace_id = f"t{self._trace_seq}"
        return self._open(trace_id, None, name, kind, self._now(ts), attrs)

    def start_span(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: Optional[str] = None,
        kind: str = "internal",
        ts: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a child span inside an existing trace."""
        return self._open(trace_id, parent_id, name, kind, self._now(ts), attrs)

    def _open(
        self,
        trace_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        start: float,
        attrs: Dict[str, Any],
    ) -> Span:
        span = Span(trace_id, self._next_span_id(), parent_id, name, kind, start, attrs)
        self.collector.register(span)
        self.spans_started += 1
        return span

    def end_span(self, span: Span, *, ts: Optional[float] = None, **attrs: Any) -> Span:
        """Close ``span``; a second close is a bug and raises."""
        if span.end is not None:
            raise RuntimeError(
                f"span {span.span_id!r} ({span.name!r}) ended twice"
            )
        span.end = self._now(ts)
        if span.end < span.start:
            raise ValueError(
                f"span {span.span_id!r} would end at {span.end} before its start {span.start}"
            )
        if attrs:
            span.attrs.update(attrs)
        self.spans_ended += 1
        return span

    def record_span(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: Optional[str] = None,
        kind: str = "internal",
        start: float,
        end: float,
        **attrs: Any,
    ) -> Span:
        """Register an already-finished interval as one closed span."""
        if end < start:
            raise ValueError(f"span {name!r} ends at {end} before its start {start}")
        span = self._open(trace_id, parent_id, name, kind, start, attrs)
        span.end = end
        self.spans_ended += 1
        return span

    class _SpanScope:
        __slots__ = ("_tracer", "_span")

        def __init__(self, tracer: "Tracer", span: Span) -> None:
            self._tracer = tracer
            self._span = span

        def __enter__(self) -> Span:
            return self._span

        def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
            if exc is not None:
                self._span.attrs.setdefault("error", repr(exc))
            self._tracer.end_span(self._span)

    def span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        kind: str = "internal",
        ts: Optional[float] = None,
        **attrs: Any,
    ) -> "Tracer._SpanScope":
        """``with tracer.span(...) as s:`` — the leak-proof way to span.

        With no ``trace_id`` a fresh trace is started (the span becomes
        its root); otherwise a child is opened.  The span is ended when
        the block exits, errors included.
        """
        if trace_id is None:
            span = self.start_trace(name, kind=kind, ts=ts, **attrs)
        else:
            span = self.start_span(
                name, trace_id=trace_id, parent_id=parent_id, kind=kind, ts=ts, **attrs
            )
        return Tracer._SpanScope(self, span)

    # ------------------------------------------------------------------
    # annotations
    # ------------------------------------------------------------------

    def instant(self, name: str, *, ts: Optional[float] = None, **attrs: Any) -> None:
        """Record a global point event not tied to any one trace."""
        self.collector.add_instant(name, self._now(ts), attrs)

    def annotate(
        self,
        trace_id: str,
        span_id: str,
        name: str,
        *,
        ts: Optional[float] = None,
        **attrs: Any,
    ) -> bool:
        """Attach a point event to a (possibly still open) span.

        Returns ``False`` when the span is unknown — annotations from
        layers that only hold a wire reference must never crash the
        data path over a span the sampler skipped.
        """
        span = self.collector.find(trace_id, span_id)
        if span is None:
            return False
        span.add_event(name, self._now(ts), **attrs)
        return True

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------


def trace_refs_from_contexts(contexts: Iterable[Optional[Dict[str, Any]]]) -> List[Tuple[str, str]]:
    """Extract unique ``(trace_id, client_span_id)`` refs from wire contexts.

    A message carrying several traced calls yields one ref per distinct
    client span, in first-seen order; untraced calls contribute nothing.
    """
    refs: List[Tuple[str, str]] = []
    seen = set()
    for context in contexts:
        if not context:
            continue
        trace_id = context.get("x")
        parent_id = context.get("p")
        if trace_id is None or parent_id is None:
            continue
        key = (trace_id, parent_id)
        if key in seen:
            continue
        seen.add(key)
        refs.append(key)
    return refs


def trace_queue_waits(network: Any, name: str, calls: Iterable[Any], **attrs: Any) -> None:
    """Bill each traced call's client-side wait as a closed ``queue`` span.

    ``calls`` are a dispatch engine's queued-call records — anything with a
    wire ``context`` dict and the ``queued_at`` instant it entered the
    buffer; the span runs from there to now (ship time).  Untraced calls,
    and calls that did not wait, record nothing.
    """
    tracer = getattr(network, "tracer", None)
    if tracer is None:
        return
    now = network.clock.now
    for call in calls:
        trace_id = call.context.get("x")
        if trace_id is None or call.queued_at is None or now <= call.queued_at:
            continue
        tracer.record_span(
            name,
            trace_id=trace_id,
            parent_id=call.context.get("p"),
            kind="queue",
            start=call.queued_at,
            end=now,
            **attrs,
        )
