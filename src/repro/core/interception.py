"""The interceptor chain: the one seam where middleware attaches to a call.

An :class:`InterceptorChain` is an ordered list of :class:`Interceptor`
objects bracketing every call with ``begin(ctx)`` / ``end(ctx, result)`` /
``abort(ctx, error)``, where ``ctx`` is the call's :class:`CallContext`.  One
chain type brackets three kinds of call:

* a **handle's** call — every :class:`~repro.core.metaobject.Metaobject`
  holds one chain, empty unless something (an access monitor, a test, a
  user) added interceptors to it; an empty chain costs no Python call;
* a **client** call through a service — a policy's ``middleware`` tuple
  (:mod:`repro.api.middleware`); and
* a **served** call — the chains installed on an
  :class:`~repro.runtime.address_space.AddressSpace` with ``use_middleware``,
  one bracket per call of a framed batch.

The bracket guarantees (pinned by ``tests/test_middleware_chain.py``):

* ``begin`` runs in registration order, ``end``/``abort`` in reverse;
* every begun call sees exactly one of ``end`` or ``abort``, never both;
* a ``begin`` that raises aborts the already-begun interceptors (reverse
  order) and short-circuits the later ones' ``begin`` entirely — the call
  fails without running or shipping;
* an ``end``/``abort`` that raises is isolated (counted in
  :attr:`InterceptorChain.callback_failures`), so one misbehaving
  interceptor cannot corrupt its batch's other calls.

This module imports nothing of the package but its errors, so every layer —
``core`` and ``runtime`` included — can use it.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro._errors import PolicyError

#: Deterministic per-process sequence behind :attr:`CallContext.call_id` —
#: unique across every session and service in one process, so server-side
#: retry-deduplication (e.g. the rate limiter's charged-call memory) never
#: confuses two tenants' calls.
_CALL_SEQ = itertools.count()


class CallContext:
    """Everything the interceptors of one call get to see and annotate.

    One context is built per logical call (client side at enqueue, server
    side at dispatch) and handed to every interceptor's ``begin`` / ``end``
    / ``abort``.  Retries and failover re-ships of the same logical call
    reuse the same wire context, which is how absolute deadlines keep their
    remaining budget and rate limiters recognise already-charged calls.
    """

    __slots__ = (
        "service",
        "member",
        "args",
        "kwargs",
        "tenant",
        "deadline",
        "attempt",
        "side",
        "call_id",
        "clock",
        "state",
        "trace",
        "tracer",
    )

    def __init__(
        self,
        *,
        service: str = "",
        member: str = "",
        args: tuple = (),
        kwargs: Optional[dict] = None,
        tenant: Optional[str] = None,
        deadline: Optional[float] = None,
        attempt: int = 1,
        side: str = "client",
        call_id: Optional[str] = None,
        clock: Any = None,
    ) -> None:
        #: The façade service name (client side) or interface name (server
        #: side) the call targets.
        self.service = service
        #: The member (method name) being invoked.
        self.member = member
        #: Positional arguments, as the caller passed them (client side) or
        #: as the target method receives them, unmarshalled (server side).
        self.args = tuple(args)
        #: Keyword arguments (same caveat as :attr:`args`).
        self.kwargs = dict(kwargs or {})
        #: The calling tenant, from the policy's ``tenant`` field (``None``
        #: when the caller did not identify itself).
        self.tenant = tenant
        #: Absolute simulated-time instant after which the call is dead
        #: (``None`` = no deadline).  Absolute on purpose: a failover retry
        #: carries the original instant, not a fresh budget.
        self.deadline = deadline
        #: Which dispatch attempt this bracket observes (>= 1).
        self.attempt = attempt
        #: ``"client"`` or ``"server"`` — which end of the wire the chain
        #: bracketing this context runs on.
        self.side = side
        #: Process-unique identifier of the logical call, stable across
        #: retries and failover re-ships.
        self.call_id = call_id if call_id is not None else f"c{next(_CALL_SEQ)}"
        #: The simulated clock of the issuing/serving space (``None`` in
        #: clockless unit-test spaces).
        self.clock = clock
        #: Per-call scratch space for interceptors (e.g. latency start
        #: stamps); keyed by interceptor, never serialized.
        self.state: Dict[Any, Any] = {}
        #: The call's tracing span (client side: the root span; server
        #: side: the per-call server span).  ``None`` when the call is
        #: untraced or unsampled.
        self.trace: Any = None
        #: The tracer owning :attr:`trace` (``None`` when untraced).
        self.tracer: Any = None

    # -- time ------------------------------------------------------------------

    def now(self) -> float:
        """The current simulated time (``0.0`` on a clockless space)."""
        return self.clock.now if self.clock is not None else 0.0

    @property
    def expired(self) -> bool:
        """Whether the deadline has passed (always False without one)."""
        return self.deadline is not None and self.now() >= self.deadline

    # -- wire form -------------------------------------------------------------

    def to_wire(self) -> dict:
        """The control fields that travel on the wire with the request.

        Only wire-safe primitives, only non-defaults, single-letter keys
        (``i``\\ d, ``t``\\ enant, ``d``\\ eadline, plus ``x``/``p`` —
        trace id and client span id — when the call is traced) — control
        fields ride *every* intercepted call, so their framing overhead is
        what the chain-overhead benchmark ceiling is spent on.  An empty
        dict means the request carries no ``ctx`` field at all, keeping
        chain-free traffic byte-identical to the pre-middleware wire
        format; untraced calls carry no trace keys for the same reason.
        """
        wire: dict = {"i": self.call_id}
        if self.tenant is not None:
            wire["t"] = self.tenant
        if self.deadline is not None:
            wire["d"] = float(self.deadline)
        if self.trace is not None:
            wire["x"] = self.trace.trace_id
            wire["p"] = self.trace.span_id
        return wire

    @classmethod
    def from_wire(
        cls,
        wire: Optional[dict],
        *,
        service: str = "",
        member: str = "",
        args: tuple = (),
        kwargs: Optional[dict] = None,
        clock: Any = None,
    ) -> "CallContext":
        """Rebuild the server-side context from a request's ``ctx`` field."""
        wire = wire or {}
        return cls(
            service=service,
            member=member,
            args=args,
            kwargs=kwargs,
            tenant=wire.get("t"),
            deadline=wire.get("d"),
            side="server",
            call_id=wire.get("i"),
            clock=clock,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CallContext {self.side} {self.service!r}.{self.member} "
            f"id={self.call_id} tenant={self.tenant!r}>"
        )


class Interceptor:
    """Base class for chain interceptors; every hook defaults to a no-op.

    Subclass and override any of the three brackets.  ``begin`` may raise to
    *reject* the call (typed errors preferred — see
    :class:`~repro.api.errors.ThrottledError` /
    :class:`~repro.api.errors.DeadlineExceededError`); the call then never
    ships (client side) or never executes (server side), already-begun
    interceptors are aborted in reverse order, and later interceptors'
    ``begin`` is short-circuited.
    """

    def begin(self, ctx: CallContext) -> None:
        """Called before the call ships (client) or executes (server)."""

    def end(self, ctx: CallContext, result: Any) -> None:
        """Called exactly once when the call completed successfully."""

    def abort(self, ctx: CallContext, error: BaseException) -> None:
        """Called exactly once when the call failed (any error path)."""


class _Bracket:
    """One opened call bracket: the entered interceptors awaiting settlement.

    Returned by :meth:`InterceptorChain.open`; exactly one of
    :meth:`close` or :meth:`fail` fires the matching ``end`` / ``abort``
    hooks (reverse registration order) — later settlements are no-ops, so a
    future's single pending→done transition maps onto a single bracket
    settlement even if bookkeeping code runs twice.
    """

    __slots__ = ("_chain", "_ctx", "_entered", "_settled", "_spans")

    def __init__(
        self,
        chain: "InterceptorChain",
        ctx: CallContext,
        entered: List[Interceptor],
        spans: Optional[List[Any]] = None,
    ) -> None:
        self._chain = chain
        self._ctx = ctx
        self._entered = entered
        self._settled = False
        #: Per-interceptor child spans (parallel to ``_entered``), open
        #: from ``begin`` to settlement; empty when the call is untraced.
        self._spans = spans or []

    def _end_spans(self, error: Optional[BaseException]) -> None:
        tracer = self._ctx.tracer
        if tracer is None:
            return
        for span in reversed(self._spans):
            if error is not None:
                tracer.end_span(span, error=type(error).__name__)
            else:
                tracer.end_span(span)

    def close(self, result: Any) -> None:
        """Settle successfully: run every entered ``end`` in reverse order."""
        if self._settled:
            return
        self._settled = True
        for interceptor in reversed(self._entered):
            try:
                interceptor.end(self._ctx, result)
            except Exception:  # noqa: BLE001 - isolation, see callback_failures
                self._chain.callback_failures += 1
        self._end_spans(None)

    def fail(self, error: BaseException) -> None:
        """Settle with an error: run every entered ``abort`` in reverse order."""
        if self._settled:
            return
        self._settled = True
        for interceptor in reversed(self._entered):
            try:
                interceptor.abort(self._ctx, error)
            except Exception:  # noqa: BLE001 - isolation, see callback_failures
                self._chain.callback_failures += 1
        self._end_spans(error)


class InterceptorChain:
    """An ordered interceptor list applied around every call.

    Built from a policy's ``middleware`` tuple (client side) or installed on
    a serving space via
    :meth:`~repro.runtime.address_space.AddressSpace.use_middleware`
    (server side).  :meth:`open` runs every ``begin`` in registration order
    and returns the bracket whose ``close``/``fail`` settles the call.
    """

    def __init__(self, interceptors: Sequence[Interceptor] = ()) -> None:
        for interceptor in interceptors:
            if not (
                callable(getattr(interceptor, "begin", None))
                and callable(getattr(interceptor, "end", None))
                and callable(getattr(interceptor, "abort", None))
            ):
                raise PolicyError(
                    f"{interceptor!r} is not an interceptor: it needs "
                    "begin(ctx), end(ctx, result) and abort(ctx, error)"
                )
        #: The interceptors, in registration (= begin) order.
        self.interceptors: Tuple[Interceptor, ...] = tuple(interceptors)
        #: ``end``/``abort`` hooks that raised and were isolated.
        self.callback_failures = 0

    @property
    def empty(self) -> bool:
        """Whether the chain has no interceptors (open/settle are no-ops)."""
        return not self.interceptors

    def open(self, ctx: CallContext) -> _Bracket:
        """Run every ``begin`` in order; returns the bracket to settle.

        A ``begin`` that raises rejects the call: the interceptors already
        begun are aborted in *reverse* order with the rejection error, the
        later interceptors never see their ``begin``, and the error
        propagates to the caller (who fails the call without dispatching
        it).
        """
        entered: List[Interceptor] = []
        tracer = ctx.tracer if ctx.trace is not None else None
        spans: List[Any] = []
        for interceptor in self.interceptors:
            try:
                interceptor.begin(ctx)
            except BaseException as error:
                for begun in reversed(entered):
                    try:
                        begun.abort(ctx, error)
                    except Exception:  # noqa: BLE001 - isolation
                        self.callback_failures += 1
                if tracer is not None:
                    for span in reversed(spans):
                        tracer.end_span(span, error=type(error).__name__)
                raise
            entered.append(interceptor)
            if tracer is not None:
                spans.append(
                    tracer.start_span(
                        type(interceptor).__name__,
                        trace_id=ctx.trace.trace_id,
                        parent_id=ctx.trace.span_id,
                        kind="interceptor",
                        ts=ctx.now(),
                        side=ctx.side,
                    )
                )
        return _Bracket(self, ctx, entered, spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(type(i).__name__ for i in self.interceptors)
        return f"<InterceptorChain [{names}]>"
