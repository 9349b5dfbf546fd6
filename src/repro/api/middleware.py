"""Middleware on the service dispatch path: the production interceptors.

Production traffic needs cross-cutting concerns — deadlines, per-tenant
quotas, metrics, tracing.  They hang on the one interceptor chain of
:mod:`repro.core.interception` (:class:`CallContext`, :class:`Interceptor`,
:class:`InterceptorChain`, re-exported here), which a service applies

* on the **client stack** — :class:`~repro.api.policy.ServicePolicy`
  ``.with_middleware(...)`` wraps the policy's pipe in a
  :class:`~repro.api.dispatch.ChainedPipe`, so every enqueue opens a
  bracket and every future's settlement closes it (exactly once); and
* on the **serving** :class:`~repro.runtime.address_space.AddressSpace` —
  the server-side chain runs inside dispatch, before/after the target
  method, batch-aware: one framed batch message brackets its N calls
  individually.

A transformed object's handle carries the same chain type
(:attr:`~repro.core.metaobject.Metaobject.chain`), so any interceptor
below brackets a handle's calls too.

Three production interceptors ship as proof: :class:`DeadlineInterceptor`
(absolute simulated-time deadlines propagated on the wire, so failover
retries consume the *remaining* budget), :class:`RateLimitInterceptor`
(per-tenant token bucket on the simulated clock, typed retryable-or-not
rejections, retry-safe charging) and :class:`MetricsInterceptor` (per-member
call/error/latency counters surfaced via
:meth:`~repro.api.session.Session.metrics`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Tuple

from repro._errors import (
    DeadlineExceededError,
    PolicyError,
    RateLimitError,
    ThrottledError,
)
from repro.core.interception import (  # noqa: F401 - _Bracket: the ledger brackets it here
    CallContext,
    Interceptor,
    InterceptorChain,
    _Bracket,
)

# ---------------------------------------------------------------------------
# Production interceptors
# ---------------------------------------------------------------------------

#: The rate limiter's bucket for calls whose context names no tenant.
DEFAULT_TENANT = "default"


class DeadlineInterceptor(Interceptor):
    """Stamp, propagate and enforce per-call deadlines.

    Client side, ``begin`` stamps calls that carry no deadline yet with
    ``now + timeout`` — an *absolute* simulated-time instant that travels on
    the wire, so retries and failover re-ships of the same logical call
    consume the remaining budget rather than restarting it.  On both sides,
    an already-expired deadline raises
    :class:`~repro.api.errors.DeadlineExceededError`: client-side the call
    aborts without shipping, server-side it aborts before the target method
    executes (the typed rejection travels back as the error response).
    """

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise PolicyError("deadline timeout must be positive")
        #: Simulated seconds granted to calls that arrive without a deadline.
        self.timeout = timeout
        #: Calls this interceptor rejected as expired.
        self.expired_calls = 0

    def begin(self, ctx: CallContext) -> None:
        """Stamp a missing deadline (client side); reject expired calls."""
        if ctx.deadline is None:
            if ctx.side != "client":
                return  # no deadline was propagated; nothing to enforce
            ctx.deadline = ctx.now() + self.timeout
        if ctx.expired:
            self.expired_calls += 1
            raise DeadlineExceededError(
                f"deadline for {ctx.member!r} expired "
                f"{ctx.now() - ctx.deadline:.6f}s ago ({ctx.side}-side)"
            )


class RateLimitInterceptor(Interceptor):
    """Per-tenant token-bucket rate limiting on the simulated clock.

    Each tenant gets a bucket of ``burst`` tokens refilled at ``rate``
    tokens per simulated second (untagged calls share the
    :data:`DEFAULT_TENANT` bucket); ``begin`` spends one token per *logical*
    call and raises a typed rejection when the bucket is empty —
    :class:`~repro.api.errors.ThrottledError` (a transient
    :class:`~repro.api.errors.AdmissionError`, so retry policies back off and
    try again) when ``retryable``, terminal
    :class:`~repro.api.errors.RateLimitError` otherwise.

    Charging is retry-safe: the bucket remembers the call ids it charged
    (bounded LRU memory), so a retry or failover re-ship of an
    already-charged call passes free instead of being double-charged, while
    a call that was *rejected* and later retried gets a fresh admission
    decision.
    """

    #: Bound on the charged-call-id memory (oldest ids forgotten first).
    _CHARGED_MEMORY = 4096

    def __init__(
        self,
        rate: float,
        burst: float = 1.0,
        *,
        retryable: bool = True,
    ) -> None:
        if rate <= 0:
            raise PolicyError("rate must be positive (tokens per simulated second)")
        if burst < 1:
            raise PolicyError("burst must be at least 1 token")
        #: Tokens refilled per simulated second, per tenant.
        self.rate = rate
        #: Bucket capacity (momentary burst allowance), per tenant.
        self.burst = burst
        #: Whether rejections are retryable (:class:`~repro.api.errors.ThrottledError`)
        #: or terminal (:class:`~repro.api.errors.RateLimitError`).
        self.retryable = retryable
        #: tenant → (tokens, last refill time).
        self._buckets: Dict[str, Tuple[float, float]] = {}
        #: Call ids already charged, oldest first (retry double-charge guard).
        self._charged_order: deque = deque()
        self._charged: set = set()
        #: Calls admitted (token spent), per tenant.
        self.admitted: Dict[str, int] = {}
        #: Calls rejected (bucket empty), per tenant.
        self.rejected: Dict[str, int] = {}

    def _remember(self, call_id: str) -> None:
        self._charged.add(call_id)
        self._charged_order.append(call_id)
        while len(self._charged_order) > self._CHARGED_MEMORY:
            self._charged.discard(self._charged_order.popleft())

    def begin(self, ctx: CallContext) -> None:
        """Spend one token for the call's tenant, or raise the typed rejection."""
        if ctx.call_id in self._charged:
            return  # a retry of an already-admitted call rides free
        tenant = ctx.tenant if ctx.tenant is not None else DEFAULT_TENANT
        now = ctx.now()
        tokens, last = self._buckets.get(tenant, (self.burst, now))
        tokens = min(self.burst, tokens + (now - last) * self.rate)
        if tokens >= 1.0:
            self._buckets[tenant] = (tokens - 1.0, now)
            self.admitted[tenant] = self.admitted.get(tenant, 0) + 1
            self._remember(ctx.call_id)
            return
        self._buckets[tenant] = (tokens, now)
        self.rejected[tenant] = self.rejected.get(tenant, 0) + 1
        message = (
            f"tenant {tenant!r} is over its rate limit "
            f"({self.rate:g}/s, burst {self.burst:g}) for {ctx.member!r}"
        )
        if self.retryable:
            raise ThrottledError(message)
        raise RateLimitError(message)


class MetricsInterceptor(Interceptor):
    """Per-member call, error and latency counters.

    ``begin`` stamps the call's start on the context, ``end``/``abort``
    accumulate one completed (or failed) call and its simulated latency
    into the member's row.  :meth:`snapshot` returns a plain-dict copy;
    :meth:`~repro.api.session.Session.metrics` merges the snapshots of
    every metrics interceptor a session's policies carry.
    """

    def __init__(self) -> None:
        # Imported here, not at module top: repro.network pulls in the
        # simulation stack, which imports back into repro.api.
        from repro.network.metrics import LatencyHistogram

        #: member → ``{"calls", "errors", "total_latency"}`` (mutated in place).
        self._members: Dict[str, Dict[str, float]] = {}
        #: Every settled call's simulated latency (ends and aborts alike);
        #: :meth:`~repro.api.session.Session.metrics` merges these across
        #: interceptors with :meth:`LatencyHistogram.merge`.
        self.histogram = LatencyHistogram()

    def _row(self, member: str) -> Dict[str, float]:
        row = self._members.get(member)
        if row is None:
            row = {"calls": 0, "errors": 0, "total_latency": 0.0}
            self._members[member] = row
        return row

    def begin(self, ctx: CallContext) -> None:
        """Count the call and stamp its start time on the context."""
        ctx.state[self] = ctx.now()
        self._row(ctx.member)["calls"] += 1

    def end(self, ctx: CallContext, result: Any) -> None:
        """Accumulate the completed call's simulated latency."""
        started = ctx.state.pop(self, None)
        if started is not None:
            latency = ctx.now() - started
            self._row(ctx.member)["total_latency"] += latency
            self.histogram.record(latency)

    def abort(self, ctx: CallContext, error: BaseException) -> None:
        """Count the failure (latency still accumulates for the attempt)."""
        row = self._row(ctx.member)
        row["errors"] += 1
        started = ctx.state.pop(self, None)
        if started is not None:
            latency = ctx.now() - started
            row["total_latency"] += latency
            self.histogram.record(latency)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A copy of every member's counters (safe to mutate)."""
        return {member: dict(row) for member, row in self._members.items()}
