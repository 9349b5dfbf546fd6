"""The simulated network connecting address spaces.

The paper deploys transformed applications on a LAN; this reproduction has no
testbed, so the substrate is a deterministic in-process network simulator.
Nodes register a message handler; a request/response *exchange* between two
nodes is modelled with configurable per-link latency, bandwidth-proportional
transmission time, jitter, message loss and partitions.  Simulated time is
charged to a :class:`~repro.network.clock.SimClock` and traffic is accounted
in :class:`~repro.network.metrics.NetworkMetrics`.

The exchange is written once (:meth:`SimulatedNetwork._exchange`) and has two
drivers.  :meth:`SimulatedNetwork.send_request` runs it inline: the caller's
clock advances through every wait and the response is the return value.
:meth:`SimulatedNetwork.post` runs it on the network's
:class:`~repro.network.clock.EventQueue` and returns immediately, reporting
the outcome through completion callbacks.  Several posted messages can be in
flight at once, and their link delays overlap in simulated time — the
foundation of the pipelined invocation scheduler
(:mod:`repro.runtime.pipelining`).  A call fails, queues and is accounted
identically whichever driver carries it.

Links have *capacity*: each directed link is a FIFO resource whose
transmission phase serializes — a message starts transmitting only once the
wire has finished the previous one, so concurrent traffic queues and the
wait is accounted per link in :class:`~repro.network.metrics.NetworkMetrics`
(propagation still overlaps).  Nodes can additionally be bounded by a
:class:`ServicePool` (``workers``/``queue_limit``/``service_time``); a
saturated pool refuses requests with
:class:`~repro.api.errors.AdmissionError`.  Only links without transmission
cost (zero bandwidth, the loopback model) never queue.

Each directed link is one record, created on its first message, holding its
:class:`LinkConfig`, the time its wire is free, its backlog and its
:class:`~repro.network.metrics.LinkMetrics`: a message finds all four with
one lookup.  :meth:`SimulatedNetwork.set_link` (and assigning ``default_link``)
re-prices the records it covers; a metrics reset zeroes their counters and
keeps their wires busy.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro._errors import (
    AdmissionError,
    MessageDroppedError,
    NodeUnreachableError,
    PartitionError,
)
from repro.network.clock import EventQueue, SimClock
from repro.network.failures import FailureModel, NoFailures
from repro.network.metrics import LinkMetrics, NetworkMetrics

#: A node-side handler: receives the raw request payload, returns the response.
MessageHandler = Callable[[str, bytes], bytes]

#: Completion callback for an asynchronous exchange: receives the response.
ResponseCallback = Callable[[bytes], None]

#: Failure callback for an asynchronous exchange: receives the network error.
ErrorCallback = Callable[[Exception], None]


@dataclass(frozen=True)
class LinkConfig:
    """Latency/bandwidth characteristics of one (or every) directed link."""

    #: One-way propagation latency in seconds.
    latency: float = 0.0005
    #: Link bandwidth in bytes per second (transmission time = size / bandwidth).
    bandwidth: float = 12_500_000.0  # 100 Mbit/s, a 2003-era LAN
    #: Maximum random jitter added to each one-way latency, in seconds.
    jitter: float = 0.0

    def transmission_time(self, size: int) -> float:
        """Seconds the wire is occupied putting ``size`` bytes on the link.

        This is the serialising component of the one-way delay: while one
        message transmits, the link is busy and later messages queue behind
        it.  Zero-bandwidth links (loopback) transmit instantaneously and
        therefore never queue.
        """
        return size / self.bandwidth if self.bandwidth > 0 else 0.0

    def propagation_delay(self, rng: random.Random) -> float:
        """Seconds a bit takes to cross the link (latency plus jitter).

        Propagation does not occupy the wire — messages overlap in flight —
        so it never contributes to queueing.
        """
        jitter = rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0
        return self.latency + jitter

    def one_way_delay(self, size: int, rng: random.Random) -> float:
        return self.transmission_time(size) + self.propagation_delay(rng)


#: A link configuration approximating calls within a single address space.
LOOPBACK_LINK = LinkConfig(latency=0.0, bandwidth=0.0, jitter=0.0)

#: A link configuration approximating a 2003-era switched LAN.
LAN_LINK = LinkConfig(latency=0.0005, bandwidth=12_500_000.0, jitter=0.0)

#: A link configuration approximating a WAN hop.
WAN_LINK = LinkConfig(latency=0.030, bandwidth=1_250_000.0, jitter=0.002)


class ServicePool:
    """A node's bounded request-serving capacity: ``workers`` parallel
    servers fronted by an admission queue of at most ``queue_limit`` slots.

    Real middleware hosts do not execute unbounded concurrent requests; they
    run a fixed worker pool and shed load once the backlog is full.  A pool
    installed on a node (via :meth:`SimulatedNetwork.set_service_pool` or
    ``AddressSpace.install_service_pool``) makes delivered messages wait for
    a free worker, occupy it for ``service_time`` simulated seconds, and —
    when all workers are busy and the queue is full — be refused with a
    typed :class:`~repro.api.errors.AdmissionError` that fault-tolerant callers
    retry with backoff.  Sustainable capacity is ``workers / service_time``
    requests per simulated second.
    """

    def __init__(
        self,
        workers: int = 1,
        queue_limit: int = 16,
        service_time: float = 0.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if service_time < 0.0:
            raise ValueError("service_time must be non-negative")
        self.workers = workers
        self.queue_limit = queue_limit
        self.service_time = service_time
        #: Min-heap of each worker's busy-until timestamp.
        self._free_at: List[float] = [0.0] * workers
        self._waiting = 0
        self.admitted = 0
        self.rejected = 0
        self.served = 0
        self.max_queue_depth = 0
        self.total_queue_delay = 0.0

    @property
    def capacity(self) -> float:
        """Sustainable throughput in requests per simulated second."""
        if self.service_time <= 0.0:
            return math.inf
        return self.workers / self.service_time

    def admit(self, now: float) -> float:
        """Reserve a worker for one request arriving at ``now``.

        Returns the simulated time service will start — ``now`` when a
        worker is free, later when the request must queue.  Raises
        :class:`~repro.api.errors.AdmissionError` when all workers are busy and
        the admission queue is full; a rejected request consumes no
        capacity.
        """
        earliest = self._free_at[0]
        if earliest <= now:
            start = now
        else:
            if self._waiting >= self.queue_limit:
                self.rejected += 1
                raise AdmissionError(
                    f"service pool saturated: {self.workers} workers busy and "
                    f"{self._waiting} requests already queued (limit {self.queue_limit})"
                )
            start = earliest
            self._waiting += 1
            if self._waiting > self.max_queue_depth:
                self.max_queue_depth = self._waiting
            self.total_queue_delay += start - now
        heapq.heapreplace(self._free_at, start + self.service_time)
        self.admitted += 1
        return start

    def begin_service(self, queued: bool) -> None:
        """Mark an admitted request as having reached its worker.

        ``queued`` says whether the request waited in the admission queue
        (its slot is released here) or started immediately.
        """
        if queued and self._waiting > 0:
            self._waiting -= 1
        self.served += 1

    def snapshot(self) -> dict:
        """Plain-data counters for benchmark reports."""
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "service_time": self.service_time,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "served": self.served,
            "max_queue_depth": self.max_queue_depth,
            "total_queue_delay": round(self.total_queue_delay, 6),
        }


class _Link:
    """One directed link: its configuration, wire, backlog and counters."""

    __slots__ = ("config", "busy_until", "backlog", "metrics")

    def __init__(self, config: LinkConfig, metrics: LinkMetrics) -> None:
        self.config = config
        #: When the wire finishes its last transmission.
        self.busy_until = 0.0
        #: Future transmission-start times of queued messages.
        self.backlog: Deque[float] = deque()
        self.metrics = metrics


class SimulatedNetwork:
    """A deterministic message-passing fabric between named nodes."""

    def __init__(
        self,
        default_link: LinkConfig = LAN_LINK,
        clock: Optional[SimClock] = None,
        failures: Optional[FailureModel] = None,
        seed: int = 0,
    ) -> None:
        self._default_link = default_link
        self.clock = clock if clock is not None else SimClock()
        #: Discrete-event queue carrying asynchronous (pipelined) exchanges.
        self.events = EventQueue(self.clock)
        self.failures = failures if failures is not None else NoFailures()
        self.metrics = NetworkMetrics()
        self._handlers: Dict[str, MessageHandler] = {}
        #: Per directed pair: the configuration :meth:`set_link` gave it.
        self._configured: Dict[Tuple[str, str], LinkConfig] = {}
        #: Per directed link that has carried a message: its record.
        self._links: Dict[Tuple[str, str], _Link] = {}
        #: Per node: its bounded service pool, if one is installed.
        self._pools: Dict[str, ServicePool] = {}
        self._rng = random.Random(seed)
        #: The session tracer, when tracing is enabled (see
        #: :meth:`repro.api.session.Session.tracer`).  Every layer that
        #: instruments the data path — links, pools, server dispatch,
        #: replication — reads it from here; ``None`` keeps the hot path
        #: to a single attribute check.
        self.tracer = None

    # -- topology ----------------------------------------------------------------

    def register(self, node_id: str, handler: MessageHandler) -> None:
        """Attach a node's request handler to the network."""
        self._handlers[node_id] = handler

    @property
    def default_link(self) -> LinkConfig:
        """The configuration of every link :meth:`set_link` has not overridden."""
        return self._default_link

    @default_link.setter
    def default_link(self, config: LinkConfig) -> None:
        self._default_link = config
        for key, link in self._links.items():
            if key not in self._configured:
                link.config = config

    def set_link(self, source: str, destination: str, config: LinkConfig) -> None:
        """Override the link characteristics for one directed pair."""
        key = (source, destination)
        self._configured[key] = config
        link = self._links.get(key)
        if link is not None:
            link.config = config

    def set_symmetric_link(self, node_a: str, node_b: str, config: LinkConfig) -> None:
        self.set_link(node_a, node_b, config)
        self.set_link(node_b, node_a, config)

    def link_config(self, source: str, destination: str) -> LinkConfig:
        return self._configured.get((source, destination), self._default_link)

    def set_service_pool(self, node_id: str, pool: Optional[ServicePool]) -> None:
        """Bound ``node_id``'s serving capacity with ``pool`` (None removes it).

        With a pool installed, every message delivered to the node must be
        admitted: it waits for one of the pool's workers, holds it for the
        pool's service time, and is refused with
        :class:`~repro.api.errors.AdmissionError` when the pool is saturated.
        Nodes without a pool keep the idealised unbounded-concurrency model.
        """
        if pool is None:
            self._pools.pop(node_id, None)
        else:
            self._pools[node_id] = pool

    def _link(self, source: str, destination: str) -> _Link:
        """The record of the ``source -> destination`` link, created on first use."""
        key = (source, destination)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Link(
                self.link_config(source, destination), self.metrics.counters(source, destination)
            )
        return link

    # -- tracing ------------------------------------------------------------------

    def _trace_interval(
        self,
        trace: Optional[List[Tuple[str, str]]],
        name: str,
        kind: str,
        start: float,
        end: float,
        **attrs,
    ) -> None:
        """Record one closed span per traced call riding this message.

        A batch message can carry several traced calls; each gets its own
        copy of the interval, parented to its client span, so every trace
        stays self-contained.
        """
        tracer = self.tracer
        if tracer is None or not trace:
            return
        for trace_id, parent_id in trace:
            tracer.record_span(
                name,
                trace_id=trace_id,
                parent_id=parent_id,
                kind=kind,
                start=start,
                end=end,
                **attrs,
            )

    def _trace_event(
        self, trace: Optional[List[Tuple[str, str]]], name: str, **attrs
    ) -> None:
        """Attach a point event to every traced call riding this message."""
        tracer = self.tracer
        if tracer is None or not trace:
            return
        now = self.clock.now
        for trace_id, parent_id in trace:
            tracer.annotate(trace_id, parent_id, name, ts=now, **attrs)

    # -- message exchange -----------------------------------------------------------

    def _exchange(
        self,
        source: str,
        destination: str,
        payload: bytes,
        trace: Optional[List[Tuple[str, str]]],
    ) -> Generator[float, None, bytes]:
        """One request/response exchange, written once for both drivers.

        Straight-line code: it raises on failure, returns the response and
        *yields* the simulated timestamp it must wait for wherever time has
        to pass (request on the wire, pool queueing, the remainder of the
        pool's service time, response on the wire).  :meth:`send_request`
        drives it inline by advancing the clock; :meth:`post` drives it on
        :attr:`events`, so several exchanges interleave.  Nothing between two
        yields reads state that only one of the drivers maintains, which is
        what keeps the two paths behaviourally identical.

        The sender is modelled as detecting loss immediately (a negative-ack
        model; retry backoff supplies any recovery delay).
        """
        clock = self.clock
        if source == destination:
            # Same address space: no network is involved.  The single yield
            # lets the event-queue driver defer the handler like any other
            # completion, so local and remote completions interleave
            # deterministically.
            yield clock.now
            return self._require_handler(destination)(source, payload)

        self._check_reachability(source, destination)
        if self.failures.should_drop(source, destination):
            self._link(source, destination).metrics.record_drop()
            self._trace_event(trace, "request-dropped", link=f"{source}->{destination}")
            raise MessageDroppedError(
                f"message from {source!r} to {destination!r} was dropped"
            )
        yield self._transmit(source, destination, payload, "request-wire", trace)

        # Reachability was checked at send time; the destination can have
        # crashed while the message was in flight, and must not execute.
        handler = self._require_handler(destination)
        if self.failures.is_node_down(destination):
            raise NodeUnreachableError(f"node {destination!r} went down before delivery")
        pool = self._pools.get(destination)
        release_at = None
        if pool is not None:
            arrived_at = clock.now
            try:
                start = pool.admit(arrived_at)
            except AdmissionError:
                self._trace_event(trace, "admission-rejected", node=destination)
                raise
            queued = start > arrived_at
            if queued:
                self._trace_interval(
                    trace, "pool-queue", "server_queue", arrived_at, start, node=destination
                )
                yield start
            pool.begin_service(queued)
            # ... or while the request sat in the admission queue.
            handler = self._handlers.get(destination)
            if handler is None or self.failures.is_node_down(destination):
                raise NodeUnreachableError(f"node {destination!r} went down while queued")
            release_at = start + pool.service_time

        served_at = clock.now
        try:
            response = handler(source, payload)
        except Exception as error:
            self._trace_interval(
                trace, "service", "service", served_at, clock.now,
                node=destination, error=type(error).__name__,
            )
            raise
        if self.failures.should_drop(destination, source):
            self._link(destination, source).metrics.record_drop()
            self._trace_interval(
                trace, "service", "service", served_at, clock.now, node=destination
            )
            self._trace_event(trace, "response-dropped", link=f"{destination}->{source}")
            raise MessageDroppedError(
                f"response from {destination!r} to {source!r} was dropped"
            )
        if release_at is not None and release_at > clock.now:
            # The worker holds the request until its service time has
            # elapsed; only then does the response hit the wire.
            yield release_at
        if trace:
            self._trace_interval(
                trace, "service", "service", served_at, clock.now, node=destination
            )
        yield self._transmit(destination, source, response, "response-wire", trace)
        return response

    def _transmit(
        self,
        source: str,
        destination: str,
        message: bytes,
        span_name: str,
        trace: Optional[List[Tuple[str, str]]],
    ) -> float:
        """Put one message on the ``source -> destination`` wire — now.

        Claims the link, counts the traffic, records the wire span and
        returns the simulated time the message arrives: after waiting for
        earlier transmissions to clear the link (FIFO), its own transmission
        time and propagation.  On zero-transmission links the wait is always
        zero and the delay is :meth:`LinkConfig.one_way_delay`.
        """
        link = self._links.get((source, destination)) or self._link(source, destination)
        config = link.config
        sent_at = self.clock.now
        size = len(message)
        propagation = config.propagation_delay(self._rng)
        transmission = config.transmission_time(size)
        if transmission <= 0.0:
            delay = transmission + propagation
            link.metrics.record(size, delay)
        else:
            busy_until = link.busy_until
            start = busy_until if busy_until > sent_at else sent_at
            queue_delay = start - sent_at
            link.busy_until = start + transmission
            # Backlog depth = earlier messages whose transmission has not
            # started yet; starts are monotone per link so expired entries
            # pop in order.
            backlog = link.backlog
            while backlog and backlog[0] <= sent_at:
                backlog.popleft()
            delay = queue_delay + transmission + propagation
            link.metrics.record(size, delay, queue_delay, len(backlog))
            if queue_delay > 0.0:
                backlog.append(start)
        if trace:  # checked here too: untraced traffic skips building the attrs
            self._trace_interval(
                trace, span_name, "wire", sent_at, sent_at + delay,
                link=f"{source}->{destination}", bytes=size,
            )
        return sent_at + delay

    def send_request(
        self,
        source: str,
        destination: str,
        payload: bytes,
        *,
        trace: Optional[List[Tuple[str, str]]] = None,
    ) -> bytes:
        """Synchronously deliver ``payload`` and return the handler's response.

        Drives one :meth:`_exchange` inline: wherever the exchange has to
        wait, the caller's clock advances (the handler's own nested sends
        advance it further).  Failures raise subclasses of
        :class:`~repro.api.errors.NetworkError`; a saturated destination pool
        raises :class:`~repro.api.errors.AdmissionError`.
        """
        exchange = self._exchange(source, destination, payload, trace)
        advance_to = self.clock.advance_to
        try:
            while True:
                advance_to(next(exchange))
        except StopIteration as done:
            return done.value

    def post(
        self,
        source: str,
        destination: str,
        payload: bytes,
        on_response: ResponseCallback,
        on_error: ErrorCallback,
        *,
        trace: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        """Asynchronously deliver ``payload``; the outcome arrives via callback.

        Drives one :meth:`_exchange` on :attr:`events` and returns
        immediately: every wait becomes an event, so messages posted before
        the queue is pumped are in flight *concurrently* — their link delays
        overlap in simulated time, and N posted round trips cost roughly
        ``max`` rather than ``sum`` of their delays.  The clock is never
        advanced here; other workers and links keep operating meanwhile.

        The same failures :meth:`send_request` raises reach ``on_error``
        instead, always from the event queue (even ones detected at post
        time), so completion order stays deterministic.
        """
        exchange = self._exchange(source, destination, payload, trace)
        # The first leg runs now, so links are reserved in post order.
        try:
            wake = next(exchange)
        except Exception as error:  # noqa: BLE001 - routed to callback
            # Bind to a fresh name: `error` itself is unbound when the
            # except block exits, before the scheduled lambda runs.
            failure = error
            self.events.schedule(0.0, lambda: on_error(failure))
        else:
            self.events.schedule_at(
                wake, lambda: self._resume(exchange, on_response, on_error)
            )

    def _resume(
        self,
        exchange: Generator[float, None, bytes],
        on_response: ResponseCallback,
        on_error: ErrorCallback,
    ) -> None:
        """Run a posted exchange up to its next wait, or to its outcome.

        A method rather than a closure of :meth:`post` that reschedules
        itself: a self-referencing closure is a reference cycle, and every
        finished exchange (payloads, callbacks, futures) would then linger
        until the cyclic collector runs.
        """
        try:
            wake = next(exchange)
        except StopIteration as done:
            on_response(done.value)
        except Exception as error:  # noqa: BLE001 - routed to callback
            on_error(error)
        else:
            self.events.schedule_at(
                wake, lambda: self._resume(exchange, on_response, on_error)
            )

    # -- helpers -----------------------------------------------------------------------

    def _require_handler(self, node_id: str) -> MessageHandler:
        handler = self._handlers.get(node_id)
        if handler is None:
            raise NodeUnreachableError(f"node {node_id!r} is not registered on the network")
        return handler

    def _check_reachability(self, source: str, destination: str) -> None:
        if destination not in self._handlers:
            raise NodeUnreachableError(
                f"node {destination!r} is not registered on the network"
            )
        if self.failures.is_node_down(source) or self.failures.is_node_down(destination):
            raise NodeUnreachableError(
                f"node {source!r} or {destination!r} is down"
            )
        if self.failures.is_partitioned(source, destination):
            raise PartitionError(
                f"nodes {source!r} and {destination!r} are partitioned"
            )

    def reset_metrics(self) -> None:
        """Count traffic from zero again; when each wire is free is kept."""
        self.metrics.reset()
