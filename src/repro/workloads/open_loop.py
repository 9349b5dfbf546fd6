"""Open-loop load generation against the façade: the saturation workload.

Every other workload in this package is *closed-loop*: a fixed population of
callers issues a request, waits for the response, then issues the next one —
so when the system slows down, the offered load politely slows down with it
and saturation can never be observed.  Real users are not so polite.  This
module drives the :mod:`repro.api` façade *open-loop*: requests arrive as a
Poisson process at a configured offered load (requests per simulated
second), regardless of how many are still outstanding — exactly the
methodology load-testing harnesses use to expose the difference between an
idle-network speedup and behaviour under contention.

The generator models a large population (``clients`` simulated users,
multiplexed over one shared :class:`~repro.api.session.Session`) whose
arrivals follow ``rng.expovariate`` inter-arrival gaps, whose key choices
follow a Zipf distribution (a few hot objects take most traffic), and whose
rate can follow a diurnal ramp (a sinusoidal swell within the run).  The
target node is bounded by a :class:`~repro.network.simnet.ServicePool`, so
offered load above ``workers / service_time`` queues, then sheds with
:class:`~repro.api.errors.AdmissionError`; rejected calls retry with backoff via
the façade's retry policy and each request's latency lands in a
:class:`~repro.network.metrics.LatencyHistogram` (p50/p99/p999).

Sweeping the offered load across a capacity range yields the
goodput-vs-offered-load curve — linear below capacity, a plateau above it —
whose :func:`detect_knee` point is the saturation knee reported by
``benchmarks/bench_load.py``.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Optional, Sequence

from repro.api import ServicePolicy, Session
from repro.api.errors import AdmissionError
from repro.network.metrics import LatencyHistogram
from repro.network.simnet import ServicePool
from repro.runtime.faulttolerance import RetryPolicy

#: Monotonic run counter keeping deployed service names unique per process.
_RUN_SEQ = itertools.count()

#: A pipeline window so large the client never self-throttles: the stream
#: pipe's in-flight cap must not bind, or the generator would degrade into a
#: closed loop and hide the very saturation it exists to measure.
OPEN_LOOP_WINDOW = 1_000_000


class KeyValueCatalog:
    """The served object: a keyed catalog that counts its executions.

    The ``lookups`` counter increments once per *served* request, so tests
    can pin exactly-once semantics under admission-rejection retries: a
    request refused by the pool never executed, a retried-then-admitted
    request executed exactly once, and ``lookups`` equals the number of
    completed calls.
    """

    def __init__(self, keys: int = 32) -> None:
        if keys < 1:
            raise ValueError("the catalog needs at least one key")
        self._values = {f"key-{index}": index for index in range(keys)}
        self.lookups = 0

    def lookup(self, key: str) -> int:
        """Return the value stored under ``key`` (``-1`` when absent)."""
        self.lookups += 1
        return self._values.get(key, -1)

    def key_names(self) -> List[str]:
        """The catalog's keys in rank order (rank 0 is the hottest)."""
        return sorted(self._values)


def zipf_weights(count: int, exponent: float) -> List[float]:
    """Unnormalised Zipf weights: rank ``i`` (0-based) gets ``1/(i+1)**s``.

    ``exponent=0`` degenerates to a uniform distribution; larger exponents
    concentrate traffic on the first few ranks (the classic hot-object skew).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if exponent < 0.0:
        raise ValueError("exponent must be non-negative")
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def run_open_loop_scenario(
    cluster,
    *,
    transport: str = "rmi",
    offered_load: float = 500.0,
    duration: float = 1.0,
    keys: int = 32,
    zipf_exponent: float = 1.1,
    clients: int = 1_000_000,
    seed: int = 7,
    workers: int = 2,
    queue_limit: int = 16,
    service_time: float = 0.002,
    diurnal_amplitude: float = 0.0,
    retry_policy: Optional[RetryPolicy] = None,
    client: str = "client",
    server: str = "server",
    catalog: Optional[KeyValueCatalog] = None,
    tracing: Optional[float] = None,
) -> dict:
    """Offer Poisson traffic at ``offered_load`` req/s for ``duration`` sim-seconds.

    A :class:`KeyValueCatalog` is deployed on ``server`` behind a
    :class:`~repro.network.simnet.ServicePool` (``workers`` parallel servers,
    an admission queue of ``queue_limit``, ``service_time`` seconds per
    request — sustainable capacity ``workers / service_time`` req/s).  A
    population of ``clients`` simulated users, multiplexed over one shared
    session, issues ``lookup`` calls whose keys follow a Zipf distribution
    with ``zipf_exponent`` and whose arrival rate optionally swells by
    ``diurnal_amplitude`` (a full sine period across the run).  Arrivals are
    *open-loop*: they never wait for outstanding requests.

    ``retry_policy`` (default: 4 attempts backing off from one service time)
    governs how rejected requests are retried; pass
    :data:`~repro.runtime.faulttolerance.NO_RETRY` to shed instead.

    ``tracing`` (a sample rate in ``[0, 1]``) turns on end-to-end tracing
    for the run; the populated
    :class:`~repro.observability.tracing.TraceCollector` is then returned
    under ``trace_collector`` for critical-path analysis.

    Returns plain-data load figures — arrivals, completions, rejections,
    goodput, p50/p99/p999 latency, pool and link queueing — plus the
    populated ``histogram`` object.
    """

    if offered_load <= 0.0:
        raise ValueError("offered_load must be positive")
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if clients < 1:
        raise ValueError("the scenario needs at least one simulated client")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError("diurnal_amplitude must be in [0, 1)")
    if catalog is None:
        catalog = KeyValueCatalog(keys)
    if retry_policy is None:
        backoff = service_time if service_time > 0.0 else 0.001
        retry_policy = RetryPolicy(max_attempts=4, initial_backoff=backoff)

    pool = cluster.set_service_pool(
        server, workers=workers, queue_limit=queue_limit, service_time=service_time
    )
    network = cluster.network
    rng = random.Random(seed)
    key_names = catalog.key_names()
    cum_weights = list(itertools.accumulate(zipf_weights(len(key_names), zipf_exponent)))

    with Session(cluster, node=client) as session:
        policy = ServicePolicy(
            transport=transport,
            batch_window=1,
            pipeline_depth=OPEN_LOOP_WINDOW,
        ).with_retry(retry_policy)
        trace_collector = None
        if tracing is not None:
            policy = policy.with_tracing(tracing)
            trace_collector = session.tracer().collector
        service = session.service(
            f"open-loop-{next(_RUN_SEQ)}", policy, impl=catalog, node=server
        )

        start_time = cluster.clock.now
        futures: list = []
        client_ids: set = set()

        def arrive(elapsed: float) -> None:
            key = rng.choices(key_names, cum_weights=cum_weights, k=1)[0]
            client_ids.add(rng.randrange(clients))
            futures.append(service.future.lookup(key))
            schedule_next(elapsed)

        def schedule_next(elapsed: float) -> None:
            rate = offered_load
            if diurnal_amplitude > 0.0:
                rate *= 1.0 + diurnal_amplitude * math.sin(
                    2.0 * math.pi * elapsed / duration
                )
            gap = rng.expovariate(max(rate, 1e-9))
            upcoming = elapsed + gap
            if upcoming >= duration:
                return
            network.events.schedule_at(
                start_time + upcoming, lambda: arrive(upcoming)
            )

        schedule_next(0.0)
        network.events.run_until_idle()
        session.drain()

        histogram = LatencyHistogram()
        completed = rejected = failed = 0
        last_completion = start_time
        for future in futures:
            if future.ok:
                completed += 1
                histogram.record(future.completed_at - future.submitted_at)
                if future.completed_at > last_completion:
                    last_completion = future.completed_at
            elif isinstance(future.exception(), AdmissionError):
                rejected += 1
            else:
                failed += 1
        retried = service.scheduler.calls_retried

    elapsed = max(duration, last_completion - start_time)
    arrivals = len(futures)
    return {
        "transport": transport,
        "offered_load": offered_load,
        "measured_offered": arrivals / duration,
        "duration": duration,
        "elapsed": elapsed,
        "arrivals": arrivals,
        "completed": completed,
        "rejected": rejected,
        "failed": failed,
        "calls_retried": retried,
        "goodput": completed / elapsed if elapsed > 0 else 0.0,
        "capacity": pool.capacity,
        "workers": workers,
        "queue_limit": queue_limit,
        "service_time": service_time,
        "distinct_clients": len(client_ids),
        "server_executions": catalog.lookups,
        "latency": histogram.summary(),
        "pool": pool.snapshot(),
        "link_queue_delay": network.metrics.total_queue_delay,
        "max_link_queue_depth": network.metrics.max_queue_depth,
        "histogram": histogram,
        "trace_collector": trace_collector,
    }


def detect_knee(points: Sequence[dict], efficiency: float = 0.95) -> Optional[dict]:
    """Find the saturation knee in a goodput-vs-offered-load curve.

    ``points`` are :func:`run_open_loop_scenario` results (or any dicts with
    ``offered_load``, ``measured_offered`` and ``goodput``).  The knee is the
    first point, in increasing offered load, whose goodput falls below
    ``efficiency`` of its measured offered load — the spot where the system
    stops keeping up.  Returns ``None`` while every point keeps up (the
    curve never bends within the swept range).
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    for point in sorted(points, key=lambda p: p["offered_load"]):
        offered = point.get("measured_offered", point["offered_load"])
        if offered <= 0.0:
            continue
        if point["goodput"] < efficiency * offered:
            return {
                "offered_load": point["offered_load"],
                "measured_offered": offered,
                "goodput": point["goodput"],
                "efficiency": point["goodput"] / offered,
            }
    return None
