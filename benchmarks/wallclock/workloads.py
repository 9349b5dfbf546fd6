"""The seven workloads of the wall-clock ledger.

Each :class:`Workload` has two halves.  ``inputs(seed, scale)`` is the
harness's side: it draws every key, value and order from ``random.Random(seed)``
and is never timed.  ``deploy(inputs)`` is the set-up a user pays before the
first call (transform, cluster, session, deploy) and returns a
:class:`Repetition`; ``Repetition.run()`` issues the operations, checks every
result against an oracle computed locally from the same inputs, and returns an
:class:`Outcome`.

The program under test receives only the generated inputs.  Input *sizes*
(key and SKU lengths, order contents) depend on the seed, so the
simulated-clock numbers differ between seeds and are exact for one seed.

Operation counts are the constants below — the same on every commit.
``scale`` only exists for the 1/10 warm-up and the 1/20 smoke test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import (
    CachePolicy,
    DeadlineInterceptor,
    MetricsInterceptor,
    ServicePolicy,
    Session,
)
from repro.core.transformer import ApplicationTransformer
from repro.observability import critical_path
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController
from repro.workloads.bulk_orders import OrderIntake
from repro.workloads.cached_catalog import CatalogShard
from repro.workloads.figure1 import A, B, C, run_figure1_plain
from repro.workloads.open_loop import (
    KeyValueCatalog,
    run_open_loop_scenario,
    zipf_weights,
)

TRANSPORT = "rmi"

#: ``(class, attribute, layer)`` — callables the span recorder brackets in
#: the traced child only (served objects, generated handles).
Entrypoint = Tuple[type, str, str]


@dataclass
class Outcome:
    """What one repetition did, on the simulated clock and in counts."""

    attempted: int
    #: Futures not ok + calls refused + results that differ from the oracle.
    failed: int
    sim_seconds: float
    wire_bytes: int
    messages: int
    #: Counts read from the program's public counters at the layer boundaries.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Open-loop latency figures (``open_loop_0.9x`` only).
    open_loop: Dict[str, float] = field(default_factory=dict)
    #: Mean simulated critical-path phases in µs (traced policies only).
    phases_us: Dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


@dataclass
class Repetition:
    """One deployed run of a workload on a fresh cluster."""

    run: Callable[[], Outcome]
    #: Callables the span recorder brackets in the traced child.
    entrypoints: List[Entrypoint] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, float], dict]
    deploy: Callable[[dict], Repetition]


def _scaled(count: int, scale: float, multiple: int = 1) -> int:
    """``count * scale`` rounded down to a positive multiple of ``multiple``."""
    return max(multiple, int(count * scale) // multiple * multiple)


def _name(rng: random.Random, prefix: str) -> str:
    """A name whose length depends on the seed (so wire bytes do too)."""
    length = rng.randint(3, 12)
    return prefix + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(length))


def _network_totals(cluster: Cluster) -> Tuple[float, int, int]:
    return cluster.clock.now, cluster.metrics.total_bytes, cluster.metrics.total_messages


def _outcome(
    cluster: Cluster,
    before: Tuple[float, int, int],
    attempted: int,
    failed: int,
    counters: Optional[Dict[str, float]] = None,
    **extra,
) -> Outcome:
    now, total_bytes, messages = _network_totals(cluster)
    return Outcome(
        attempted=attempted,
        failed=failed,
        sim_seconds=now - before[0],
        wire_bytes=total_bytes - before[1],
        messages=messages - before[2],
        counters={
            "events_fired": cluster.network.events.events_fired,
            "link_queue_sim_s": cluster.metrics.total_queue_delay,
            **(counters or {}),
        },
        **extra,
    )


def _batch_fill(space, window: int) -> float:
    """Calls per shipped message over the window, as the issuing space saw it."""
    if space.batches_sent:
        return space.invocations_sent / space.batches_sent / window
    return 1.0 if space.invocations_sent else 0.0


def _mean_phases_us(collector) -> Dict[str, float]:
    """Mean simulated critical-path phases over every settled trace root."""
    totals: Dict[str, int] = {}
    roots = 0
    for trace_id in collector.trace_ids():
        root = collector.root(trace_id)
        if root is None or root.end is None:
            continue
        roots += 1
        path = critical_path(collector.spans(trace_id), root)
        for phase, nanos in path.phases_ns.items():
            totals[phase] = totals.get(phase, 0) + nanos
    return {phase: nanos / roots / 1000.0 for phase, nanos in totals.items()} if roots else {}


# ---------------------------------------------------------------------------
# figure1_boundary
# ---------------------------------------------------------------------------

FIGURE1_K = 400


def _figure1_inputs(seed: int, scale: float) -> dict:
    rng = random.Random(seed)
    k = _scaled(FIGURE1_K, scale)
    # local, rmi, corba, soap, rmi on another node, local again
    bursts = (4 * k, k, k, k, k, 4 * k)
    values = [rng.randrange(1, 10 ** rng.randint(1, 6)) for _ in range(sum(bursts))]
    label = _name(rng, "shared-")
    # The oracle: the untransformed program's state after each burst.
    expected = []
    for position in itertools.accumulate(bursts):
        plain = run_figure1_plain(values[:position])
        expected.append((f"{label}:{plain.total}", plain.a_recorded, plain.b_recorded))
    return {"bursts": bursts, "values": values, "label": label, "expected": expected}


def _figure1_deploy(inputs: dict) -> Repetition:
    bursts, values, label = inputs["bursts"], inputs["values"], inputs["label"]
    expected = inputs["expected"]
    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([A, B, C])
    cluster = Cluster(("client", "server", "server2"))
    app.deploy(cluster, default_node="client")
    controller = DistributionController(app, cluster)
    shared = app.new("C", label)
    a = app.new("A", shared)
    b = app.new("B", shared)

    boundary_changes = (
        lambda: None,
        lambda: controller.make_remote(shared, "server", transport="rmi"),
        lambda: controller.set_transport(shared, "corba"),
        lambda: controller.set_transport(shared, "soap"),
        lambda: controller.move(shared, "server2", transport="rmi"),
        lambda: controller.make_local(shared),
    )

    def run() -> Outcome:
        before = _network_totals(cluster)
        attempted = failed = position = 0
        for change, burst, state in zip(boundary_changes, bursts, expected):
            change()
            for value in values[position : position + burst]:
                a.record(value)
                b.record(value)
            position += burst
            # One shared accumulator: a wrong answer cannot be pinned on one
            # call, so each boundary state is checked after its burst and
            # fails the burst as a whole.
            attempted += 2 * burst + 1
            if (a.summary(), a.get_recorded(), b.get_recorded()) != state:
                failed += 2 * burst + 1
        return _outcome(cluster, before, attempted, failed)

    return Repetition(run, [(type(a), "record", "core"), (type(a), "summary", "core"),
                            (type(b), "record", "core")])


# ---------------------------------------------------------------------------
# direct_small / stream_fanout: a keyed catalog, small messages
# ---------------------------------------------------------------------------


class Catalog:
    """Served object of the small-message workloads."""

    def __init__(self, table: Dict[str, int]) -> None:
        self._table = table

    def lookup(self, key: str) -> int:
        return self._table.get(key, -1)


def catalog_inputs(seed: int, lookups: int) -> dict:
    rng = random.Random(seed)
    table = {_name(rng, "item-"): rng.randrange(1_000_000) for _ in range(64)}
    names = sorted(table)
    weights = list(itertools.accumulate(zipf_weights(len(names), 1.1)))
    return {"table": table, "keys": rng.choices(names, cum_weights=weights, k=lookups)}


DIRECT_OPS = 8000


def _direct_small_inputs(seed: int, scale: float) -> dict:
    return catalog_inputs(seed, _scaled(DIRECT_OPS, scale))


def _direct_small_deploy(inputs: dict) -> Repetition:
    table, keys = inputs["table"], inputs["keys"]
    cluster = Cluster(("client", "server"))
    session = Session(cluster, node="client")
    service = session.service(
        "catalog", ServicePolicy(transport=TRANSPORT), impl=Catalog(dict(table)), node="server"
    )

    def run() -> Outcome:
        before = _network_totals(cluster)
        failed = 0
        with session:
            lookup = service.lookup
            for key in keys:
                if lookup(key) != table[key]:
                    failed += 1
            counters = {"batch_fill": _batch_fill(session.space, 1)}
        return _outcome(cluster, before, len(keys), failed, counters)

    return Repetition(run, [(Catalog, "lookup", "driver")])


STREAM_OPS = 16000
STREAM_WINDOW = 32
STREAM_DEPTH = 8
STREAM_SHARDS = 4


def _stream_fanout_inputs(seed: int, scale: float) -> dict:
    return catalog_inputs(seed, _scaled(STREAM_OPS, scale, STREAM_WINDOW * STREAM_SHARDS))


def _stream_fanout_deploy(inputs: dict) -> Repetition:
    table, keys = inputs["table"], inputs["keys"]
    servers = ("server-0", "server-1", "server-2")
    cluster = Cluster(("client", *servers))
    session = Session(cluster, node="client")
    policy = (
        ServicePolicy(transport=TRANSPORT)
        .with_batching(STREAM_WINDOW)
        .with_pipelining(STREAM_DEPTH)
    )
    shards = [
        session.service(
            f"catalog-{index}",
            policy,
            impl=Catalog(dict(table)),
            node=servers[index % len(servers)],
        )
        for index in range(STREAM_SHARDS)
    ]

    def run() -> Outcome:
        before = _network_totals(cluster)
        with session:
            submit = [shard.future.lookup for shard in shards]
            futures = [submit[index % STREAM_SHARDS](key) for index, key in enumerate(keys)]
            session.drain()
            failed = sum(
                1
                for key, future in zip(keys, futures)
                if not future.ok or future.result() != table[key]
            )
            scheduler = shards[0].scheduler
            counters = {
                "batch_fill": _batch_fill(session.space, STREAM_WINDOW),
                "depth_observed": scheduler.observed_pipeline_depth,
                "retries": scheduler.calls_retried,
            }
        return _outcome(cluster, before, len(keys), failed, counters)

    return Repetition(run, [(Catalog, "lookup", "driver")])


# ---------------------------------------------------------------------------
# batch_payload: ~4 KB nested orders
# ---------------------------------------------------------------------------

PAYLOAD_OPS = 640
PAYLOAD_WINDOW = 32
PAYLOAD_LINES = 16


def _receipt(sequence: int, order: dict) -> dict:
    """What the desk must answer for its ``sequence``-th order (also the oracle)."""
    lines = order["lines"]
    return {
        "id": sequence,
        "customer": order["customer"],
        "lines": len(lines),
        "units": sum(line["quantity"] for line in lines),
        "total": sum(line["quantity"] * line["unit_price"] for line in lines),
        "skus": [line["sku"] for line in lines],
    }


class OrderDesk:
    """Served object of ``batch_payload``: answers each order with a receipt."""

    def __init__(self) -> None:
        self.accepted = 0

    def submit(self, order: dict) -> dict:
        receipt = _receipt(self.accepted, order)
        self.accepted = self.accepted + 1
        return receipt


def make_order(rng: random.Random) -> dict:
    """One nested order: strings, ints, floats, bools, None, lists, maps."""
    return {
        "customer": _name(rng, "customer-"),
        "priority": rng.random() < 0.2,
        "notes": None,
        "lines": [
            {
                "sku": _name(rng, "sku-"),
                "description": _name(rng, "") * 2,
                "quantity": rng.randint(1, 9),
                "unit_price": rng.randint(1, 500) / 4.0,
                "tags": [_name(rng, "") for _ in range(2)],
                "warehouse": rng.randrange(16),
            }
            for _ in range(PAYLOAD_LINES)
        ],
    }


def _batch_payload_inputs(seed: int, scale: float) -> dict:
    rng = random.Random(seed)
    count = _scaled(PAYLOAD_OPS, scale, PAYLOAD_WINDOW)
    orders = [make_order(rng) for _ in range(count)]
    receipts = [_receipt(sequence, order) for sequence, order in enumerate(orders)]
    return {"orders": orders, "receipts": receipts}


def _batch_payload_deploy(inputs: dict) -> Repetition:
    orders, receipts = inputs["orders"], inputs["receipts"]
    cluster = Cluster(("client", "server"))
    session = Session(cluster, node="client")
    service = session.service(
        "desk",
        ServicePolicy(transport=TRANSPORT).with_batching(PAYLOAD_WINDOW),
        impl=OrderDesk(),
        node="server",
    )

    def run() -> Outcome:
        before = _network_totals(cluster)
        with session:
            submit = service.future.submit
            futures = [submit(order) for order in orders]
            service.flush()
            failed = sum(
                1
                for receipt, future in zip(receipts, futures)
                if not future.ok or future.result() != receipt
            )
            counters = {"batch_fill": _batch_fill(session.space, PAYLOAD_WINDOW)}
        return _outcome(cluster, before, len(orders), failed, counters)

    return Repetition(run, [(OrderDesk, "submit", "driver")])


# ---------------------------------------------------------------------------
# open_loop_0.9x
# ---------------------------------------------------------------------------

OPEN_LOOP_RATE = 900.0
OPEN_LOOP_SECONDS = 5.0
#: Capacity 1000 req/s.  The queue is deep enough that nothing is refused once
#: retried: the benchmark contract asks for workloads on which no operation fails.
OPEN_LOOP_POOL = {"workers": 2, "service_time": 0.002, "queue_limit": 64}
#: The fixed ladder of ``sim.open_loop.max_rate_rps`` and its latency limit.
LADDER_RATES = (500.0, 600.0, 700.0, 800.0, 900.0, 1000.0)
LADDER_SECONDS = 2.0
LADDER_P99_LIMIT = 0.015


def _run_open_loop(cluster: Cluster, seed: int, rate: float, duration: float, tracing=None):
    return run_open_loop_scenario(
        cluster,
        transport=TRANSPORT,
        offered_load=rate,
        duration=duration,
        seed=seed,
        catalog=KeyValueCatalog(32),
        tracing=tracing,
        **OPEN_LOOP_POOL,
    )


def _open_loop_inputs(seed: int, scale: float) -> dict:
    # The scenario draws its own Poisson arrivals and Zipf keys from the seed.
    return {"seed": seed, "duration": OPEN_LOOP_SECONDS * scale, "tracing": None}


def _open_loop_deploy(inputs: dict) -> Repetition:
    # The scenario opens its session and deploys inside the timed call.
    cluster = Cluster(("client", "server"))

    def run() -> Outcome:
        before = _network_totals(cluster)
        result = _run_open_loop(
            cluster, inputs["seed"], OPEN_LOOP_RATE, inputs["duration"], inputs["tracing"]
        )
        arrivals = result["arrivals"]
        accounted = result["completed"] + result["rejected"] + result["failed"]
        failed = result["rejected"] + result["failed"]
        if accounted != arrivals or result["server_executions"] != result["completed"]:
            failed = arrivals  # requests lost or executed twice: trust nothing
        latency = result["latency"]
        pool = result["pool"]
        collector = result["trace_collector"]
        return _outcome(
            cluster,
            before,
            arrivals,
            failed,
            {
                "batch_fill": 1.0,
                "retries": result["calls_retried"],
                "pool_wait_sim_s": pool["total_queue_delay"] / max(1, pool["admitted"]),
                "pool_rejected": pool["rejected"],
                "spans": len(collector) if collector is not None else 0,
            },
            open_loop={
                "p50_ms": latency["p50"] * 1000.0,
                "p99_ms": latency["p99"] * 1000.0,
                "goodput_rps": result["goodput"],
            },
            phases_us=_mean_phases_us(collector) if collector is not None else {},
        )

    return Repetition(run, [(KeyValueCatalog, "lookup", "driver")])


def open_loop_max_rate(seed: int) -> float:
    """Highest ladder rate with p99 within the limit and nothing refused."""
    best = 0.0
    for rate in LADDER_RATES:
        result = _run_open_loop(Cluster(("client", "server")), seed, rate, LADDER_SECONDS)
        refused = result["rejected"] + result["failed"]
        if result["latency"]["p99"] <= LADDER_P99_LIMIT and refused == 0:
            best = rate
    return best


# ---------------------------------------------------------------------------
# cached_mixed: 10 % batched writes by a second session, 90 % cached reads
# ---------------------------------------------------------------------------

CACHED_ROUNDS = 400
CACHED_WRITES = 4
CACHED_HOT_READS = 32
CACHED_HOT_KEYS = 8
CACHED_SHARDS = 4


def _cached_mixed_inputs(seed: int, scale: float) -> dict:
    rng = random.Random(seed)
    rounds = _scaled(CACHED_ROUNDS, scale)
    hot_keys = [_name(rng, "hot-") for _ in range(CACHED_HOT_KEYS)]
    return {
        "rounds": rounds,
        "feed_keys": [_name(rng, "feed-") for _ in range(4 * CACHED_WRITES)],
        "hot_keys": hot_keys,
        "hot_values": {key: rng.randrange(1_000_000) for key in hot_keys},
        "write_values": [_name(rng, "v") for _ in range(rounds * CACHED_WRITES)],
        "hot_order": [
            rng.randrange(CACHED_HOT_KEYS) for _ in range(rounds * CACHED_HOT_READS)
        ],
    }


def _cached_mixed_deploy(inputs: dict) -> Repetition:
    rounds, feed_keys, hot_keys = inputs["rounds"], inputs["feed_keys"], inputs["hot_keys"]
    hot_values, write_values = inputs["hot_values"], inputs["write_values"]
    hot_order = inputs["hot_order"]

    servers = ("server-0", "server-1")
    cluster = Cluster(("client", "writer", *servers))
    window = max(CACHED_WRITES, 2)
    reader_policy = ServicePolicy(transport=TRANSPORT, batch_window=window).with_caching(
        CachePolicy(max_entries=256, lease_ms=250.0, mode="leases")
    )
    writer_policy = ServicePolicy(transport=TRANSPORT, batch_window=window)
    reader_session = Session(cluster, node="client")
    writer_session = Session(cluster, node="writer")
    hot_shards = CACHED_SHARDS - 1
    readers = []
    for index in range(CACHED_SHARDS):
        shard = CatalogShard()
        if index < hot_shards:
            shard.items = {
                key: hot_values[key]
                for slot, key in enumerate(hot_keys)
                if slot % hot_shards == index
            }
        readers.append(
            reader_session.service(
                f"shard-{index}", reader_policy, impl=shard, node=servers[index % len(servers)]
            )
        )
    feed_reader = readers[-1]
    feed_writer = writer_session.service(f"shard-{CACHED_SHARDS - 1}", writer_policy)

    def run() -> Outcome:
        before = _network_totals(cluster)
        committed: Dict[str, object] = dict(hot_values)
        wrong = reads = writes = 0
        with reader_session, writer_session:
            for round_index in range(rounds):
                written = []
                for write_index in range(CACHED_WRITES):
                    sequence = round_index * CACHED_WRITES + write_index
                    key = feed_keys[sequence % len(feed_keys)]
                    value = write_values[sequence]
                    written.append((key, value, feed_writer.future.put_item(key, value)))
                feed_writer.flush()
                for key, value, future in written:
                    if not future.ok:
                        wrong += 1
                    committed[key] = value
                    writes += 1
                # Every written key must come back fresh (a window of misses).
                refills = [(key, feed_reader.future.get_item(key)) for key, _, _ in written]
                feed_reader.flush()
                for key, future in refills:
                    reads += 1
                    if not future.ok or future.result() != committed[key]:
                        wrong += 1
                base = round_index * CACHED_HOT_READS
                for slot in hot_order[base : base + CACHED_HOT_READS]:
                    key = hot_keys[slot]
                    reads += 1
                    if readers[slot % hot_shards].get_item(key) != committed[key]:
                        wrong += 1
            caches = [service.cache for service in readers]
            counters = {
                "batch_fill": _batch_fill(reader_session.space, window),
                "cache_hits": sum(cache.hits for cache in caches),
                "cache_misses": sum(cache.misses for cache in caches),
                "cache_subscriptions": reader_session.cache_manager.subscriptions_sent,
                "cache_invalidations": sum(
                    cluster.space(node).invalidations_sent
                    + cluster.space(node).invalidations_piggybacked
                    for node in servers
                ),
                "writes": writes,
            }
        return _outcome(cluster, before, reads + writes, wrong, counters)

    return Repetition(
        run, [(CatalogShard, "get_item", "driver"), (CatalogShard, "put_item", "driver")]
    )


# ---------------------------------------------------------------------------
# fullstack_writes: every optional layer on at once
# ---------------------------------------------------------------------------

FULLSTACK_OPS = 1536
FULLSTACK_WINDOW = 16
FULLSTACK_DEPTH = 4


def _fullstack_inputs(seed: int, scale: float) -> dict:
    rng = random.Random(seed)
    skus = [_name(rng, "sku-") for _ in range(16)]
    count = _scaled(FULLSTACK_OPS, scale, FULLSTACK_WINDOW)
    return {
        "orders": [
            (rng.choice(skus), rng.randint(1, 3), rng.randint(10, 16)) for _ in range(count)
        ]
    }


def _fullstack_deploy(inputs: dict) -> Repetition:
    orders = inputs["orders"]
    cluster = Cluster(("client", "server-0", "server-1", "server-2"))
    session = Session(cluster, node="client")
    policy = (
        ServicePolicy(transport=TRANSPORT)
        .with_batching(FULLSTACK_WINDOW)
        .with_pipelining(FULLSTACK_DEPTH)
        .with_replication(3, quorum="majority")
        .with_middleware(
            DeadlineInterceptor(5.0), MetricsInterceptor(), server=[MetricsInterceptor()]
        )
        .with_tenant("ledger")
        .with_tracing(1.0)
    )
    intake = OrderIntake()
    service = session.service(
        "orders", policy, impl=intake, node="server-0", backup_nodes=["server-1", "server-2"]
    )
    tracer = session.tracer()

    def run() -> Outcome:
        before = _network_totals(cluster)
        with session:
            submit = service.future.submit
            futures = [submit(*order) for order in orders]
            service.drain()
            # One stream into one primary: ids are contiguous in submit order.
            failed = sum(
                1
                for expected, future in enumerate(futures)
                if not future.ok or future.result() != expected
            )
            if intake.accepted_count() != len(orders):
                failed = len(orders)
            counters = {
                "batch_fill": _batch_fill(session.space, FULLSTACK_WINDOW),
                "depth_observed": service.scheduler.observed_pipeline_depth,
                "retries": service.scheduler.calls_retried,
                "replication_forwards": service.group.forward_messages,
                "writes": len(orders),
                "spans": tracer.spans_started,
            }
            phases = _mean_phases_us(tracer.collector)
        return _outcome(cluster, before, len(orders), failed, counters, phases_us=phases)

    return Repetition(run, [(OrderIntake, "submit", "driver")])


WORKLOADS: Dict[str, Workload] = {
    "figure1_boundary": Workload(_figure1_inputs, _figure1_deploy),
    "direct_small": Workload(_direct_small_inputs, _direct_small_deploy),
    "batch_payload": Workload(_batch_payload_inputs, _batch_payload_deploy),
    "stream_fanout": Workload(_stream_fanout_inputs, _stream_fanout_deploy),
    "open_loop_0.9x": Workload(_open_loop_inputs, _open_loop_deploy),
    "cached_mixed": Workload(_cached_mixed_inputs, _cached_mixed_deploy),
    "fullstack_writes": Workload(_fullstack_inputs, _fullstack_deploy),
}


def make_inputs(name: str, seed: int, scale: float = 1.0, traced: bool = False) -> dict:
    """Generate ``name``'s inputs; the traced child also turns program tracing on
    for the open-loop scenario (the only workload whose policy does not say)."""
    inputs = WORKLOADS[name].inputs(seed, scale)
    if traced and "tracing" in inputs:
        inputs["tracing"] = 1.0
    return inputs
