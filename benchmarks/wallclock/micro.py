"""Micro pass: fixed-input cost of one call into each layer, in ns (or as named).

Inputs are captured from the workloads themselves — a few calls of
``direct_small``'s lookup and ``batch_payload``'s order run through a cluster
whose network and RMI transport record what crosses them — so the encoders
and the dispatcher are timed on the exact dictionaries and frames the
end-to-end runs produce.  Each loop is sized ``timeit``-style until one pass
lasts ``min_seconds``, repeated ``REPEATS`` times; the median is reported.

These numbers explain the per-layer self times; they are never used to
rescale an end-to-end number (``host.calib_ns`` is for reading one machine's
ledger next to another's).
"""

from __future__ import annotations

import itertools
import random
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import workloads

from repro.api import CachePolicy, Interceptor, InterceptorChain, ServicePolicy, Session
from repro.api.middleware import CallContext
from repro.core.transformer import ApplicationTransformer
from repro.network.clock import EventQueue, SimClock
from repro.network.simnet import ServicePool, SimulatedNetwork
from repro.observability.tracing import Tracer
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster, default_transport_registry
from repro.runtime.redistribution import DistributionController
from repro.transports.base import TransportRegistry, frame_message, parse_frame
from repro.transports.rmi import RmiTransport
from repro.workloads.cached_catalog import CatalogShard
from repro.workloads.figure1 import A, B, C

REPEATS = 5
SPANS_PER_TRACER = 64
CALIB_STEPS = 1000


def seconds_per_call(function: Callable[[], object], min_seconds: float) -> float:
    """Median over ``REPEATS`` passes of a loop sized to last ``min_seconds``."""

    def one_pass(number: int) -> float:
        started = perf_counter()
        for _ in itertools.repeat(None, number):
            function()
        return perf_counter() - started

    number = 1
    elapsed = one_pass(number)
    while elapsed < min_seconds:
        number = max(number * 2, int(number * min_seconds / max(elapsed, 1e-7) * 1.1))
        elapsed = one_pass(number)
    passes = [elapsed] + [one_pass(number) for _ in range(REPEATS - 1)]
    return median(passes) / number


class _RecordingNetwork(SimulatedNetwork):
    """Keeps the node handlers and the framed requests that cross it."""

    def __init__(self) -> None:
        super().__init__()
        self.handlers: Dict[str, Callable] = {}
        self.requests: List[bytes] = []

    def register(self, node_id, handler) -> None:
        self.handlers[node_id] = handler
        super().register(node_id, handler)

    def send_request(self, source, destination, payload, **kwargs):
        self.requests.append(payload)
        return super().send_request(source, destination, payload, **kwargs)


class _RecordingRmi(RmiTransport):
    """Keeps the dictionaries handed to the encoders."""

    def __init__(self) -> None:
        self.seen: Dict[str, list] = {}

    def _keep(self, kind: str, message) -> None:
        self.seen.setdefault(kind, []).append(message)

    def encode_request(self, request):
        self._keep("request", request)
        return super().encode_request(request)

    def encode_batch_request(self, requests):
        self._keep("batch_request", requests)
        return super().encode_batch_request(requests)


def _capture(seed: int) -> dict:
    """Run a handful of real calls and keep what reached the transport and the wire."""
    rmi = _RecordingRmi()
    others = [t for t in default_transport_registry() if t.name != "rmi"]
    network = _RecordingNetwork()
    cluster = Cluster(
        ("client", "server"), network=network, transports=TransportRegistry([rmi, *others])
    )
    catalog_inputs = workloads.catalog_inputs(seed, 32)
    table, chosen = catalog_inputs["table"], catalog_inputs["keys"]
    order = workloads.make_order(random.Random(seed))
    with Session(cluster, node="client") as session:
        catalog = workloads.Catalog(dict(table))
        small = session.service("small", ServicePolicy(transport="rmi"), impl=catalog,
                                node="server")
        small.lookup(chosen[0])
        batched_catalog = session.service(
            "small-batched", ServicePolicy(transport="rmi").with_batching(32),
            impl=workloads.Catalog(dict(table)), node="server",
        )
        futures = [batched_catalog.future.lookup(key) for key in chosen]
        batched_catalog.flush()
        assert all(future.ok for future in futures)
        desk = session.service("desk", ServicePolicy(transport="rmi"),
                               impl=workloads.OrderDesk(), node="server")
        desk.submit(order)
    return {
        "small_request": rmi.seen["request"][0],
        "payload_request": rmi.seen["request"][-1],
        "batch_request": rmi.seen["batch_request"][0],
        "small_frame": network.requests[0],
        "server_handler": network.handlers["server"],
        "order": order,
        "cluster": cluster,
    }


def _transport_benches(captured: dict) -> List[Tuple[str, Callable[[], object]]]:
    benches: List[Tuple[str, Callable[[], object]]] = []
    transports = {transport.name: transport for transport in default_transport_registry()}
    rmi = transports["rmi"]

    small_request = captured["small_request"]
    small_wire = rmi.encode_request(small_request)
    benches.append(("transports.rmi.encode_small_ns", lambda: rmi.encode_request(small_request)))
    benches.append(("transports.rmi.decode_small_ns", lambda: rmi.decode_request(small_wire)))

    payload_request = captured["payload_request"]
    for name in ("rmi", "corba", "soap", "inproc"):
        transport = transports[name]
        wire = transport.encode_request(payload_request)
        benches.append((
            f"transports.{name}.encode_payload_ns",
            lambda transport=transport: transport.encode_request(payload_request),
        ))
        benches.append((
            f"transports.{name}.decode_payload_ns",
            lambda transport=transport, wire=wire: transport.decode_request(wire),
        ))

    batch_request = captured["batch_request"]
    batch_wire = rmi.encode_batch_request(batch_request)
    benches.append(("transports.rmi.encode_batch32_ns",
                    lambda: rmi.encode_batch_request(batch_request)))
    benches.append(("transports.rmi.decode_batch32_ns",
                    lambda: rmi.decode_batch_request(batch_wire)))
    benches.append(("transports.frame_ns",
                    lambda: parse_frame(frame_message("rmi", small_wire))))
    return benches


def _figure1_app(dynamic: bool):
    app = ApplicationTransformer(all_local_policy(dynamic=dynamic)).transform([A, B, C])
    cluster = Cluster(("client", "server"))
    app.deploy(cluster, default_node="client")
    shared = app.new("C", "shared")
    return app, cluster, shared, app.new("A", shared)


def _core_benches() -> List[Tuple[str, Callable[[], object]]]:
    plain = A(C("shared"))
    _, _, _, local = _figure1_app(dynamic=False)
    app, cluster, shared, handle = _figure1_app(dynamic=True)
    controller = DistributionController(app, cluster)

    def rebind() -> None:
        controller.make_remote(shared, "server")
        controller.make_local(shared)

    return [
        ("core.transform_ms",
         lambda: ApplicationTransformer(all_local_policy(dynamic=True)).transform([A, B, C])),
        ("core.plain_call_ns", lambda: plain.record(3)),
        ("core.local_call_ns", lambda: local.record(3)),
        ("core.handle_call_ns", lambda: handle.record(3)),
        ("core.rebind_us", rebind),
    ]


def _runtime_api_benches(captured: dict) -> List[Tuple[str, Callable[[], object]]]:
    marshaller = captured["cluster"].space("client").marshaller
    order = captured["order"]
    handler = captured["server_handler"]
    frame = captured["small_frame"]

    cache_cluster = Cluster(("client", "server"))
    session = Session(cache_cluster, node="client")
    shard = CatalogShard()
    shard.items = {"hot": 1}
    cached = session.service(
        "shard", ServicePolicy(transport="rmi").with_caching(CachePolicy(lease_ms=1e9)),
        impl=shard, node="server",
    )
    cached.get_item("hot")  # fill; every later read is a hit

    chain = InterceptorChain([Interceptor(), Interceptor(), Interceptor()])
    context = CallContext(service="svc", member="m")
    return [
        ("runtime.marshal_payload_ns", lambda: marshaller.marshal_arguments((order,), {})),
        ("runtime.dispatch_small_ns", lambda: handler("client", frame)),
        ("runtime.cache_hit_ns", lambda: cached.get_item("hot")),
        ("api.chain_bracket_ns", lambda: chain.open(context).close(None)),
    ]


def _network_benches() -> List[Tuple[str, Callable[[], object]]]:
    events = EventQueue(SimClock())

    def noop() -> None:
        pass

    def event() -> None:
        events.schedule(0.0, noop)
        events.run_next()

    pool = ServicePool(workers=2, queue_limit=16, service_time=0.0)
    network = SimulatedNetwork()
    for node in ("a", "b"):
        network.register(node, lambda source, payload: payload)
    payload = bytes(64)

    def post_echo() -> None:
        network.post("a", "b", payload, lambda response: None, lambda error: None)
        network.events.run_until_idle()

    def spans() -> None:
        tracer = Tracer(clock=SimClock())  # fresh: the collector keeps every span
        root = tracer.start_trace("root")
        for _ in range(SPANS_PER_TRACER):
            tracer.end_span(
                tracer.start_span("child", trace_id=root.trace_id, parent_id=root.span_id)
            )

    def calibrate() -> int:
        value = 1
        for step in range(CALIB_STEPS):
            value = (value * 31 + step) % 65521
        return value

    return [
        ("network.event_ns", event),
        ("network.pool_admit_ns", lambda: pool.admit(0.0)),
        ("network.send_request_echo_ns", lambda: network.send_request("a", "b", payload)),
        ("network.post_echo_ns", post_echo),
        ("observability.span_ns", spans),
        ("host.calib_ns", calibrate),
    ]


#: Calls made by one invocation of the benched function, where it is not 1.
_CALLS_PER_INVOCATION = {"observability.span_ns": SPANS_PER_TRACER, "host.calib_ns": CALIB_STEPS}
_UNIT_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def run_micro(seed: int, min_seconds: float) -> Dict[str, float]:
    """Every micro metric, in the unit its name ends with."""
    captured = _capture(seed)
    benches = (
        _transport_benches(captured)
        + _runtime_api_benches(captured)
        + _network_benches()
        + _core_benches()
    )
    results: Dict[str, float] = {}
    for name, function in benches:
        per_call = seconds_per_call(function, min_seconds) / _CALLS_PER_INVOCATION.get(name, 1)
        results[name] = per_call * _UNIT_SCALE[name.rsplit("_", 1)[1]]
    return results
