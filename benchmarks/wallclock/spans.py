"""Span recorder for the traced pass: host-time brackets around layer boundaries.

Nothing under ``src/`` is edited.  :func:`install` replaces, for the length of
a ``with`` block and only in the traced child, the boundary callables listed
in :func:`boundary_table` with wrappers that record a span — name, layer,
``perf_counter_ns`` start and end, and the span that was open when it started
(a stack; the harness is single-threaded).  A span's *self time* is its
duration minus the durations of its direct children, so the self times of all
spans, root included, sum exactly to the root's duration.

Helpers that callers import by name (``write_value``, ``_take``,
``frame_message``) cannot be bracketed without patching their callers; they
stay inside their caller's self time and are covered by the micro-benches.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Spans of the shared ``runtime`` helpers (the marshaller) are billed to the
#: nearest enclosing ``runtime.*`` span: client side or dispatch side.
INHERITED_LAYER = "runtime"
ROOT_LAYER = "driver"

SELF_TIME_LAYERS = (
    "api",
    "core",
    "runtime.client",
    "runtime.dispatch",
    "runtime.redistribution",
    "transports.encode",
    "transports.decode",
    "network.simnet",
    "network.events",
    "network.pool",
    "observability",
    "driver",
)

# name index, start ns, end ns, index of the parent span (-1 for the root)
Span = Tuple[int, int, int, int]
# owner (class or module), attribute, layer
Row = Tuple[object, str, str]

#: Self-recursive callables: only the outermost activation records a span.
SELF_RECURSIVE = frozenset({"to_wire", "from_wire"})
_INHERITED = object()


class Recorder:
    """Keeps spans in memory; :meth:`write` dumps them when the run is over."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []  # (span name, layer)
        self.spans: List[Optional[Span]] = []
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self._stack: List[int] = []

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def wrap(self, function: Callable, name: str, layer: str, outermost_only: bool = False):
        """``function`` bracketed by a span.

        ``outermost_only`` is for self-recursive callables (``to_wire``): only
        the outermost activation records a span, the recursion stays inside it.
        """
        name_id = self._name_id(name, layer)
        spans = self.spans
        stack = self._stack
        active = [False]

        @functools.wraps(function)  # keeps markers such as @cacheable's on the wrapper
        def bracketed(*args, **kwargs):
            if outermost_only:
                if active[0]:
                    return function(*args, **kwargs)
                active[0] = True
            index = len(spans)
            spans.append(None)  # reserve the slot so spans stay in start order
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
                if outermost_only:
                    active[0] = False

        return bracketed

    def reset(self) -> None:
        """Forget the spans recorded so far (the warm-up's)."""
        self.spans.clear()

    # -- reading ------------------------------------------------------------

    def _resolved_layers(self) -> List[str]:
        """Each span's layer, inherited ``runtime`` spans billed to the nearest
        enclosing ``runtime.*`` span (parents precede children in the list)."""
        resolved: List[str] = []
        anchors: List[str] = []  # nearest enclosing-or-own runtime.* layer
        for name_id, _, _, parent in self.spans:
            layer = self.names[name_id][1]
            above = anchors[parent] if parent >= 0 else "runtime.client"
            if layer == INHERITED_LAYER:
                layer = above
            anchors.append(layer if layer.startswith("runtime.") else above)
            resolved.append(layer)
        return resolved

    def self_time_ns(self) -> Dict[str, int]:
        """Self time per layer; the values sum to the root span's duration."""
        totals = {layer: 0 for layer in SELF_TIME_LAYERS}
        layers = self._resolved_layers()
        for layer, (_, start, end, parent) in zip(layers, self.spans):
            totals[layer] += end - start
            if parent >= 0:
                totals[layers[parent]] -= end - start
        return totals

    def calls(self, layer: str) -> int:
        """How many spans of ``layer`` were recorded."""
        return sum(1 for name_id, _, _, _ in self.spans if self.names[name_id][1] == layer)

    def root_duration_ns(self) -> int:
        _, start, end, _ = self.spans[0]
        return end - start

    def coverage(self) -> float:
        """Share of the root's wall time spent inside some child span."""
        covered = sum(end - start for _, start, end, parent in self.spans if parent == 0)
        return covered / self.root_duration_ns()

    def write(self, path, **header) -> None:
        """Dump every span as one compact JSON document."""
        origin = self.spans[0][1]
        document = {
            **header,
            "unit": "ns",
            "names": [{"name": name, "layer": layer} for name, layer in self.names],
            "columns": ["name", "start", "end", "parent"],
            "spans": [
                [name_id, start - origin, end - origin, parent]
                for name_id, start, end, parent in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def boundary_table() -> List[Row]:
    """Every bracketed callable of the program, by layer."""
    from repro.api import dispatch, middleware, service, session
    from repro.network.clock import EventQueue
    from repro.network.simnet import ServicePool, SimulatedNetwork
    from repro.observability.tracing import Tracer
    from repro.runtime.address_space import AddressSpace
    from repro.runtime.batching import BatchingProxy
    from repro.runtime.cluster import default_transport_registry
    from repro.runtime.faulttolerance import FaultTolerantInvoker
    from repro.runtime.pipelining import InvocationFuture, PipelineScheduler
    from repro.runtime.redistribution import DistributionController
    from repro.runtime.serialization import Marshaller

    table: List[Row] = []

    def add(owner, attributes: str, layer: str) -> None:
        table.extend((owner, attribute, layer) for attribute in attributes.split())

    for pipe in (dispatch.DirectPipe, dispatch.BatchPipe, dispatch.StreamPipe,
                 dispatch.ChainedPipe):
        add(pipe, "enqueue flush drain", "api")
    add(middleware.InterceptorChain, "open", "api")
    add(middleware._Bracket, "close fail", "api")
    add(service.Service, "call _enqueue flush drain", "api")
    add(session.Session, "flush drain close", "api")

    add(AddressSpace, "invoke_remote invoke_remote_many invoke_remote_many_async",
        "runtime.client")
    add(PipelineScheduler, "submit_with_context flush drain", "runtime.client")
    add(BatchingProxy, "call_with_context flush", "runtime.client")
    add(FaultTolerantInvoker, "invoke invoke_many", "runtime.client")
    add(InvocationFuture, "result", "runtime.client")
    # service.py imports cached_enqueue by name; its module global is the seam.
    add(service, "cached_enqueue", "runtime.client")
    add(Marshaller, "marshal_arguments unmarshal_arguments to_wire from_wire", INHERITED_LAYER)
    add(DistributionController, "make_remote make_local move set_transport",
        "runtime.redistribution")

    for transport in default_transport_registry():
        add(type(transport),
            "encode_request encode_response encode_batch_request encode_batch_response",
            "transports.encode")
        add(type(transport),
            "decode_request decode_response decode_batch_request decode_batch_response",
            "transports.decode")

    add(SimulatedNetwork, "send_request", "network.simnet")
    add(EventQueue, "run_next run_until run_until_idle", "network.events")
    add(ServicePool, "admit", "network.pool")
    add(Tracer, "start_trace start_span end_span record_span", "observability")
    return table


@contextmanager
def bracket(recorder: Recorder, rows: Iterable[Row]) -> Iterator[None]:
    """Replace each ``owner.attribute`` by its span-recording wrapper until exit."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attribute, layer in rows:
            name = f"{getattr(owner, '__qualname__', owner.__name__)}.{attribute}"
            saved.append((owner, attribute, vars(owner).get(attribute, _INHERITED)))
            setattr(owner, attribute,
                    recorder.wrap(getattr(owner, attribute), name, layer,
                                  attribute in SELF_RECURSIVE))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


@contextmanager
def install(recorder: Recorder) -> Iterator[None]:
    """Bracket the whole boundary table until the block ends.

    Enter it *before* the cluster is built: node handlers are bracketed as
    they register with the network.
    """
    from repro.network.simnet import SimulatedNetwork

    register, plain_post = SimulatedNetwork.register, SimulatedNetwork.post
    post = recorder.wrap(plain_post, "SimulatedNetwork.post", "network.simnet")

    def register_bracketed(network, node_id, handler):
        register(network, node_id,
                 recorder.wrap(handler, "AddressSpace.handle_message", "runtime.dispatch"))

    def post_bracketed(network, source, destination, payload, on_response, on_error, **kwargs):
        # The completion callbacks are closures of invoke_remote_many_async:
        # response decoding and future settlement run in them, client side.
        return post(
            network, source, destination, payload,
            recorder.wrap(on_response, "AddressSpace.on_response", "runtime.client"),
            recorder.wrap(on_error, "AddressSpace.on_error", "runtime.client"),
            **kwargs,
        )

    with bracket(recorder, boundary_table()):
        SimulatedNetwork.register = register_bracketed
        SimulatedNetwork.post = post_bracketed
        try:
            yield
        finally:
            SimulatedNetwork.register = register
            SimulatedNetwork.post = plain_post
