"""A request names which object and which member, nothing the receiver knows.

A request carries the target's object id, the member and the arguments, and
``kwargs`` and ``ctx`` only when the call has them: no interface name (the
serving space reads it from its own export, as JRMP and GIOP carry an object
key and an operation) and no empty kwargs map.  :class:`TestEveryShape`
sends each of the four request shapes over every transport, in a single-call
and a batch frame, and expects the same call served; :class:`TestSmallCall`
holds a small call's request to what it must carry and to a byte budget per
transport; :class:`TestServiceName` checks that the server-side
``CallContext.service`` and span name are the export's interface, whoever
exported the object; :class:`TestEarlierFrames` serves a request as it was
written while requests named their interface — as a positional record of five
or six fields and as a keyed map — exactly as the current one.
"""

from __future__ import annotations

import pytest

import matrix
import sample_app
from repro.api.errors import RemoteInvocationError
from repro.baselines.javaparty import JavaPartyRuntime, remote_class
from repro.core.interception import Interceptor
from repro.core.transformer import ApplicationTransformer
from repro.observability.tracing import Tracer
from repro.policy.policy import place_classes_on
from repro.runtime.cluster import Cluster
from repro.runtime.invocation import read_request, request_dict
from repro.runtime.remote_ref import RemoteRef, reference_of
from repro.runtime.replication import ReplicaManager
from repro.transports import base
from repro.transports.codec import encode_value
from repro.workloads.bulk_orders import INTAKE_READONLY, OrderIntake
from test_wire_golden import named_record_frame

CTX = {"i": 7, "t": "tenant-a"}
#: shape -> (kwargs, ctx) of a call of that shape.
SHAPES = {
    "no kwargs or ctx": ({}, None),
    "kwargs": ({"scale": 3}, None),
    "ctx": ({}, CTX),
    "kwargs and ctx": ({"scale": 3}, CTX),
}


class Catalog:
    """The served object: one small lookup, remembering how it was called."""

    def __init__(self):
        self.calls = []

    def lookup(self, key, scale=1):
        self.calls.append((key, scale))
        return f"{key}x{scale}"


class Seen(Interceptor):
    """What a server-side chain is told of each call."""

    def __init__(self):
        self.calls = []

    def begin(self, ctx):
        self.calls.append((ctx.service, ctx.member, ctx.args, ctx.kwargs, ctx.tenant))


def _catalog_cluster():
    cluster = Cluster(("client", "server"))
    server = cluster.space("server")
    catalog, seen = Catalog(), Seen()
    reference = server.export(catalog, interface_name="Catalog")
    server.use_middleware([seen])
    return cluster, catalog, seen, reference


def _call(client, reference, framing, transport, kwargs, ctx, member="lookup"):
    """One call of ``member`` down ``framing``; its result, unwrapped."""
    if framing == "single":
        return client.invoke_remote(
            reference, member, ("item-abcd",), kwargs, transport=transport, context=ctx
        )
    (outcome,) = client.invoke_remote_many(
        [(reference, member, ("item-abcd",), kwargs, ctx)], transport=transport
    )
    return outcome.unwrap()


def _recording(network):
    """Record every payload ``network`` sends inline; the list it fills."""
    sent, send = [], network.send_request

    def send_request(source, destination, payload, **options):
        sent.append(payload)
        return send(source, destination, payload, **options)

    network.send_request = send_request
    return sent


@pytest.mark.parametrize("framing", ["single", "batch"])
@pytest.mark.parametrize("transport", matrix.TRANSPORTS)
class TestEveryShape:
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_the_request_round_trips(self, transport, framing, shape):
        kwargs, ctx = SHAPES[shape]
        request = request_dict(RemoteRef("server:1", "server", "Catalog"), "lookup",
                               ["item-abcd"], kwargs, ctx)
        assert list(request) == ["target", "member", "args", *(["kwargs"] if kwargs else []),
                                 *(["ctx"] if ctx else [])]
        cluster = Cluster(("server",))
        codec_ = cluster.transports.framing(transport).transport
        kind = base.REQUEST if framing == "single" else base.BATCH_REQUEST
        frame = codec_.encode_frame(kind, [request])
        for marshaller in (None, cluster.space("server").marshaller):
            (decoded,) = codec_.read_frame(kind, frame, marshaller)
            assert repr(decoded) == repr(request)
            assert read_request(decoded, "server") == ("server:1", "lookup", ["item-abcd"], kwargs, ctx)

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_the_call_is_served_as_a_direct_call(self, transport, framing, shape):
        kwargs, ctx = SHAPES[shape]
        cluster, catalog, seen, reference = _catalog_cluster()
        result = _call(cluster.space("client"), reference, framing, transport, kwargs, ctx)
        direct = Catalog()
        assert result == direct.lookup("item-abcd", **kwargs)
        assert catalog.calls == direct.calls
        tenant = ctx and ctx["t"]
        assert seen.calls == [("Catalog", "lookup", ("item-abcd",), kwargs, tenant)]
        assert cluster.metrics.total_messages == 2


#: Bytes of one ``lookup("item-abcd")`` request to the first object a fresh
#: space exports, transport prefix included.  While the target was the full id
#: ``server:1`` rather than the key ``1`` they were 55 (rmi), 79 (corba), 196
#: (soap) and 67 (inproc); while requests also named their interface
#: (``Catalog``) and carried an empty kwargs map, 72, 98, 228 and 101.
SMALL_REQUEST_BYTES = {"rmi": 48, "corba": 71, "soap": 189, "inproc": 60}


@pytest.mark.parametrize("transport", matrix.TRANSPORTS)
class TestSmallCall:
    @pytest.mark.parametrize("framing", ["single", "batch"])
    def test_a_small_request_names_no_interface_and_no_empty_kwargs(self, transport, framing):
        cluster, _catalog, _seen, reference = _catalog_cluster()
        sent = _recording(cluster.network)
        _call(cluster.space("client"), reference, framing, transport, {}, None)
        (payload,) = sent
        assert b"Catalog" not in payload and b"interface" not in payload
        (codec_, batch, _prefix), body = cluster.transports.split_frame(payload)
        decoded = codec_.decode_batch_request(body)[0] if batch else codec_.decode_request(body)
        assert list(decoded) == ["target", "member", "args"]
        if transport == "soap":
            assert b"keywords" not in payload

    def test_a_small_request_keeps_to_its_byte_budget(self, transport):
        cluster, _catalog, _seen, reference = _catalog_cluster()
        sent = _recording(cluster.network)
        _call(cluster.space("client"), reference, "single", transport, {}, None)
        assert reference.object_id == "server:1"
        assert [len(payload) for payload in sent] == [SMALL_REQUEST_BYTES[transport]]


class TestServiceName:
    """The interface a server-side chain and span are told is the one the
    serving space exported the object under, not one the request names."""

    @staticmethod
    def _served_as(space, client, reference, member, args=()):
        """``(service, span name)`` of one traced call of ``member``."""
        seen = Seen()
        space.use_middleware([seen])
        tracer = space.network.tracer = Tracer(clock=space.network.clock)
        try:
            client.invoke_remote(reference, member, args, context={"x": "t1", "p": "c1"})
        except RemoteInvocationError:
            pass
        (served,) = [span for span in tracer.collector.spans("t1") if span.kind == "server"]
        return seen.calls[0][0], served.name

    def test_a_plain_export(self):
        cluster, _catalog, _seen, reference = _catalog_cluster()
        server, client = cluster.space("server"), cluster.space("client")
        assert self._served_as(server, client, reference, "lookup", ("k",)) == (
            "Catalog", "Catalog.lookup")

    def test_a_transformed_object(self):
        app = ApplicationTransformer(place_classes_on({"Y": "server"})).transform(
            [sample_app.X, sample_app.Y, sample_app.Z]
        )
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        reference = reference_of(app.new("Y", 1))
        assert reference.interface_name == "Y_O_Int"
        assert self._served_as(cluster.space("server"), cluster.space("client"), reference,
                               "n", (2,)) == ("Y_O_Int", "Y_O_Int.n")

    def test_a_replica_endpoint(self):
        cluster = Cluster(("client", "a", "b"))
        group = ReplicaManager(cluster).replicate(
            OrderIntake(), name="orders", primary_node="a", backup_nodes=["b"],
            readonly=INTAKE_READONLY,
        )
        endpoint = group.backups["b"].endpoint_ref
        assert endpoint.interface_name == "OrderIntake.replica"
        assert self._served_as(cluster.space("b"), cluster.space("client"), endpoint,
                               "adopt_epoch", (1,)) == (
            "OrderIntake.replica", "OrderIntake.replica.adopt_epoch")

    def test_a_javaparty_export(self):
        @remote_class
        class RemoteCounter(Catalog):
            pass

        cluster = Cluster(("home", "server"))
        runtime = JavaPartyRuntime(cluster, home_node="home",
                                   placement={"RemoteCounter": "server"})
        reference = runtime.new(RemoteCounter)._ref
        assert self._served_as(cluster.space("server"), cluster.space("home"), reference,
                               "lookup", ("k",)) == ("RemoteCounter", "RemoteCounter.lookup")

    def test_an_unknown_target_names_itself_and_is_still_refused(self):
        cluster, _catalog, _seen, _reference = _catalog_cluster()
        bogus = RemoteRef("server:999", "server", "Catalog")
        with pytest.raises(RemoteInvocationError) as raised:
            cluster.space("client").invoke_remote(bogus, "lookup", ("k",))
        assert raised.value.remote_type == "UnknownObjectError"
        assert self._served_as(cluster.space("server"), cluster.space("client"), bogus,
                               "lookup", ("k",)) == ("server:999", "server:999.lookup")


def _earlier_frame(transport, kind, message, form):
    """``message`` framed as before: a record of five or six fields, or a keyed map."""
    if form == "record":
        return named_record_frame(transport, kind, message)
    body = encode_value([message] if kind == base.BATCH_REQUEST else message, transport.alignment)
    return transport.pack_header(transport.message_types[kind], body) + body


@pytest.mark.parametrize("framing", ["single", "batch"])
@pytest.mark.parametrize("transport", matrix.BINARY)
class TestEarlierFrames:
    @pytest.mark.parametrize("form", ["record", "keyed"])
    @pytest.mark.parametrize("shape", ["no kwargs or ctx", "ctx"])
    def test_an_earlier_request_is_served_as_the_current_one(self, transport, framing, form,
                                                              shape):
        _kwargs, ctx = SHAPES[shape]
        kind = base.BATCH_REQUEST if framing == "batch" else base.REQUEST
        served = []
        for earlier in (False, True):
            cluster, catalog, seen, reference = _catalog_cluster()
            current = request_dict(reference, "lookup", ["item-abcd"], {}, ctx)
            message = current
            if earlier:
                message = {"target": current["target"], "interface": "Catalog",
                           "member": "lookup", "args": ["item-abcd"], "kwargs": {}}
                if ctx:
                    message["ctx"] = ctx
            codec_ = cluster.transports.framing(transport).transport
            frame = (_earlier_frame(codec_, kind, message, form) if earlier
                     else codec_.encode_frame(kind, [message]))
            prefix = base.frame_prefix(transport, batch=framing == "batch")
            response = cluster.network.send_request("client", "server", prefix + frame)
            served.append((response, catalog.calls, seen.calls))
        assert served[0] == served[1]
        assert served[0][1] == [("item-abcd", 1)]
