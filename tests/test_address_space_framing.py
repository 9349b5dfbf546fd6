"""One call, whichever frame carries it.

A call leaves an address space in a single-call frame (``invoke_remote``), in
a batch frame sent inline (``invoke_remote_many``) or posted
(``invoke_remote_many_async``), or — when caller and object share a space —
in no frame at all.  :class:`TestFramingParity` sends the same one call down
every path and compares what came back, what ran on the hosting side and what
the counters say; :class:`TestRequestShape` sends requests that do not have
the shape documented in ``repro.transports.base`` and expects the whole
message refused with a ``TransportError`` before anything runs,
:class:`TestFramePrefix` expects the same of a frame whose transport prefix
is not ASCII, wherever it is read, and
:class:`TestMalformedTree` does the same for arguments whose Marshaller tree
does not hold together (a ``SerializationError``).
"""

from __future__ import annotations

import cProfile
import random

import pytest

import sample_app
from repro.api import ServicePolicy, Session
from repro.api.errors import (
    InvocationError,
    RemoteInvocationError,
    SerializationError,
    TransportError,
    UnknownObjectError,
)
from repro.core.interfaces import cacheable
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, place_classes_on
from repro.runtime.cluster import Cluster, default_transport_registry
from repro.runtime.remote_ref import RemoteRef
from repro.runtime.replication import ReplicaManager
from repro.transports.base import TransportRegistry, frame_batch_message, frame_message
from repro.workloads.bulk_orders import OrderIntake
from repro.workloads.figure1 import A, B, C
from repro.workloads.replicated_orders import INTAKE_READONLY

TRANSPORTS = ("rmi", "corba", "soap", "inproc")
#: The three framings of a call that crosses the network, then the two forms
#: of the co-located short-circuit.
REMOTE_PATHS = ("single", "many", "many_async")
LOCAL_PATHS = ("local", "local_many")


class Ledger:
    """The hosted object of every row; ``entries`` is the server-side effect."""

    def __init__(self):
        self.entries = []
        self.reads = 0

    def add(self, amount):
        self.entries.append(amount)
        return sum(self.entries)

    def fail(self, message):
        self.entries.append("fail")
        raise KeyError(message)

    def opaque(self):
        self.entries.append("opaque")
        return object()

    def take(self, other):
        self.entries.append(type(other).__name__)
        return other.n(1)

    @cacheable
    def impure_read(self):
        self.reads = self.reads + 1  # rebinding state in a @cacheable member
        return len(self.entries)


def _deployment():
    """A client and a server with a transformed application bound to both, so
    a reference that arrives over the wire can become a proxy."""
    app = ApplicationTransformer(place_classes_on({})).transform(
        [sample_app.X, sample_app.Y, sample_app.Z]
    )
    cluster = Cluster(("client", "server"))
    app.deploy(cluster, default_node="client")
    ledger = Ledger()
    reference = cluster.space("server").export(ledger)
    return app, cluster, ledger, reference


def _send(cluster, path, transport, reference, member, args=()):
    """Send one call down ``path``; ``("value", v)`` or ``("raised", type)``."""
    caller = cluster.space("server" if path in LOCAL_PATHS else "client")
    call = (reference, member, tuple(args), {})
    try:
        if path in ("single", "local"):
            return "value", caller.invoke_remote(reference, member, tuple(args), transport=transport)
        if path in ("many", "local_many"):
            (result,) = caller.invoke_remote_many([call], transport=transport)
        else:
            outcome = []
            caller.invoke_remote_many_async(
                [call], outcome.append, outcome.append, transport=transport
            )
            assert outcome == []  # posted, not sent: nothing has happened yet
            cluster.network.events.run_until_idle()
            (delivered,) = outcome
            if isinstance(delivered, Exception):
                raise delivered
            (result,) = delivered
        return "value", result.unwrap()
    except Exception as error:  # noqa: BLE001 - the outcome under test
        return "raised", type(error), getattr(error, "remote_type", None)


def _counters(cluster):
    client, server = cluster.space("client"), cluster.space("server")
    return {
        "sent": client.invocations_sent + server.invocations_sent,
        "batches_sent": client.batches_sent + server.batches_sent,
        "served": server.invocations_served,
        "batches_served": server.batches_served,
        "messages": cluster.metrics.total_messages,
    }


def _expected_counters(path, messages=2):
    if path in LOCAL_PATHS:
        return {"sent": 0, "batches_sent": 0, "served": 0, "batches_served": 0, "messages": 0}
    batches = 0 if path == "single" else 1
    return {
        "sent": 1, "batches_sent": batches, "served": 1, "batches_served": batches,
        "messages": messages,
    }


def _remote(remote_type):
    return ("raised", RemoteInvocationError, remote_type)


#: row -> (member, args, outcome on a remote path, outcome co-located, entries).
#: Where the last two differ the short-circuit hands over the live exception
#: or value — nothing is marshalled when nothing crosses a wire.
ROWS = {
    "success": ("add", (3,), ("value", 3), ("value", 3), [3]),
    "application_error": (
        "fail", ("boom",), _remote("KeyError"), ("raised", KeyError, None), ["fail"],
    ),
    "unknown_member": (
        "no_such_member", (), _remote("InvocationError"), ("raised", InvocationError, None), [],
    ),
}


every_path = pytest.mark.parametrize("path", REMOTE_PATHS + LOCAL_PATHS)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestFramingParity:
    @every_path
    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_outcome_effect_and_counters(self, row, path, transport):
        member, args, remote, local, entries = ROWS[row]
        _, cluster, ledger, reference = _deployment()
        outcome = _send(cluster, path, transport, reference, member, args)
        assert outcome == (local if path in LOCAL_PATHS else remote)
        assert ledger.entries == entries
        assert _counters(cluster) == _expected_counters(path)

    @every_path
    def test_unknown_object(self, path, transport):
        _, cluster, ledger, _ = _deployment()
        bogus = RemoteRef("server:999", "server", "Ledger")
        outcome = _send(cluster, path, transport, bogus, "add", (1,))
        if path in LOCAL_PATHS:
            assert outcome == ("raised", UnknownObjectError, None)
        else:
            assert outcome == _remote("UnknownObjectError")
        assert ledger.entries == []
        assert _counters(cluster) == _expected_counters(path)

    @every_path
    def test_unmarshallable_result(self, path, transport):
        _, cluster, ledger, reference = _deployment()
        outcome = _send(cluster, path, transport, reference, "opaque")
        if path in LOCAL_PATHS:
            assert outcome[0] == "value" and type(outcome[1]) is object
        else:
            assert outcome == _remote("SerializationError")
        assert ledger.entries == ["opaque"]  # it ran; only its result could not travel
        assert _counters(cluster) == _expected_counters(path)

    @every_path
    def test_a_transformed_argument_travels_as_a_reference(self, path, transport):
        app, cluster, ledger, reference = _deployment()
        caller = cluster.space("server" if path in LOCAL_PATHS else "client")
        y = app.new_local("Y", 6)
        assert _send(cluster, path, transport, reference, "take", (y,)) == ("value", 7)
        if path in LOCAL_PATHS:
            assert ledger.entries == ["Y_O_Local"]
            assert not caller.is_exported(y)
        else:
            # The server held a proxy and called back through it: two more
            # messages, and the argument is now exported by the caller.
            assert ledger.entries == ["Y_O_Proxy_RMI"]
            assert caller.is_exported(y)
            assert cluster.metrics.total_messages == 4

    @every_path
    def test_a_write_invalidates_a_subscriber_before_it_returns(self, path, transport):
        _, cluster, ledger, reference = _deployment()
        client, server = cluster.space("client"), cluster.space("server")
        server.register_cache_subscriber(reference.object_id, "client")
        heard = []
        client.add_invalidation_listener(heard.append)
        assert _send(cluster, path, transport, reference, "add", (5,)) == ("value", 5)
        assert heard == [[reference.object_id]]
        assert client.invalidations_received == 1
        assert server.cache_subscriber_count() == 0  # one-shot
        if path in LOCAL_PATHS:
            # No response to ride on: the subscriber gets a frame of its own.
            assert (server.invalidations_sent, server.invalidations_piggybacked) == (1, 0)
            assert cluster.metrics.total_messages == 2
        else:
            assert (server.invalidations_sent, server.invalidations_piggybacked) == (0, 1)
            assert cluster.metrics.total_messages == 2

    @every_path
    def test_an_impure_cacheable_member_is_counted(self, path, transport):
        _, cluster, ledger, reference = _deployment()
        with pytest.warns(RuntimeWarning, match="impure_read"):
            assert _send(cluster, path, transport, reference, "impure_read") == ("value", 0)
        assert cluster.space("server").cacheable_violations == 1

    @pytest.mark.parametrize("path", REMOTE_PATHS)  # co-located: no response frame
    def test_a_response_in_the_other_framing_is_refused(self, path, transport):
        _, cluster, _, _ = _deployment()
        codec = cluster.space("client").transports.get(transport)
        if path == "single":
            answer = frame_batch_message(transport, codec.encode_batch_response([{"result": 1}]))
        else:
            answer = frame_message(transport, codec.encode_response({"result": 1}))
        cluster.network.register("server", lambda source, payload: answer)
        reference = RemoteRef("server:1", "server", "Ledger")
        assert _send(cluster, path, transport, reference, "add", (1,)) == (
            "raised", TransportError, None,
        )


#: Where a frame whose transport prefix is not ASCII is read, and the path
#: that brings it there (the serving side reads the request itself).
BAD_PREFIX = {"server": None, "client_inline": "single", "client_posted": "many_async"}


class TestFramePrefix:
    @pytest.mark.parametrize("row", sorted(BAD_PREFIX))
    def test_a_prefix_that_is_not_ascii_is_a_transport_error(self, row):
        _, cluster, ledger, reference = _deployment()
        frame = b"\xff\n\x00"
        if BAD_PREFIX[row] is None:
            with pytest.raises(TransportError):
                cluster.space("server")._handle_message("client", frame)
        else:
            cluster.network.register("server", lambda source, payload: frame)
            assert _send(cluster, BAD_PREFIX[row], "rmi", reference, "add", (1,)) == (
                "raised", TransportError, None,
            )
        assert ledger.entries == []


#: name -> what a well-framed request carries instead of the documented shape.
MALFORMED = {
    "args_is_an_int": {"args": 7},
    "args_is_a_dict": {"args": {"x": 1}},
    "kwargs_is_a_list": {"kwargs": [1, 2]},
    "ctx_is_a_str": {"ctx": "zz"},
    "member_is_an_int": {"member": 5},
    "no_member": {"member": None},
}


def _damaging(transport_cls, damage):
    """``transport_cls`` whose request decoders hand over damaged dicts, as a
    peer that does not keep to the documented shape would put on the wire
    (SOAP's envelope cannot even spell most of these; the others can)."""

    def spoil(request):
        for key, value in damage.items():
            if value is None:
                del request[key]
            else:
                request[key] = value
        return request

    class Damaging(transport_cls):
        def decode_request(self, payload, **options):
            return spoil(super().decode_request(payload, **options))

        def decode_batch_request(self, payload, **options):
            first, *rest = super().decode_batch_request(payload, **options)
            return [first, *map(spoil, rest)]

    return Damaging()


class TestRequestShape:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("framing", ["single", "batch"])
    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_a_malformed_request_fails_the_whole_message(self, damage, framing, transport):
        registry = TransportRegistry(
            _damaging(type(codec), MALFORMED[damage]) if codec.name == transport else codec
            for codec in default_transport_registry()
        )
        cluster = Cluster(("client", "server"), transports=registry)
        client, server = cluster.space("client"), cluster.space("server")
        ledger = Ledger()
        reference = server.export(ledger)
        with pytest.raises(TransportError):
            if framing == "single":
                client.invoke_remote(reference, "add", (1,), transport=transport)
            else:
                # The first call of the batch is well formed and must not run.
                client.invoke_remote_many(
                    [(reference, "add", (1,), {}), (reference, "add", (2,), {})],
                    transport=transport,
                )
        assert ledger.entries == []
        assert server.invocations_served == 0


#: name -> a tree the Marshaller never writes, as a peer could put it on the wire.
MALFORMED_TREES = {
    "map_without_items": {"__kind__": "map"},
    "map_entry_of_three": {"__kind__": "map", "items": [[1, 2, 3]]},
    "map_key_unhashable": {"__kind__": "map", "items": [[[1], 2]]},
    "list_items_an_int": {"__kind__": "list", "items": 5},
    "set_item_unhashable": {"__kind__": "set", "items": [[1]]},
    "bytes_not_base64": {"__kind__": "bytes", "data": "!!!"},
}


class TestMalformedTree:
    """An argument whose tree does not hold together is a
    ``SerializationError`` for the whole frame, raised while it is read."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("framing", ["single", "batch"])
    @pytest.mark.parametrize("tree", sorted(MALFORMED_TREES))
    def test_a_malformed_tree_fails_the_whole_message(self, tree, framing, transport):
        cluster = Cluster(("client", "server"))
        server = cluster.space("server")
        ledger = Ledger()
        reference = server.export(ledger)
        codec = server.transports.get(transport)

        def add(argument):
            return {
                "target": reference.object_id, "interface": reference.interface_name,
                "member": "add", "args": [argument], "kwargs": {},
            }

        if framing == "single":
            payload = frame_message(transport, codec.encode_request(add(MALFORMED_TREES[tree])))
        else:
            # The first call of the batch is well formed and must not run.
            payload = frame_batch_message(
                transport, codec.encode_batch_request([add(1), add(MALFORMED_TREES[tree])])
            )
        with pytest.raises(SerializationError):
            cluster.network.send_request("client", "server", payload)
        assert ledger.entries == []
        assert server.invocations_served == 0


class Catalog:
    """Served object of the call-budget test: one small keyed lookup."""

    def __init__(self, table):
        self._table = table

    def lookup(self, key):
        return self._table.get(key, -1)


class OrderDesk:
    """Served object of the batched call-budget test: a receipt per order."""

    def __init__(self):
        self.accepted = 0

    def submit(self, order):
        lines = order["lines"]
        receipt = {
            "id": self.accepted,
            "customer": order["customer"],
            "lines": len(lines),
            "units": sum(line["quantity"] for line in lines),
            "total": sum(line["quantity"] * line["unit_price"] for line in lines),
            "skus": [line["sku"] for line in lines],
        }
        self.accepted += 1
        return receipt


def _name(rng, prefix):
    length = rng.randint(3, 12)
    return prefix + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(length))


def _order(rng):
    """A nested order of 16 lines: strings, ints, floats, bools, None, lists, maps."""
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
            for _ in range(16)
        ],
    }


def _calls_per_op(profile, operations):
    """Python calls per operation, builtins included: every entry ``cProfile``
    recorded, summed (``pstats`` merges the generated ``__init__`` of all
    dataclasses under one key and keeps the last, so its total reads lower)."""
    return sum(entry.callcount for entry in profile.getstats()) / operations


class TestCallBudget:
    """Sharing the per-call code between framings must not tax the plain
    synchronous call, a value is walked once on its way to the bytes and once
    back, and a message of leaves is written and read as a record, not walked:
    the ledger's ``direct_small`` and ``batch_payload`` workloads, a small
    batch of lookups, ``cached_mixed``'s hot reads (cache hits), Figure 1's
    co-located handle calls and ``fullstack_writes``' batched quorum writes,
    rebuilt here.  Each ceiling is the count measured on CPython 3.11 plus 5 % for
    the other interpreters CI runs."""

    #: Python calls per lookup: 199.1 with messages read and written as
    #: records (239.1 when the walk handled them, 249.1 before values went to
    #: bytes in one pass).
    CEILING = 209.1
    #: Python calls per batched order: 2 245.1 (2 293.2 with the messages
    #: walked, 3 608.2 with the Marshaller's tree built and walked).
    BATCH_CEILING = 2357.4
    #: Python calls per lookup in windows of 32: 101.6 (137.9 with the
    #: messages walked).
    SMALL_BATCH_CEILING = 106.7
    #: Python calls per cache hit: 8.0 (34.0 when a hit was a resolved future
    #: and a recursive key walk).
    CACHE_HIT_CEILING = 8.4
    #: Python calls per co-located ``a.record(v)`` through two dynamic
    #: handles: 22.0 with an empty chain (32.0 when every handle call built a
    #: per-call record and counted itself in always-on statistics).
    HANDLE_CEILING = 23.1
    #: Python calls per write in batches of 16 quorum-2 writes to a 3-replica
    #: group: 242.9 with a batch's writes committed once (588.6 when each
    #: write caught its backups up on its own).
    QUORUM_BATCH_CEILING = 255.1

    def test_a_batch_of_quorum_writes_stays_within_its_call_budget(self):
        cluster = Cluster(("client", "a", "b", "c"))
        manager = ReplicaManager(cluster)
        group = manager.replicate(
            OrderIntake(), name="orders", primary_node="a", backup_nodes=["b", "c"],
            readonly=INTAKE_READONLY, quorum=2, transport="rmi",
        )
        client = cluster.space("client")
        batches = [
            [(group.primary_ref, "submit", (f"sku-{b}-{i}", 1, 10), {}) for i in range(16)]
            for b in range(8)
        ]
        profile = cProfile.Profile()
        profile.enable()
        answers = [client.invoke_remote_many(calls, transport="rmi") for calls in batches]
        profile.disable()
        assert all(result.ok for results in answers for result in results)
        assert group.acked_writes == 128 and group.forward_messages == 16
        per_write = _calls_per_op(profile, 128)
        assert per_write <= self.QUORUM_BATCH_CEILING, (
            f"{per_write:.1f} Python calls per batched quorum write"
        )

    def test_a_co_located_handle_call_stays_within_its_call_budget(self):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([A, B, C])
        app.deploy(Cluster(("client", "server")), default_node="client")
        shared = app.new("C", "shared")
        a = app.new("A", shared)
        profile = cProfile.Profile()
        profile.enable()
        for value in range(1000):
            a.record(value)
        profile.disable()
        assert shared.get_total() == sum(range(1000))
        per_call = _calls_per_op(profile, 1000)
        assert per_call <= self.HANDLE_CEILING, f"{per_call:.1f} Python calls per handle call"

    def test_a_cache_hit_stays_within_its_call_budget(self):
        rng = random.Random(7)
        table = {f"item-{index:02d}": rng.randrange(1_000_000) for index in range(64)}
        keys = rng.choices(sorted(table), k=1000)
        cluster = Cluster(("client", "server"))
        session = Session(cluster, node="client")
        service = session.service(
            "catalog",
            ServicePolicy(transport="rmi").with_caching(lease_ms=1e9, cacheable=("lookup",)),
            impl=Catalog(dict(table)), node="server",
        )
        profile = cProfile.Profile()
        with session:
            lookup = service.lookup
            for key in table:
                lookup(key)  # fill: every profiled call is a hit
            profile.enable()
            answers = [lookup(key) for key in keys]
            profile.disable()
            assert service.cache.hits == len(keys)
        assert answers == [table[key] for key in keys]
        per_hit = _calls_per_op(profile, len(keys))
        assert per_hit <= self.CACHE_HIT_CEILING, f"{per_hit:.1f} Python calls per cache hit"

    def test_a_batch_of_orders_stays_within_its_call_budget(self):
        rng = random.Random(7)
        orders = [_order(rng) for _ in range(128)]
        cluster = Cluster(("client", "server"))
        session = Session(cluster, node="client")
        service = session.service(
            "desk", ServicePolicy(transport="rmi").with_batching(32), impl=OrderDesk(),
            node="server",
        )
        profile = cProfile.Profile()
        with session:
            submit = service.future.submit
            profile.enable()
            futures = [submit(order) for order in orders]
            service.flush()
            receipts = [future.result() for future in futures]
            profile.disable()
        assert [receipt["skus"] for receipt in receipts] == [
            [line["sku"] for line in order["lines"]] for order in orders
        ]
        assert cluster.space("client").batches_sent == 4
        per_op = _calls_per_op(profile, len(orders))
        assert per_op <= self.BATCH_CEILING, f"{per_op:.1f} Python calls per batched order"

    def test_a_direct_lookup_stays_within_its_call_budget(self):
        rng = random.Random(7)
        table = {f"item-{index:02d}": rng.randrange(1_000_000) for index in range(64)}
        keys = rng.choices(sorted(table), k=1000)
        cluster = Cluster(("client", "server"))
        session = Session(cluster, node="client")
        service = session.service(
            "catalog", ServicePolicy(transport="rmi"), impl=Catalog(dict(table)), node="server"
        )
        profile = cProfile.Profile()
        with session:
            lookup = service.lookup
            profile.enable()
            answers = [lookup(key) for key in keys]
            profile.disable()
        assert answers == [table[key] for key in keys]
        assert cluster.space("client").batches_sent == 0  # single-call frames
        per_call = _calls_per_op(profile, len(keys))
        assert per_call <= self.CEILING, f"{per_call:.1f} Python calls per direct lookup"

    def test_a_batch_of_lookups_stays_within_its_call_budget(self):
        rng = random.Random(7)
        table = {f"item-{index:02d}": rng.randrange(1_000_000) for index in range(64)}
        keys = rng.choices(sorted(table), k=256)
        cluster = Cluster(("client", "server"))
        session = Session(cluster, node="client")
        service = session.service(
            "catalog", ServicePolicy(transport="rmi").with_batching(32),
            impl=Catalog(dict(table)), node="server",
        )
        profile = cProfile.Profile()
        with session:
            lookup = service.future.lookup
            profile.enable()
            futures = [lookup(key) for key in keys]
            service.flush()
            answers = [future.result() for future in futures]
            profile.disable()
        assert answers == [table[key] for key in keys]
        assert cluster.space("client").batches_sent == 8
        per_op = _calls_per_op(profile, len(keys))
        assert per_op <= self.SMALL_BATCH_CEILING, f"{per_op:.1f} Python calls per batched lookup"
