"""The coherent client-side result cache (runtime/caching + the wire frames).

Covers the subsystem bottom-up: control-frame round trips, the
:class:`~repro.runtime.caching.CachePolicy` value object, the
:class:`~repro.runtime.caching.ResultCache` mechanics (LRU, leases, the
version-token race guard), the façade integration (hits cost no messages,
writes invalidate **before** they are acknowledged, piggybacked
invalidations ride batch responses), cacheability metadata on generated
artifacts, and the adaptive policy's hit-rate discount.
"""

from __future__ import annotations

import pytest

from repro.api import CachePolicy, ServicePolicy, Session, cacheable
from repro.api.errors import PolicyError, TransportError
from repro.core.interfaces import cacheable_members, is_cacheable
from repro.runtime.caching import CacheManager, freeze_arguments
from repro.runtime.cluster import Cluster
from repro.transports.base import (
    attach_invalidations,
    frame_invalidation,
    frame_subscription,
    parse_invalidation_body,
    parse_subscription,
    split_invalidations,
)
from repro.workloads.cached_catalog import run_cached_catalog_scenario


class Catalog:
    """A tiny key/value service with cacheable reads and plain writes."""

    def __init__(self):
        self.items = {}
        self.version = 0

    @cacheable
    def get_item(self, key):
        return self.items.get(key)

    @cacheable
    def item_count(self):
        return len(self.items)

    def put_item(self, key, value):
        self.items[key] = value
        self.version += 1
        return self.version


@pytest.fixture
def cluster():
    return Cluster(("reader", "writer", "server"))


def _sessions(cluster, reader_policy, writer_policy=None, impl=None):
    impl = impl if impl is not None else Catalog()
    reader = Session(cluster, node="reader")
    writer = Session(cluster, node="writer")
    svc = reader.service("catalog", reader_policy, impl=impl, node="server")
    wsvc = writer.service(
        "catalog", writer_policy or ServicePolicy(transport="rmi")
    )
    return reader, writer, svc, wsvc, impl


CACHED = ServicePolicy(transport="rmi").with_caching(lease_ms=500)


def _served(payload):
    """Hand ``payload`` to a server's dispatcher, as a client's frame."""
    return Cluster(("client", "server")).network.send_request("client", "server", payload)


class TestControlFrames:
    def test_invalidation_round_trip(self):
        payload = frame_invalidation(["obj-2", "obj-1"])
        assert parse_invalidation_body(payload) == (["obj-1", "obj-2"], None)
        assert _served(payload) == b"!invack\n2"

    def test_subscription_round_trip(self):
        payload = frame_subscription("obj-1", "client", 0.25)
        body = parse_subscription(payload)
        assert body["object_id"] == "obj-1"
        assert body["node"] == "client"
        assert body["lease"] == 0.25
        assert _served(payload) == b"!suback\nok"

    def test_piggyback_attach_and_split(self):
        inner = b"rmi\n{...}"
        wrapped = attach_invalidations(inner, ["obj-1"])
        ids, unwrapped = split_invalidations(wrapped)
        assert ids == ["obj-1"]
        assert unwrapped == inner

    def test_piggyback_without_ids_is_identity(self):
        inner = b"rmi\nbody"
        assert attach_invalidations(inner, []) == inner
        assert split_invalidations(inner) == ([], inner)

    @pytest.mark.parametrize(
        "parse, payload",
        [
            (parse_invalidation_body, b"!inv\nnot json"),
            (split_invalidations, b"!inv+\nnot json"),
            (parse_subscription, b"!sub\n[1,2]"),
            (parse_subscription, b'!sub\n{"node": "n", "lease": 0.25}'),
            (parse_subscription, b'!sub\n{"object_id": "o", "node": "n"}'),
            (parse_subscription, frame_subscription("o", "n", None)),
            (parse_subscription, frame_subscription("o", "n", "abc")),
            (parse_subscription, frame_subscription("o", "n", True)),
            (parse_subscription, frame_subscription("o", "n", -1.0)),
            (parse_subscription, frame_subscription("o", "n", 0)),
            (parse_subscription, frame_subscription("o", "n", float("inf"))),
            (parse_subscription, frame_subscription("o", "n", float("nan"))),
            (_served, frame_subscription("o", "n", "abc")),
            (_served, frame_subscription("o", "n", -1.0)),
        ],
        ids=[
            "inv-not-json",
            "piggyback-not-json",
            "sub-not-an-object",
            "sub-without-object-id",
            "sub-without-lease",
            "sub-null-lease",
            "sub-text-lease",
            "sub-boolean-lease",
            "sub-negative-lease",
            "sub-zero-lease",
            "sub-infinite-lease",
            "sub-nan-lease",
            "served-sub-text-lease",
            "served-sub-negative-lease",
        ],
    )
    def test_malformed_frames_raise(self, parse, payload):
        with pytest.raises(TransportError):
            parse(payload)


class TestServedSubscriptions:
    """What a ``!sub`` frame served by an address space records."""

    def test_a_subscription_to_an_object_not_exported_is_not_recorded(self):
        """Ids are never reused: such an entry could never be invalidated.
        The answer is the ordinary acknowledgement all the same."""
        cluster = Cluster(("client", "server"))
        server = cluster.space("server")
        reference = server.export(Catalog())
        server.unexport(reference)
        for object_id in (reference.object_id, "server:999"):
            answer = cluster.network.send_request(
                "client", "server", frame_subscription(object_id, "client", 1e9)
            )
            assert answer == b"!suback\nok"
        assert server.coherence.subscribers == {}

    def test_a_subscription_naming_another_node_than_its_sender_is_refused(self):
        """Recorded, it would make every write to the object wait out the
        lease of a node that never subscribed, once that node is down."""
        cluster = Cluster(("client", "server", "third"))
        server = cluster.space("server")
        reference = server.export(Catalog())
        with pytest.raises(TransportError, match="another node"):
            cluster.network.send_request(
                "client", "server", frame_subscription(reference.object_id, "third", 5.0)
            )
        assert server.coherence.subscribers == {}
        cluster.network.failures.crash_node("third")
        started = cluster.clock.now
        cluster.space("client").invoke_remote(reference, "put_item", ("k", 1))
        assert cluster.clock.now - started < 0.01


class TestCachePolicy:
    def test_defaults(self):
        policy = CachePolicy()
        assert policy.mode == "leases"
        assert policy.lease_seconds == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_entries": 0},
            {"lease_ms": 0},
            {"lease_ms": -5},
            {"mode": "psychic"},
            {"mode": "invalidate"},
            {"mode": "write_through"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PolicyError):
            CachePolicy(**kwargs)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ServicePolicy().with_caching(mode="leases"),
            lambda: run_cached_catalog_scenario(Cluster(("client",)), mode="leases"),
        ],
        ids=["with_caching", "run_cached_catalog_scenario"],
    )
    def test_the_mode_argument_is_gone(self, build):
        with pytest.raises(TypeError):
            build()

    def test_service_policy_rejects_non_cache_policy(self):
        with pytest.raises(PolicyError):
            ServicePolicy(cache="yes please")

    def test_with_caching_knobs_conflict(self):
        with pytest.raises(PolicyError):
            ServicePolicy().with_caching(CachePolicy(), lease_ms=5)

    def test_freeze_arguments_rejects_unhashable_leaves(self):
        frozen = freeze_arguments(([1, 2], {"k": {"n": 1}}), {})
        assert hash(frozen) is not None
        with pytest.raises(TypeError):
            freeze_arguments((object().__class__.__dict__,), {})


class TestCacheableMetadata:
    def test_decorator_and_members(self):
        assert is_cacheable(Catalog.get_item)
        assert not is_cacheable(Catalog.put_item)
        assert cacheable_members(Catalog) == {"get_item", "item_count"}

    def test_markers_survive_subclassing(self):
        class Special(Catalog):
            pass

        assert "get_item" in cacheable_members(Special)

    def test_interface_extraction_flags_getters_and_marked_methods(self):
        import sample_app
        from repro.core.introspect import class_model_from_python
        from repro.core.interfaces import extract_instance_interface

        model = class_model_from_python(Catalog)
        interface = extract_instance_interface(model)
        names = set(interface.cacheable_method_names())
        assert "get_item" in names and "item_count" in names
        assert "put_item" not in names
        # Accessor getters are always cacheable; setters never are.
        y_interface = extract_instance_interface(class_model_from_python(sample_app.Y))
        y_names = set(y_interface.cacheable_method_names())
        assert any(name.startswith("get_") for name in y_names)
        assert not any(name.startswith("set_") for name in y_names)


class TestResultCacheMechanics:
    def _cache(self, cluster, policy=None):
        manager = CacheManager(cluster.space("reader"))
        cache = manager.create_cache(
            policy or CachePolicy(lease_ms=500), frozenset({"get_item"})
        )
        ref = cluster.space("server").export(Catalog())
        return manager, cache, ref

    def test_miss_fill_hit(self, cluster):
        manager, cache, ref = self._cache(cluster)
        hit, _ = cache.lookup(ref, "get_item", ("a",), {})
        assert not hit
        token = cache.begin_fill(ref)
        assert cache.store(ref, "get_item", ("a",), {}, 41, token)
        hit, value = cache.lookup(ref, "get_item", ("a",), {})
        assert hit and value == 41
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self, cluster):
        manager, cache, ref = self._cache(cluster, CachePolicy(max_entries=2, lease_ms=500))
        for key in ("a", "b", "c"):
            cache.store(ref, "get_item", (key,), {}, key, cache.begin_fill(ref))
        assert len(cache) == 2
        assert not cache.lookup(ref, "get_item", ("a",), {})[0]
        assert cache.lookup(ref, "get_item", ("c",), {})[0]

    def test_lease_expiry_uses_simulated_time(self, cluster):
        manager, cache, ref = self._cache(cluster, CachePolicy(lease_ms=10))
        cache.store(ref, "get_item", ("a",), {}, 1, cache.begin_fill(ref))
        assert cache.lookup(ref, "get_item", ("a",), {})[0]
        cluster.clock.advance(0.02)  # 20 ms > the 10 ms lease
        assert not cache.lookup(ref, "get_item", ("a",), {})[0]
        assert cache.entries_expired == 1

    def test_version_race_discards_the_fill(self, cluster):
        """An invalidation arriving while a read is in flight voids its fill."""
        manager, cache, ref = self._cache(cluster)
        token = cache.begin_fill(ref)
        manager.bump_version(ref.object_id)  # a write raced the read
        assert not cache.store(ref, "get_item", ("a",), {}, "stale", token)
        assert cache.racy_fills_discarded == 1
        assert not cache.lookup(ref, "get_item", ("a",), {})[0]

    def test_pending_write_bypasses_lookup(self, cluster):
        from repro.runtime.pipelining import InvocationFuture

        manager, cache, ref = self._cache(cluster)
        cache.store(ref, "get_item", ("a",), {}, 1, cache.begin_fill(ref))
        write = InvocationFuture("put_item")
        cache.note_write(ref, write)
        assert not cache.lookup(ref, "get_item", ("a",), {})[0]
        write._resolve(7)
        # Entries were dropped by the write; a fresh fill works again.
        cache.store(ref, "get_item", ("a",), {}, 2, cache.begin_fill(ref))
        assert cache.lookup(ref, "get_item", ("a",), {}) == (True, 2)

    def test_manager_close_detaches_listener(self, cluster):
        space = cluster.space("reader")
        before = len(space.coherence.listeners)
        manager = CacheManager(space)
        assert len(space.coherence.listeners) == before + 1
        manager.close()
        manager.close()
        assert len(space.coherence.listeners) == before


class TestFacadeCaching:
    def test_hits_cost_no_messages(self, cluster):
        reader, writer, svc, wsvc, impl = _sessions(cluster, CACHED)
        wsvc.put_item("a", 1)
        assert svc.get_item("a") == 1
        before = cluster.metrics.total_messages
        for _ in range(10):
            assert svc.get_item("a") == 1
        assert cluster.metrics.total_messages == before
        assert svc.cache.hits == 10
        reader.close(), writer.close()

    def test_foreign_write_invalidates_before_it_is_acknowledged(self, cluster):
        reader, writer, svc, wsvc, impl = _sessions(cluster, CACHED)
        wsvc.put_item("a", 1)
        assert svc.get_item("a") == 1
        wsvc.put_item("a", 2)  # the ack carries the coherence guarantee
        assert cluster.space("reader").coherence.invalidations_received == 1
        assert svc.get_item("a") == 2
        reader.close(), writer.close()

    def test_own_write_through_cached_service(self, cluster):
        reader, writer, svc, wsvc, impl = _sessions(cluster, CACHED)
        svc.put_item("a", 1)
        assert svc.get_item("a") == 1
        svc.put_item("a", 2)
        assert svc.get_item("a") == 2
        reader.close(), writer.close()

    def test_batched_write_piggybacks_the_invalidation(self, cluster):
        """A cached+batched client's own writes invalidate via the batch
        response, not a separate !inv message."""
        policy = ServicePolicy(transport="rmi", batch_window=4).with_caching(
            lease_ms=500
        )
        reader, writer, svc, wsvc, impl = _sessions(cluster, policy)
        assert svc.get_item("a") is None  # fill (and subscribe)
        futures = [svc.future.put_item("a", n) for n in (1, 2, 3)]
        svc.flush()
        assert [f.result() for f in futures] == [1, 2, 3]
        assert cluster.space("server").invalidations_piggybacked == 1
        assert cluster.space("server").invalidations_sent == 0
        assert svc.get_item("a") == 3
        reader.close(), writer.close()

    def test_non_cacheable_members_always_dispatch(self, cluster):
        reader, writer, svc, wsvc, impl = _sessions(cluster, CACHED)
        svc.put_item("a", 1)
        before = cluster.metrics.total_messages
        svc.put_item("a", 2)
        assert cluster.metrics.total_messages > before
        reader.close(), writer.close()

    def test_attaching_session_uses_explicit_cacheable_list(self, cluster):
        """Without the impl class, CachePolicy(cacheable=...) supplies the
        metadata."""
        impl = Catalog()
        owner = Session(cluster, node="writer")
        owner.service("catalog", ServicePolicy(transport="rmi"), impl=impl, node="server")
        reader = Session(cluster, node="reader")
        svc = reader.service(
            "catalog",
            ServicePolicy(transport="rmi").with_caching(
                CachePolicy(lease_ms=500, cacheable=("get_item",))
            ),
        )
        impl.items["a"] = 5
        assert svc.get_item("a") == 5
        before = cluster.metrics.total_messages
        assert svc.get_item("a") == 5
        assert cluster.metrics.total_messages == before
        reader.close(), owner.close()

    def test_session_close_detaches_cache_manager(self, cluster):
        reader, writer, svc, wsvc, impl = _sessions(cluster, CACHED)
        assert len(cluster.space("reader").coherence.listeners) == 1
        reader.close()
        assert len(cluster.space("reader").coherence.listeners) == 0
        assert reader.cache_manager._closed
        writer.close()

    def test_shorter_lease_on_the_same_node_cannot_silence_invalidations(
        self, cluster
    ):
        """Regression: a second session on the same node subscribing with a
        shorter lease must not overwrite (and prematurely expire) the
        longer-lease subscription — the server keeps the later expiry."""
        impl = Catalog()
        long_reader = Session(cluster, node="reader")
        svc_long = long_reader.service(
            "catalog",
            ServicePolicy(transport="rmi").with_caching(lease_ms=1000),
            impl=impl,
            node="server",
        )
        writer = Session(cluster, node="writer")
        wsvc = writer.service("catalog", ServicePolicy(transport="rmi"))
        wsvc.put_item("k", "v1")
        assert svc_long.get_item("k") == "v1"  # cached under the long lease
        short_reader = Session(cluster, node="reader")
        svc_short = short_reader.service(
            "catalog",
            ServicePolicy(transport="rmi").with_caching(
                CachePolicy(lease_ms=1, cacheable=("get_item",))
            ),
        )
        assert svc_short.get_item("k") == "v1"  # subscribes with a 1 ms lease
        cluster.clock.advance(0.01)  # past the short lease, within the long one
        wsvc.put_item("k", "v2")
        assert svc_long.get_item("k") == "v2", "invalidation was silenced"
        long_reader.close(), short_reader.close(), writer.close()

    def test_lost_invalidation_waits_the_lease_out(self, cluster):
        """An undeliverable !inv frame falls back to the lease protocol: the
        write stalls until the subscriber's entries have expired."""
        reader, writer, svc, wsvc, impl = _sessions(
            cluster, ServicePolicy(transport="rmi").with_caching(lease_ms=50)
        )
        wsvc.put_item("a", 1)
        assert svc.get_item("a") == 1
        # Partition the reader so the invalidation cannot be delivered.
        cluster.network.failures.partition({"reader"}, {"writer", "server"})
        wsvc.put_item("a", 2)  # must wait out the reader's lease
        cluster.network.failures.heal()
        assert svc.get_item("a") == 2  # lease expired during the stall: no stale read
        # The lost !inv is never retried; long after the heal the read still
        # returns the committed value.
        cluster.clock.advance(60.0)
        assert svc.get_item("a") == 2
        reader.close(), writer.close()


class Inspector:
    """Cacheable answers that tell apart arguments Python calls equal."""

    @cacheable
    def kind(self, value):
        return type(value).__name__

    @cacheable
    def seq(self, value):
        return repr(value)


class TestTypedKeys:
    """Arguments the wire keeps apart never share an entry: keys carry exact
    types at every level."""

    @pytest.mark.parametrize(
        "member, first, second",
        [
            ("kind", (1,), (True,)),
            ("kind", (1,), (1.0,)),
            ("kind", (True,), (1.0,)),
            ("seq", ([1, 2],), ((1, 2),)),
            ("seq", ({"a": 1},), ((("a", 1),),)),
            ("seq", ([1],), ([True],)),
            ("seq", ([[1]],), ([(1,)],)),
            ("seq", ({"a": 1},), ({"a": 1.0},)),
            ("seq", ({1, 2},), ({1.0, 2.0},)),
            ("seq", ({"a": 1, "b": 2},), ({"b": 2, "a": 1},)),
        ],
    )
    def test_equal_but_differently_typed_arguments_miss(self, cluster, member, first, second):
        with Session(cluster, node="reader") as session:
            svc = session.service("inspector", CACHED, impl=Inspector(), node="server")
            expected = [getattr(Inspector(), member)(*args) for args in (first, second)]
            assert expected[0] != expected[1]
            assert [svc.call(member, *args) for args in (first, second)] == expected
            assert [svc.call(member, *args) for args in (first, second)] == expected
            assert (svc.cache.misses, svc.cache.hits) == (2, 2)

    def test_keyword_arguments_keep_their_types(self, cluster):
        with Session(cluster, node="reader") as session:
            svc = session.service("inspector", CACHED, impl=Inspector(), node="server")
            assert svc.kind(value=1) == "int"
            assert svc.kind(value=True) == "bool"
            assert svc.kind(value=1) == "int"
            assert (svc.cache.misses, svc.cache.hits) == (2, 1)


class Ledger:
    """Serves one stored result; ``label`` and ``blob`` are leaf results."""

    def __init__(self, result):
        self.result = result

    @cacheable
    def snapshot(self):
        return self.result

    @cacheable
    def label(self):
        return "ledger-label"

    @cacheable
    def blob(self):
        return b"\x00\x01"


def _extend_dict(value):
    value["a"].append(99)
    value["b"] = 2


def _extend_list(value):
    value[0].append(99)
    value.append(3)


class TestHitCopies:
    """A hit hands every caller its own containers; leaves stay shared."""

    @pytest.mark.parametrize(
        "result, mutate",
        [
            ({"a": [1]}, _extend_dict),
            ([[1], {"k": [2]}], _extend_list),
            (([1], 2), lambda value: value[0].append(99)),
            ({1, 2}, lambda value: value.add(99)),
        ],
        ids=["dict", "list", "tuple", "set"],
    )
    def test_mutating_a_result_cannot_change_later_hits(self, cluster, result, mutate):
        with Session(cluster, node="reader") as session:
            svc = session.service("ledger", CACHED, impl=Ledger(result), node="server")
            mutate(svc.snapshot())  # the miss's value
            mutate(svc.snapshot())  # a hit's value
            assert svc.snapshot() == result
            assert svc.cache.hits == 2

    def test_leaf_results_are_shared(self, cluster):
        with Session(cluster, node="reader") as session:
            svc = session.service("ledger", CACHED, impl=Ledger(None), node="server")
            svc.label(), svc.blob()
            assert svc.label() is svc.label()
            assert svc.blob() is svc.blob()


def test_settled_writes_leave_the_pending_map(cluster):
    """Each write is pruned when its future settles, not by a later read."""
    policy = ServicePolicy(transport="rmi", batch_window=4).with_caching(lease_ms=500)
    reader, writer, svc, wsvc, impl = _sessions(cluster, policy)
    futures = [svc.future.put_item(f"k{n % 8}", n) for n in range(200)]
    svc.drain()
    assert all(future.ok for future in futures)
    assert svc.cache._pending_writes == {}
    assert svc.get_item("k7") == 199
    reader.close(), writer.close()


#: How each call form reads a value back.
CALL_FORMS = {
    "attribute": lambda svc, handle, name, /, *args, **kw: getattr(svc, name)(*args, **kw),
    "call()": lambda svc, handle, name, /, *args, **kw: svc.call(name, *args, **kw),
    "future.m()": lambda svc, handle, name, /, *args, **kw: (
        getattr(svc.future, name)(*args, **kw).result()
    ),
    'future("m")': lambda svc, handle, name, /, *args, **kw: svc.future(name, *args, **kw).result(),
    "adopted handle": lambda svc, handle, name, /, *args, **kw: getattr(handle, name)(*args, **kw),
}


class Labeller:
    """A class whose method takes a keyword named like ``Service.call``'s own."""

    def __init__(self, prefix):
        self.prefix = prefix

    def label(self, member):
        return self.prefix + member


def _adopted_handle(classes, class_name, *init):
    """A transformed object on a client/server cluster, ready to be adopted."""
    from repro.core.transformer import ApplicationTransformer
    from repro.policy.policy import all_local_policy

    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(classes)
    cluster = Cluster(("client", "server"))
    app.deploy(cluster, default_node="client")
    return cluster, app.new(class_name, *init)

#: Steps of one scenario: a call, or ADVANCE (past the 500 ms lease).
ADVANCE = None
READ, WRITE = ("get_base",), ("set_base", 5)

#: scenario -> (steps, traced, values, (hits, misses, stores, write_bypasses,
#: entries_expired), cache instants, server spans)
CALL_FORM_SCENARIOS = {
    "hit": ([READ, READ], False, [13, 13], (1, 1, 1, 0, 0), ["miss", "hit"], 0),
    "miss": ([READ], False, [13], (0, 1, 1, 0, 0), ["miss"], 0),
    "write then read": (
        [READ, WRITE, READ, READ], False, [13, None, 5, 5], (1, 2, 2, 0, 0),
        ["miss", "miss", "hit"], 0,
    ),
    "expired lease": (
        [READ, ADVANCE, READ, READ], False, [13, 13, 13], (1, 2, 2, 0, 1),
        ["miss", "miss", "hit"], 0,
    ),
    "traced": ([READ, READ], True, [13, 13], (1, 1, 1, 0, 0), ["miss", "hit"], 1),
}


class TestCallFormParity:
    """Every call form runs the same cache protocol: same values, counters
    and instants, whatever the scenario."""

    @pytest.mark.parametrize("scenario", sorted(CALL_FORM_SCENARIOS))
    @pytest.mark.parametrize("form", sorted(CALL_FORMS))
    def test_every_form_behaves_the_same(self, form, scenario):
        import sample_app

        steps, traced, values, counters, instants, server_spans = CALL_FORM_SCENARIOS[scenario]
        cluster, handle = _adopted_handle([sample_app.X, sample_app.Y, sample_app.Z], "Y", 13)
        policy = ServicePolicy(transport="rmi").with_caching(lease_ms=500)
        with Session(cluster, node="client") as session:
            svc = session.service(
                "y", policy.with_tracing() if traced else policy, impl=handle, node="server"
            )
            collector = session.tracer().collector
            seen = []
            for step in steps:
                if step is ADVANCE:
                    cluster.clock.advance(1.0)
                else:
                    seen.append(CALL_FORMS[form](svc, handle, *step))
            cache = svc.cache
            assert seen == values
            assert (
                cache.hits, cache.misses, cache.stores, cache.write_bypasses,
                cache.entries_expired,
            ) == counters
            assert [
                (name, attrs) for name, _, attrs in collector.instants
                if name in ("cache-hit", "cache-miss")
            ] == [
                (f"cache-{kind}", {"member": "get_base", "object": svc.reference.object_id})
                for kind in instants
            ]
            assert sum(
                span.kind == "server"
                for trace_id in collector.trace_ids()
                for span in collector.spans(trace_id)
            ) == server_spans

    @pytest.mark.parametrize("form", sorted(CALL_FORMS))
    def test_a_keyword_named_member_reaches_the_method(self, form):
        cluster, handle = _adopted_handle([Labeller], "Labeller", "x-")
        policy = ServicePolicy(transport="rmi").with_caching(lease_ms=500, cacheable=("label",))
        with Session(cluster, node="client") as session:
            svc = session.service("labeller", policy, impl=handle, node="server")
            answers = [CALL_FORMS[form](svc, handle, "label", member="m") for _ in range(2)]
            assert answers == ["x-m", "x-m"]
            assert (svc.cache.misses, svc.cache.hits) == (1, 1)


class TestGeneratedProxyCaching:
    """A transformed object is cached by adopting its handle: the generated
    proxy carries the metadata, the session's service does the caching."""

    @pytest.fixture
    def app_cluster(self):
        import sample_app
        from repro.core.transformer import ApplicationTransformer
        from repro.policy.policy import all_local_policy

        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(
            [sample_app.X, sample_app.Y, sample_app.Z]
        )
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        return app, cluster

    @staticmethod
    def _adopt(app, cluster, base):
        handle = app.new("Y", base)
        session = Session(cluster, node="client")
        service = session.service(
            "y", ServicePolicy(transport="rmi").with_caching(lease_ms=500),
            impl=handle, node="server",
        )
        return handle, service, session

    def test_proxy_carries_cacheable_metadata(self, app_cluster):
        app, cluster = app_cluster
        proxy_cls = app.artifacts("Y").proxy_cls
        names = set(proxy_cls._repro_cacheable_members)
        assert any(name.startswith("get_") for name in names)
        assert not any(name.startswith("set_") for name in names)

    def test_adopted_handle_serves_hits_without_round_trips(self, app_cluster):
        app, cluster = app_cluster
        handle, service, session = self._adopt(app, cluster, 13)
        assert handle.get_base() == 13  # miss: fills
        before = cluster.metrics.total_messages
        assert handle.get_base() == 13  # hit: no traffic
        assert cluster.metrics.total_messages == before
        assert service.cache.hits == 1
        session.close()

    def test_adopted_handle_write_invalidates_and_refills(self, app_cluster):
        app, cluster = app_cluster
        handle, service, session = self._adopt(app, cluster, 1)
        assert handle.get_base() == 1
        handle.set_base(2)  # a write through the same handle
        assert handle.get_base() == 2
        session.close()

    def test_unknown_transport_raises_clearly(self, app_cluster):
        from repro.api.errors import UnknownTransportError

        app, cluster = app_cluster
        statics = cluster.space("server").export(app.artifacts("Y").class_local_cls())
        with pytest.raises(UnknownTransportError, match="carrier-pigeon"):
            app.proxy_for_ref(statics, cluster.space("client"), transport="carrier-pigeon")

    def test_emitted_listing_carries_cacheable_metadata(self, app_cluster):
        app, _ = app_cluster
        sources = app.emit_sources("Y")
        assert "_repro_cacheable_members" in sources["Y_O_Proxy"]
        assert "_repro_cacheable_members" in sources["Y_C_Proxy"]
