"""Unit tests for the three baseline approaches from the paper's related work."""

from __future__ import annotations

import pytest

from repro.api.errors import InvocationError, PolicyError
from repro.baselines.javaparty import (
    GenericRemoteProxy,
    JavaPartyRuntime,
    is_remote_class,
    remote_class,
)
from repro.baselines.proactive import ActiveObject, ProActiveRuntime
from repro.baselines.wrapper import ObjectWrapper, WrapperRuntime, wrap
from repro.runtime.cluster import Cluster
from repro.workloads.shared_cache import Cache


class _Counter:
    def __init__(self, start=0):
        self.value = start

    def increment(self, by=1):
        self.value += by
        return self.value

    def read(self):
        return self.value


class TestObjectWrapper:
    def test_method_calls_are_forwarded(self):
        wrapper = wrap(_Counter(5))
        assert wrapper.increment(3) == 8
        assert wrapper.read() == 8

    def test_attribute_reads_and_writes_are_forwarded(self):
        wrapper = wrap(_Counter(5))
        assert wrapper.value == 5
        wrapper.value = 11
        assert wrapper.read() == 11

    def test_every_access_is_intercepted(self):
        wrapper = wrap(_Counter())
        wrapper.increment()
        wrapper.value
        wrapper.value = 3
        assert wrapper.interception_count >= 3

    def test_wrapping_is_idempotent(self):
        wrapper = wrap(_Counter())
        assert wrap(wrapper) is wrapper

    def test_wrapper_arguments_are_unwrapped_for_the_target(self):
        class Adder:
            def total(self, counter):
                return counter.value + 1

        counter = wrap(_Counter(4))
        adder = wrap(Adder())
        assert adder.total(counter) == 5

    def test_wrapper_runtime_returns_intercepting_wrappers(self):
        runtime = WrapperRuntime()
        first = runtime.new(_Counter, 1)
        assert isinstance(first, ObjectWrapper)
        first.increment()
        assert first.interception_count >= 1

    def test_wrapper_behaviour_matches_transformed_cache(self):
        """The wrapper baseline computes the same results, just more slowly."""
        plain = Cache(4)
        wrapped = WrapperRuntime().new(Cache, 4)
        for key in range(6):
            plain.put(f"k{key}", key)
            wrapped.put(f"k{key}", key)
        assert wrapped.size() == plain.size()
        assert wrapped.get("k5") == plain.get("k5")
        assert wrapped.hit_rate() == plain.hit_rate()


class TestJavaPartyBaseline:
    def _runtime(self):
        cluster = Cluster(("home", "server"))

        @remote_class
        class RemoteCounter(_Counter):
            pass

        runtime = JavaPartyRuntime(
            cluster, home_node="home", placement={"RemoteCounter": "server"}
        )
        return cluster, runtime, RemoteCounter

    def test_remote_keyword_marks_classes(self):
        _, _, RemoteCounter = self._runtime()
        assert is_remote_class(RemoteCounter)
        assert not is_remote_class(_Counter)

    def test_annotated_classes_become_remote_proxies(self):
        cluster, runtime, RemoteCounter = self._runtime()
        counter = runtime.new(RemoteCounter, 10)
        assert isinstance(counter, GenericRemoteProxy)
        assert counter.increment(5) == 15
        assert cluster.metrics.total_messages > 0
        assert runtime.created_remote == 1

    def test_unannotated_classes_stay_local(self):
        _, runtime, _ = self._runtime()
        counter = runtime.new(_Counter, 1)
        assert isinstance(counter, _Counter)
        assert runtime.created_local == 1

    def test_placement_is_mandatory_for_remote_classes(self):
        cluster = Cluster(("home", "server"))

        @remote_class
        class Orphan(_Counter):
            pass

        runtime = JavaPartyRuntime(cluster, placement={})
        with pytest.raises(PolicyError):
            runtime.new(Orphan)

    def test_no_runtime_redistribution(self):
        _, runtime, RemoteCounter = self._runtime()
        counter = runtime.new(RemoteCounter, 0)
        with pytest.raises(PolicyError):
            runtime.redistribute(counter, "home")


class TestProActiveBaseline:
    def test_calls_are_asynchronous_futures(self):
        active = ActiveObject(_Counter(0), node_id="n1")
        future = active.increment(4)
        assert active.requests_served == 0
        assert future.get() == 4
        assert active.requests_served == 1

    def test_requests_are_served_in_fifo_order(self):
        active = ActiveObject(_Counter(0), node_id="n1")
        first = active.increment(1)
        second = active.increment(10)
        active.serve_all()
        assert first.get() == 1
        assert second.get() == 11

    def test_future_carries_exceptions(self):
        class Fragile:
            def explode(self):
                raise RuntimeError("bang")

        active = ActiveObject(Fragile(), node_id="n1")
        future = active.explode()
        with pytest.raises(RuntimeError):
            future.get()

    def test_future_without_request_cannot_resolve(self):
        active = ActiveObject(_Counter(0), node_id="n1")
        future = active.increment(1)
        active.serve_all()
        orphan = type(future)(active)
        with pytest.raises(InvocationError):
            orphan.get()

    def test_runtime_places_active_objects_on_nodes(self):
        cluster = Cluster(("a", "b"))
        runtime = ProActiveRuntime(cluster)
        active = runtime.new_active(_Counter, (7,), node="b")
        assert active._node_id == "b"
        future = active.read()
        assert active.serve_all() == 1
        assert future.get() == 7

    def test_unknown_node_rejected(self):
        runtime = ProActiveRuntime(Cluster(("a",)))
        with pytest.raises(InvocationError):
            runtime.new_active(_Counter, (), node="z")
