"""Generated batching/pipelining-aware proxies (``A_O_BatchProxy_<T>``).

PR 1 made callers opt into batching by wrapping a generated proxy in a
``BatchingProxy``; the ROADMAP flagged that generated proxies should emit
batching-aware variants natively.  These tests pin that: the transformation
now generates, per transport, a proxy whose methods buffer into batch
windows and return futures — and which can be attached to a pipeline
scheduler for asynchronous streaming — with the equivalent source listing
emitted alongside the classic artifacts.
"""

from __future__ import annotations

import ast

import pytest
import sample_app

from repro.api import ServicePolicy, Session
from repro.api.errors import GenerationError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.pipelining import InvocationFuture


@pytest.fixture
def app():
    return ApplicationTransformer(all_local_policy()).transform(
        [sample_app.X, sample_app.Y, sample_app.Z]
    )


@pytest.fixture
def cluster():
    return Cluster(("client", "server"))


class TestGeneratedClasses:
    def test_batch_proxy_generated_per_transport(self, app):
        artifacts = app.artifacts("Y")
        for transport in ("soap", "rmi", "corba"):
            cls = artifacts.batch_proxy_for(transport)
            assert cls.__name__ == f"Y_O_BatchProxy_{transport.upper()}"
            assert cls._repro_role == "batch-proxy"
            assert cls._repro_transport == transport

    def test_batch_proxy_implements_the_instance_interface(self, app):
        cls = app.artifacts("Y").batch_proxy_for("rmi")
        assert issubclass(cls, app.interface("Y"))

    def test_unknown_transport_raises(self, app):
        with pytest.raises(GenerationError):
            app.artifacts("Y").batch_proxy_for("carrier-pigeon")

    def test_methods_buffer_and_return_futures(self, app, cluster):
        intake = sample_app.Y(5)
        reference = cluster.space("server").export(intake, interface_name="Y_O_Int")
        proxy = app.artifacts("Y").batch_proxy_for("rmi")(
            reference, cluster.space("client"), max_batch=4
        )
        before = cluster.metrics.total_messages
        futures = [proxy.n(i) for i in range(3)]
        assert all(isinstance(f, InvocationFuture) for f in futures)
        assert cluster.metrics.total_messages == before  # nothing shipped yet
        assert proxy.pending_batched_calls() == 3
        proxy.flush()
        assert [f.result() for f in futures] == [intake_free_n(5, i) for i in range(3)]
        # One batch message + one response for the whole window.
        assert cluster.metrics.total_messages - before == 2

    def test_window_auto_flushes(self, app, cluster):
        intake = sample_app.Y(1)
        reference = cluster.space("server").export(intake, interface_name="Y_O_Int")
        proxy = app.artifacts("Y").batch_proxy_for("rmi")(
            reference, cluster.space("client"), max_batch=2
        )
        before = cluster.metrics.total_messages
        first = proxy.n(1)
        second = proxy.n(2)  # fills the window of 2
        assert first.done and second.done
        assert cluster.metrics.total_messages - before == 2

    def test_attach_streams_through_a_session_scheduler(self, app, cluster):
        """The pipelining-aware path: no manual wrapping, just attach."""
        intake = sample_app.Y(3)
        reference = cluster.space("server").export(intake, interface_name="Y_O_Int")
        with Session(cluster, node="client") as session:
            scheduler = session._scheduler_for(
                ServicePolicy(transport="rmi", batch_window=2, pipeline_depth=2)
            )
            proxy = app.artifacts("Y").batch_proxy_for("rmi")(
                reference, cluster.space("client")
            ).attach(scheduler)
            futures = [proxy.n(i) for i in range(6)]
            scheduler.drain()
            assert [f.result() for f in futures] == [intake_free_n(3, i) for i in range(6)]
            assert scheduler.batches_shipped >= 3

    def test_rebinding_resets_the_buffer_target(self, app, cluster):
        first, second = sample_app.Y(1), sample_app.Y(100)
        ref_a = cluster.space("server").export(first, interface_name="Y_O_Int")
        ref_b = cluster.space("server").export(second, interface_name="Y_O_Int")
        proxy = app.artifacts("Y").batch_proxy_for("rmi")(ref_a, cluster.space("client"))
        assert proxy.n(1).result() == intake_free_n(1, 1)
        proxy.bind(ref_b, cluster.space("client"))
        assert proxy.n(1).result() == intake_free_n(100, 1)

    def test_rebinding_ships_the_buffered_tail_first(self, app, cluster):
        """bind() must not strand futures buffered for the old binding."""
        first, second = sample_app.Y(1), sample_app.Y(100)
        ref_a = cluster.space("server").export(first, interface_name="Y_O_Int")
        ref_b = cluster.space("server").export(second, interface_name="Y_O_Int")
        proxy = app.artifacts("Y").batch_proxy_for("rmi")(
            ref_a, cluster.space("client"), max_batch=8
        )
        buffered = proxy.n(1)
        proxy.bind(ref_b, cluster.space("client"))
        assert buffered.done  # shipped to the OLD target before rebinding
        assert buffered.result() == intake_free_n(1, 1)

    def test_attaching_an_engine_ships_the_buffered_tail_first(self, app, cluster):
        """attach() must not strand calls buffered before the switch."""
        intake = sample_app.Y(5)
        reference = cluster.space("server").export(intake, interface_name="Y_O_Int")
        proxy = app.artifacts("Y").batch_proxy_for("rmi")(
            reference, cluster.space("client"), max_batch=8
        )
        buffered = proxy.n(2)
        with Session(cluster, node="client") as session:
            scheduler = session._scheduler_for(
                ServicePolicy(transport="rmi", batch_window=2, pipeline_depth=2)
            )
            proxy.attach(scheduler)
            assert buffered.done  # shipped before the engine took over
            assert buffered.result() == intake_free_n(5, 2)
            streamed = proxy.n(3)
            scheduler.drain()
            assert streamed.result() == intake_free_n(5, 3)

    def test_reconfiguring_ships_the_buffered_tail_first(self, app, cluster):
        """configure_batching() must not strand futures either."""
        intake = sample_app.Y(2)
        reference = cluster.space("server").export(intake, interface_name="Y_O_Int")
        proxy = app.artifacts("Y").batch_proxy_for("rmi")(
            reference, cluster.space("client"), max_batch=8
        )
        buffered = proxy.n(3)
        proxy.configure_batching(max_batch=64)
        assert buffered.done and buffered.result() == intake_free_n(2, 3)
        assert proxy.pending_batched_calls() == 0


class TestReservedControlNames:
    """Interface methods must not shadow the batching control plane."""

    class Buffer:
        """A buffer-like class whose member names collide with the mixin."""

        def __init__(self):
            self.items = []

        def add(self, value):
            items = self.items
            items.append(value)
            self.items = items
            return len(items)

        def flush(self):
            count = len(self.items)
            self.items = []
            return count

    def _proxy(self, cluster):
        app = ApplicationTransformer(all_local_policy()).transform([self.Buffer])
        impl = self.Buffer()
        reference = cluster.space("server").export(impl, interface_name="Buffer_O_Int")
        proxy = app.artifacts("Buffer").batch_proxy_for("rmi")(
            reference, cluster.space("client"), max_batch=8
        )
        return proxy, impl

    def test_flush_keeps_control_plane_semantics(self, cluster):
        proxy, impl = self._proxy(cluster)
        futures = [proxy.add(i) for i in range(3)]
        assert proxy.pending_batched_calls() == 3
        assert proxy.flush() is None  # the mixin's flush: ships the window
        assert [f.result() for f in futures] == [1, 2, 3]
        assert impl.items == [0, 1, 2]

    def test_colliding_remote_member_reachable_via_enqueue(self, cluster):
        proxy, impl = self._proxy(cluster)
        proxy.add(1)
        proxy.flush()
        future = proxy._enqueue("flush", ())  # the REMOTE flush
        assert future.result() == 1  # Buffer.flush returned its item count
        assert impl.items == []

    def test_emitted_listing_skips_reserved_names(self):
        from repro.core import codegen
        from repro.core.introspect import class_model_from_python

        model = class_model_from_python(self.Buffer)
        sources = codegen.emit_class_artifacts(model, {"Buffer"}, {"Buffer": model}, ("rmi",))
        listing = sources["Buffer_O_BatchProxy_RMI"]
        assert "def add(" in listing
        assert "def flush(" not in listing
        assert "reserved by the batching" in listing


class TestEmittedSource:
    def test_emit_includes_the_batch_proxy_listing(self, app):
        sources = app.emit_sources("Y", transports=("rmi",))
        assert "Y_O_BatchProxy_RMI" in sources
        source = sources["Y_O_BatchProxy_RMI"]
        ast.parse(source)  # valid Python
        assert "BatchingDispatchMixin" in source
        assert "_enqueue" in source
        # The emitted class carries the transport, like the live artifact —
        # otherwise executed listings would ship over the default transport.
        assert "_repro_transport = 'rmi'" in source

    def test_emitted_module_imports_the_mixin(self, app):
        from repro.core import codegen
        from repro.core.introspect import class_model_from_python

        model = class_model_from_python(sample_app.Y)
        module = codegen.emit_module(model, {"X", "Y", "Z"}, {"Y": model}, ("rmi",))
        ast.parse(module)
        assert "from repro.runtime.batching import BatchingDispatchMixin" in module


def intake_free_n(base: int, j: int) -> int:
    """What ``Y(base).n(j)`` returns (mirrors tests/sample_app.py)."""
    return sample_app.Y(base).n(j)
