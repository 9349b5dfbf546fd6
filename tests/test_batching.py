"""Tests for the batched & pipelined invocation subsystem.

One framed network message carries N requests; responses preserve order;
application errors inside a successful batch stay isolated per call, while a
transport-level failure (drop, partition, crash) fails the whole batch
atomically (the "bare batch" view of ``tests/matrix.py``'s fault table).
The BatchingProxy layers auto-flush buffering on top.
"""

from __future__ import annotations

import pytest

import matrix
from repro.api import ServicePolicy
from repro.api.errors import (
    InvocationError,
    MessageDroppedError,
    TransportError,
)
from repro.network.failures import FailureModel
from repro.runtime.batching import BatchingProxy, BatchResult
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import run_order_stream
from repro.workloads.orders import OrderStore


@pytest.fixture
def cluster():
    return Cluster(("client", "server"))


@pytest.fixture
def exported_store(cluster):
    store = OrderStore()
    reference = cluster.space("server").export(store)
    return store, reference


def _place_calls(reference, count, start=0):
    return [
        (reference, "place", (f"sku-{index}", 1, 10 + index), {})
        for index in range(start, start + count)
    ]


class TestInvokeRemoteMany:
    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    def test_batch_results_preserve_request_order(self, cluster, exported_store, transport):
        store, reference = exported_store
        results = cluster.space("client").invoke_remote_many(
            _place_calls(reference, 8), transport=transport
        )
        assert [r.unwrap() for r in results] == list(range(8))
        assert [r.index for r in results] == list(range(8))
        assert store.order_count() == 8

    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    def test_batch_travels_as_one_message_round_trip(
        self, cluster, exported_store, transport
    ):
        _, reference = exported_store
        cluster.network.reset_metrics()
        cluster.space("client").invoke_remote_many(
            _place_calls(reference, 16), transport=transport
        )
        # One request message plus one response message, regardless of N.
        assert cluster.metrics.total_messages == 2

    def test_batch_is_cheaper_than_sequential_calls(self, cluster, exported_store):
        _, reference = exported_store
        client = cluster.space("client")
        started = cluster.clock.now
        for call in _place_calls(reference, 16):
            client.invoke_remote(call[0], call[1], call[2], call[3])
        sequential = cluster.clock.now - started
        started = cluster.clock.now
        client.invoke_remote_many(_place_calls(reference, 16, start=16))
        batched = cluster.clock.now - started
        assert batched < sequential / 3

    def test_empty_batch_is_a_no_op(self, cluster):
        assert cluster.space("client").invoke_remote_many([]) == []
        assert cluster.metrics.total_messages == 0

    def test_batch_rejects_mixed_destinations(self, cluster):
        ref_a = cluster.space("server").export(OrderStore())
        ref_b = cluster.space("client").export(OrderStore())
        with pytest.raises(InvocationError):
            cluster.space("client").invoke_remote_many(
                [(ref_a, "order_count", (), {}), (ref_b, "order_count", (), {})]
            )


class TestBatchingProxy:
    def test_calls_buffer_until_flush(self, cluster, exported_store):
        store, reference = exported_store
        proxy = BatchingProxy(reference, space=cluster.space("client"), max_batch=32)
        pending = [proxy.place(f"sku-{i}", 1, 10) for i in range(5)]
        assert store.order_count() == 0  # nothing shipped yet
        assert len(proxy) == 5
        results = proxy.flush()
        assert [r.unwrap() for r in results] == [0, 1, 2, 3, 4]
        assert [p.result() for p in pending] == [0, 1, 2, 3, 4]
        assert store.order_count() == 5

    def test_auto_flush_at_max_batch(self, cluster, exported_store):
        store, reference = exported_store
        proxy = BatchingProxy(reference, space=cluster.space("client"), max_batch=3)
        for index in range(7):
            proxy.place(f"sku-{index}", 1, 10)
        assert store.order_count() == 6  # two full windows auto-flushed
        assert proxy.scheduler.batches_shipped == 2
        assert len(proxy) == 1
        proxy.flush()
        assert store.order_count() == 7
        assert proxy.scheduler.calls_submitted == 7

    def test_result_triggers_flush_of_pending_tail(self, cluster, exported_store):
        store, reference = exported_store
        proxy = BatchingProxy(reference, space=cluster.space("client"), max_batch=32)
        pending = proxy.place("sku", 2, 10)
        assert pending.result() == 0
        assert store.order_count() == 1

    def test_context_manager_flushes_on_clean_exit(self, cluster, exported_store):
        store, reference = exported_store
        with BatchingProxy(reference, space=cluster.space("client")) as proxy:
            proxy.place("sku", 1, 10)
        assert store.order_count() == 1

    def test_network_failure_poisons_all_pending_calls(self):
        failures = FailureModel(drop_probability=1.0)
        cluster = Cluster(("client", "server"), failures=failures)
        reference = cluster.space("server").export(OrderStore())
        proxy = BatchingProxy(reference, space=cluster.space("client"), max_batch=32)
        pending = [proxy.place(f"sku-{i}", 1, 10) for i in range(3)]
        with pytest.raises(MessageDroppedError):
            proxy.flush()
        for placeholder in pending:
            with pytest.raises(MessageDroppedError):
                placeholder.result()

    def test_wraps_generated_proxies(self, remote_y_app):
        """A transformed application's proxy can opt in to batching."""
        y = remote_y_app.new("Y", 3)
        batch = BatchingProxy(y, max_batch=16)
        pending = [batch.n(value) for value in range(6)]
        batch.flush()
        assert [p.result() for p in pending] == [3 + v for v in range(6)]

    def test_survives_migration_of_the_wrapped_handle(self):
        """Batches follow a rebindable handle when the adaptive layer moves
        its object — the construction-time reference must not go stale."""
        import sample_app
        from repro.core.transformer import ApplicationTransformer
        from repro.policy.policy import all_local_policy
        from repro.runtime.redistribution import DistributionController

        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform(
            [sample_app.X, sample_app.Y, sample_app.Z]
        )
        cluster = Cluster(("front", "back"))
        app.deploy(cluster, default_node="front")
        controller = DistributionController(app, cluster)
        y = app.new("Y", 100)

        controller.make_remote(y, "back")
        batch = BatchingProxy(y, space=cluster.space("front"), max_batch=32)
        first = batch.n(1)
        batch.flush()
        assert first.result() == 101

        # The object moves home; the buffered proxy must follow the rebind.
        controller.make_local(y)
        second = batch.n(2)
        batch.flush()
        assert second.result() == 102

        # And back out to a remote node again.
        controller.make_remote(y, "back")
        third = batch.n(3)
        batch.flush()
        assert third.result() == 103

    def test_rejects_targets_without_a_reference(self, cluster):
        with pytest.raises(InvocationError):
            BatchingProxy(object(), space=cluster.space("client"))

    def test_rejects_invalid_window(self, cluster, exported_store):
        _, reference = exported_store
        with pytest.raises(InvocationError):
            BatchingProxy(reference, space=cluster.space("client"), max_batch=0)


class TestBatchFraming:
    def test_single_and_batch_frames_are_distinguished(self):
        from repro.transports.base import (
            frame_message,
            frame_prefix,
            parse_frame,
        )

        assert parse_frame(frame_message("rmi", b"x")) == ("rmi", b"x", False)
        assert parse_frame(frame_prefix("rmi", batch=True) + b"x") == ("rmi", b"x", True)

    def test_batch_and_single_wire_types_do_not_cross(self):
        request = {"target": "t", "member": "m", "args": []}
        for transport in matrix.BINARY_CODECS:
            batch_payload = transport.encode_batch_request([request])
            with pytest.raises(TransportError):
                transport.decode_request(batch_payload)
            single_payload = transport.encode_request(request)
            with pytest.raises(TransportError):
                transport.decode_batch_request(single_payload)

    def test_soap_batch_envelope_shares_one_envelope(self):
        from repro.transports.soap import SoapTransport

        request = {"target": "t", "member": "m", "args": [1]}
        batch = SoapTransport().encode_batch_request([request] * 8)
        singles = 8 * len(SoapTransport().encode_request(request))
        assert len(batch) < singles  # the envelope/declaration cost is amortised

    def test_soap_batch_count_mismatch_is_detected(self):
        """A corrupted envelope that lost an entry must fail at decode time,
        not surface as a confusing length mismatch later."""
        from repro.transports.soap import SoapTransport

        transport = SoapTransport()
        request = {"target": "t", "member": "m", "args": []}
        payload = transport.encode_batch_request([request] * 3)
        truncated = payload.replace(b"<Invoke ", b"<Ignored ", 1)
        with pytest.raises(TransportError):
            transport.decode_batch_request(truncated)
        response_payload = transport.encode_batch_response([{"result": 1}] * 3)
        dropped = response_payload.replace(b'count="3"', b'count="2"')
        with pytest.raises(TransportError):
            transport.decode_batch_response(dropped)


class TestBulkOrderScenario:
    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    def test_batched_scenario_is_at_least_3x_cheaper(self, transport):
        unbatched = run_order_stream(
            Cluster(("client", "server")), ServicePolicy(transport=transport), orders=64
        )
        batched = run_order_stream(
            Cluster(("client", "server")),
            ServicePolicy(transport=transport, batch_window=32),
            orders=64,
        )
        assert batched["accepted"] == unbatched["accepted"] == 64
        assert unbatched["per_call_seconds"] / batched["per_call_seconds"] >= 3.0
        assert batched["messages"] < unbatched["messages"]

    def test_scenario_validates_inputs(self):
        with pytest.raises(ValueError):
            run_order_stream(Cluster(("client", "server")), ServicePolicy(), orders=0)


class TestBatchResult:
    def test_unwrap_returns_value_or_raises(self):
        assert BatchResult(index=0, value=41).unwrap() == 41
        failing = BatchResult(index=1, error=RuntimeError("boom"))
        assert not failing.ok
        with pytest.raises(RuntimeError):
            failing.unwrap()
