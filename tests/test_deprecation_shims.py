"""What is left of the PR-4 constructor shims: nothing warns any more.

``BatchingProxy`` and ``PipelineScheduler`` are the engines the façade
composes, and constructing them directly is plain supported API again — the
``DeprecationWarning`` and the exempt internal subclasses are gone, and so is
the last shim (bare ``with_replication(n)`` is a ``PolicyError``, see
``test_quorum_replication.py``): ``DeprecationWarning`` appears nowhere under
``src/``.
"""

from __future__ import annotations

import warnings

import pytest

from repro.api import ServicePolicy, Session
from repro.runtime.batching import BatchingProxy
from repro.runtime.cluster import Cluster
from repro.runtime.pipelining import PipelineScheduler
from repro.workloads.bulk_orders import OrderIntake


@pytest.fixture
def cluster():
    return Cluster(("client", "server"))


class TestDeprecationWarnings:
    def test_deprecated_batching_proxy_still_works(self, cluster):
        """Once deprecated, now plain API: constructing it warns about nothing."""
        intake = OrderIntake()
        reference = cluster.space("server").export(intake)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proxy = BatchingProxy(
                reference, space=cluster.space("client"), max_batch=8, transport="rmi"
            )
        pending = [proxy.submit(f"sku-{i}", 1, 10) for i in range(8)]
        assert [p.result() for p in pending] == list(range(8))
        assert intake.accepted_count() == 8

    def test_deprecated_scheduler_still_works(self, cluster):
        """Once deprecated, now plain API: constructing it warns about nothing."""
        intake = OrderIntake()
        reference = cluster.space("server").export(intake)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scheduler = PipelineScheduler(
                cluster.space("client"), max_batch=4, window=2, transport="rmi"
            )
        futures = [scheduler.submit(reference, "submit", f"sku-{i}", 1, 10) for i in range(8)]
        scheduler.drain()
        assert [f.result() for f in futures] == list(range(8))

    def test_facade_composition_is_warning_free(self, cluster):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Session(cluster, node="client") as session:
                svc = session.service(
                    "orders",
                    ServicePolicy(transport="rmi", batch_window=4, pipeline_depth=2),
                    impl=OrderIntake(),
                    node="server",
                )
                futures = [svc.future.submit(f"sku-{i}", 1, 10) for i in range(8)]
                session.drain()
                assert all(f.ok for f in futures)
