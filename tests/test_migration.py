"""Unit tests for object migration between address spaces."""

from __future__ import annotations

import pytest

import sample_app
from local_instances import new_local
from repro.api.errors import RedistributionError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, local
from repro.runtime.cluster import Cluster
from repro.runtime.migration import apply_state, snapshot_state
from repro.runtime.redistribution import DistributionController
from repro.workloads.figure1 import A, B, C

CLASSES = [sample_app.X, sample_app.Y, sample_app.Z]


@pytest.fixture
def dynamic_app():
    policy = all_local_policy(dynamic=True)
    app = ApplicationTransformer(policy).transform(CLASSES)
    cluster = Cluster(("client", "server", "backup"))
    app.deploy(cluster, default_node="client")
    return app, cluster


class TestStateCaptureAndRestore:
    def test_capture_reads_every_field(self, dynamic_app):
        app, _ = dynamic_app
        y = new_local(app, "Y", 9)
        assert snapshot_state(y, app) == {"base": 9}

    def test_restore_writes_every_field(self, dynamic_app):
        app, _ = dynamic_app
        source = new_local(app, "Y", 9)
        target = app.artifacts("Y").local_cls()
        written = apply_state(target, snapshot_state(source, app), app)
        assert written == 1
        assert target.get_base() == 9

    def test_round_trip_preserves_behaviour(self, dynamic_app):
        app, _ = dynamic_app
        original = new_local(app, "X", new_local(app, "Y", 3))
        clone = app.artifacts("X").local_cls()
        apply_state(clone, snapshot_state(original, app), app)
        assert clone.m(4) == original.m(4) == 7


class TestObjectMigrator:
    def test_migrate_moves_state_to_the_target_node(self, dynamic_app):
        app, cluster = dynamic_app
        migrator = DistributionController(app, cluster)
        y = app.new("Y", 5)  # dynamic handle, local on client
        record = migrator.move(y, "server")
        assert record.node_id == "server"
        assert record.fields_copied == 1
        assert len(cluster.space("server").exported_objects()) == 1

    def test_handle_keeps_working_after_migration(self, dynamic_app):
        app, cluster = dynamic_app
        migrator = DistributionController(app, cluster)
        y = app.new("Y", 5)
        before = y.n(1)
        migrator.move(y, "server")
        assert y.n(1) == before
        assert y.meta.is_remote and y.meta.node_id == "server"
        assert cluster.metrics.total_messages > 0

    def test_migrating_twice_moves_between_nodes(self, dynamic_app):
        app, cluster = dynamic_app
        migrator = DistributionController(app, cluster)
        y = app.new("Y", 5)
        migrator.move(y, "server")
        record = migrator.move(y, "backup")
        assert record.source_node == "server"
        assert record.node_id == "backup"
        assert y.n(2) == 7
        # The old export was retired.
        assert len(cluster.space("server").exported_objects()) == 0

    def test_migrating_to_the_current_node_is_rejected(self, dynamic_app):
        app, cluster = dynamic_app
        migrator = DistributionController(app, cluster)
        y = app.new("Y", 5)
        migrator.move(y, "server")
        with pytest.raises(RedistributionError):
            migrator.move(y, "server")

    def test_plain_objects_cannot_be_migrated(self, dynamic_app):
        app, cluster = dynamic_app
        migrator = DistributionController(app, cluster)
        with pytest.raises(RedistributionError):
            migrator.move(object(), "server")

    def test_naming_service_follows_the_move(self, dynamic_app):
        app, cluster = dynamic_app
        migrator = DistributionController(app, cluster)
        y = app.new("Y", 5)
        # Publish the object under a well-known name before migrating it.
        reference = cluster.space("client").export(y.meta.target)
        cluster.naming.rebind("the-y", reference)
        migrator.move(y, "server")
        assert cluster.naming.lookup("the-y").node_id == "server"

    def test_shared_object_migration_preserves_figure1_behaviour(self):
        policy = all_local_policy()
        policy.set_class("C", instances=local(dynamic=True))
        app = ApplicationTransformer(policy).transform([A, B, C])
        cluster = Cluster(("client", "server"))
        app.deploy(cluster, default_node="client")
        migrator = DistributionController(app, cluster)

        shared = app.new("C", "shared")
        holder_a = app.new("A", shared)
        holder_b = app.new("B", shared)
        holder_a.record(4)
        migrator.move(shared, "server")
        holder_b.record(5)
        # 4 (from A) + 10 (B doubles) observed through the migrated object.
        assert shared.get_total() == 14
        assert shared.get_entries() == 2
