"""Unit tests for static distribution policies."""

from __future__ import annotations

import pytest

from repro.api.errors import PolicyError
from repro.policy.policy import (
    ClassPolicy,
    DistributionPolicy,
    PlacementDecision,
    all_local_policy,
    local,
    place_classes_on,
    remote,
)


class TestPlacementDecision:
    def test_defaults_to_local(self):
        decision = PlacementDecision()
        assert not decision.is_remote
        assert decision.node_id is None
        assert not decision.dynamic

    def test_remote_requires_a_node(self):
        with pytest.raises(PolicyError):
            PlacementDecision(kind="remote")

    def test_unknown_kind_rejected(self):
        with pytest.raises(PolicyError):
            PlacementDecision(kind="orbital")

    def test_convenience_constructors(self):
        assert remote("server").is_remote
        assert remote("server", transport="soap").transport == "soap"
        assert local(dynamic=True).dynamic

class TestDistributionPolicy:
    def test_default_applies_to_unknown_classes(self):
        policy = DistributionPolicy()
        assert policy.is_substitutable("Anything")
        assert not policy.instance_decision("Anything").is_remote

    def test_per_class_entries_override_default(self):
        policy = DistributionPolicy()
        policy.set_class("Cache", instances=remote("server"))
        assert policy.instance_decision("Cache").is_remote
        assert not policy.instance_decision("Other").is_remote

    def test_statics_can_differ_from_instances(self):
        policy = DistributionPolicy()
        policy.set_class("Cache", instances=remote("server"), statics=local())
        assert policy.instance_decision("Cache").is_remote
        assert not policy.static_decision("Cache").is_remote

    def test_place_instances_and_statics_incrementally(self):
        policy = all_local_policy()
        policy.place_instances("Cache", remote("server"))
        policy.place_statics("Cache", remote("backup"))
        assert policy.instance_decision("Cache").node_id == "server"
        assert policy.static_decision("Cache").node_id == "backup"

    def test_unsubstitutable_class_is_excluded(self):
        policy = all_local_policy()
        policy.set_class("Legacy", substitutable=False)
        assert not policy.is_substitutable("Legacy")
        assert "Legacy" in policy.excluded_classes()

    def test_configured_class_listing(self):
        policy = all_local_policy()
        policy.set_class("A", instances=remote("n1"))
        policy.set_class("B")
        assert policy.configured_classes() == {"A", "B"}

    def test_copy_is_independent(self):
        policy = all_local_policy()
        policy.set_class("A", instances=remote("n1"))
        clone = policy.copy()
        clone.place_instances("A", local())
        assert policy.instance_decision("A").is_remote
        assert not clone.instance_decision("A").is_remote

    def test_merged_with_prefers_other(self):
        base = all_local_policy()
        base.set_class("A", instances=remote("n1"))
        override = DistributionPolicy()
        override.set_class("A", instances=remote("n2"))
        merged = base.merged_with(override)
        assert merged.instance_decision("A").node_id == "n2"

    def test_default_entry(self):
        policy = DistributionPolicy(default=ClassPolicy(substitutable=False))
        assert not policy.is_substitutable("Whatever")


class TestPolicyFactories:
    def test_all_local_policy(self):
        policy = all_local_policy()
        assert not policy.instance_decision("X").is_remote
        assert not policy.instance_decision("X").dynamic

    def test_all_local_dynamic_policy(self):
        policy = all_local_policy(dynamic=True)
        assert policy.instance_decision("X").dynamic

    def test_place_classes_on(self):
        policy = place_classes_on({"Cache": "server", "Store": "backup"}, transport="soap")
        assert policy.instance_decision("Cache").node_id == "server"
        assert policy.static_decision("Store").node_id == "backup"
        assert policy.instance_decision("Cache").transport == "soap"
        assert not policy.instance_decision("Unrelated").is_remote
