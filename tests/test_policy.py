"""Unit tests for static distribution policies."""

from __future__ import annotations

import pytest

from repro.api.errors import PolicyError
from repro.policy.loader import policy_from_dict, policy_to_dict
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

    def test_unsubstitutable_class_is_excluded(self):
        policy = all_local_policy()
        policy.set_class("Legacy", substitutable=False)
        assert not policy.is_substitutable("Legacy")
        assert policy.is_substitutable("Modern")

    def test_setting_a_class_again_replaces_its_entry(self):
        policy = all_local_policy()
        policy.set_class("Cache", instances=remote("server"))
        policy.set_class("Cache", instances=remote("backup"), statics=remote("server"))
        assert policy.instance_decision("Cache").node_id == "backup"
        assert policy.static_decision("Cache").node_id == "server"

    def test_copy_is_independent(self):
        policy = all_local_policy()
        policy.set_class("A", instances=remote("n1"))
        clone = policy.copy()
        clone.set_class("A", instances=local())
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

    def test_merged_with_takes_a_default_the_other_states(self):
        base = all_local_policy(dynamic=True)
        stated = DistributionPolicy(default=ClassPolicy(instances=remote("server")))
        assert base.merged_with(stated).instance_decision("Any").node_id == "server"

    def test_merged_with_keeps_its_default_when_the_other_states_none(self):
        base = all_local_policy(dynamic=True)
        unstated = DistributionPolicy()
        unstated.set_class("A", instances=remote("n1"))
        merged = base.merged_with(unstated)
        assert merged.instance_decision("Any").dynamic
        assert merged.instance_decision("A").node_id == "n1"


def _services_policy() -> DistributionPolicy:
    """Services on the server, ``Legacy*`` unsubstitutable, one exact override."""
    policy = all_local_policy()
    policy.set_class("*Service", instances=remote("server"), statics=remote("server"))
    policy.set_class("Legacy*", substitutable=False)
    policy.set_class("AuditService", instances=local())
    return policy


def _decisions(policy: DistributionPolicy) -> list:
    names = ("OrderService", "AuditService", "LegacyAdapter", "Unmatched", "Service")
    return [
        (policy.is_substitutable(name), policy.instance_decision(name),
         policy.static_decision(name))
        for name in names
    ]


class TestPatternEntries:
    """A key holding ``*``, ``?`` or ``[`` is a glob pattern over class names."""

    def test_a_pattern_places_the_classes_it_matches(self):
        policy = _services_policy()
        assert policy.instance_decision("OrderService").node_id == "server"
        assert policy.static_decision("OrderService").node_id == "server"
        assert policy.instance_decision("Service").is_remote
        assert not policy.instance_decision("ServiceOrder").is_remote
        assert policy.for_class("Unmatched") is policy.default

    def test_first_matching_pattern_wins(self):
        policy = DistributionPolicy()
        policy.set_class("Cache*", instances=remote("fast"))
        policy.set_class("*", instances=remote("slow"))
        assert policy.instance_decision("CacheIndex").node_id == "fast"
        assert policy.instance_decision("Other").node_id == "slow"

    def test_setting_a_pattern_again_moves_it_last(self):
        policy = DistributionPolicy()
        policy.set_class("Cache*", instances=remote("fast"))
        policy.set_class("*", instances=remote("slow"))
        policy.set_class("Cache*", instances=remote("faster"))
        assert policy.instance_decision("CacheIndex").node_id == "slow"

    def test_an_exact_entry_beats_a_pattern_whenever_it_was_set(self):
        policy = _services_policy()
        assert not policy.instance_decision("AuditService").is_remote
        policy.set_class("*Index", instances=remote("search"))
        policy.set_class("Cache*", instances=remote("fast"))
        assert policy.instance_decision("CacheIndex").node_id == "search"
        policy.set_class("CacheIndex")
        assert not policy.instance_decision("CacheIndex").is_remote

    def test_a_pattern_can_exclude_classes(self):
        policy = _services_policy()
        assert not policy.is_substitutable("LegacyAdapter")
        assert policy.is_substitutable("OrderService")

    @pytest.mark.parametrize("character", ["*", "?", "["])
    def test_each_glob_character_makes_a_pattern(self, character):
        key = {"*": "Ca*", "?": "Ca?he", "[": "[C]ache"}[character]
        policy = DistributionPolicy()
        policy.set_class(key, instances=remote("server"))
        assert policy.instance_decision("Cache").is_remote
        assert not policy.instance_decision("Store").is_remote

    @pytest.mark.parametrize(
        "transform",
        [
            DistributionPolicy.copy,
            lambda policy: DistributionPolicy().merged_with(policy),
            lambda policy: policy.merged_with(DistributionPolicy()),
            lambda policy: policy_from_dict(policy_to_dict(policy)),
        ],
        ids=["copy", "merged_into", "merged_with", "dict_round_trip"],
    )
    def test_patterns_survive_copy_merge_and_the_dict_form(self, transform):
        policy = _services_policy()
        assert _decisions(transform(policy)) == _decisions(policy)

    def test_the_dict_form_keeps_pattern_order(self):
        policy = DistributionPolicy()
        policy.set_class("Z*", instances=remote("z"))
        policy.set_class("*", instances=remote("any"))
        policy.set_class("B")
        policy.set_class("A")
        assert list(policy_to_dict(policy)["classes"]) == ["A", "B", "Z*", "*"]

    def test_a_merge_tries_the_other_policys_patterns_first(self):
        base = DistributionPolicy()
        base.set_class("*", instances=remote("base"))
        base.set_class("Order*", instances=remote("orders"))
        override = DistributionPolicy()
        override.set_class("*Service", instances=remote("services"))
        override.set_class("*", instances=remote("override"))
        merged = base.merged_with(override)
        assert merged.instance_decision("OrderService").node_id == "services"
        assert merged.instance_decision("OrderStore").node_id == "override"
        assert base.instance_decision("OrderStore").node_id == "base"

    def test_an_exact_entry_of_self_still_beats_a_pattern_of_other(self):
        base = DistributionPolicy()
        base.set_class("OrderService", instances=remote("orders"))
        override = DistributionPolicy()
        override.set_class("*Service", instances=remote("services"))
        merged = base.merged_with(override)
        assert merged.instance_decision("OrderService").node_id == "orders"
        assert merged.instance_decision("AuditService").node_id == "services"


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
