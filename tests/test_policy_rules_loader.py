"""Unit tests for rule-based policies and policy (de)serialisation."""

from __future__ import annotations

import json

import pytest

from repro.api.errors import PolicyError
from repro.policy.loader import (
    policy_from_dict,
    policy_from_file,
    policy_from_json,
    policy_to_dict,
)
from repro.policy.policy import PlacementDecision, local, remote
from repro.policy.rules import (
    Rule,
    RuleBasedPolicy,
    always,
    name_in,
    name_is,
    name_matches,
    name_regex,
)


class TestPredicates:
    def test_name_is(self):
        assert name_is("Cache")("Cache")
        assert not name_is("Cache")("CacheClient")

    def test_name_in(self):
        predicate = name_in(["A", "B"])
        assert predicate("A") and predicate("B") and not predicate("C")

    def test_name_matches_glob(self):
        assert name_matches("*Service")("OrderService")
        assert not name_matches("*Service")("ServiceOrder")

    def test_name_regex(self):
        assert name_regex(r"^Order")("OrderStore")
        assert not name_regex(r"^Order")("StoreOrder")

    def test_always(self):
        assert always()("anything")


class TestRuleBasedPolicy:
    def _policy(self) -> RuleBasedPolicy:
        policy = RuleBasedPolicy()
        policy.place_matching("*Service", remote("server"), description="services on server")
        policy.exclude_matching("Legacy*")
        return policy

    def test_first_matching_rule_wins(self):
        policy = RuleBasedPolicy(
            rules=[
                Rule(name_matches("Cache*"), remote("fast")),
                Rule(always(), remote("slow")),
            ]
        )
        assert policy.instance_decision("CacheIndex").node_id == "fast"
        assert policy.instance_decision("Other").node_id == "slow"

    def test_rules_supply_decisions(self):
        policy = self._policy()
        assert policy.instance_decision("OrderService").is_remote
        assert not policy.is_substitutable("LegacyAdapter")
        assert not policy.instance_decision("Unmatched").is_remote

    def test_statics_default_to_instance_decision(self):
        policy = RuleBasedPolicy([Rule(always(), remote("server"))])
        assert policy.static_decision("Anything").node_id == "server"

    def test_explicit_entries_override_rules(self):
        policy = self._policy()
        policy.set_class("OrderService", instances=local())
        assert not policy.instance_decision("OrderService").is_remote

    def test_matching_rule_and_explain(self):
        policy = self._policy()
        assert policy.matching_rule("OrderService").description == "services on server"
        assert "rule" in policy.explain("OrderService")
        assert "default" in policy.explain("Unmatched")
        policy.set_class("Explicit", instances=local())
        assert "explicit" in policy.explain("Explicit")

    def test_rules_listing(self):
        assert len(self._policy().rules()) == 2


class TestPolicyLoader:
    CONFIG = {
        "default": {"placement": "local", "dynamic": False},
        "classes": {
            "Cache": {
                "placement": "remote",
                "node": "server",
                "transport": "soap",
                "dynamic": True,
            },
            "OrderStore": {
                "placement": "remote",
                "node": "warehouse",
                "statics": {"placement": "local"},
            },
            "SessionState": {"substitutable": False},
        },
    }

    def test_policy_from_dict(self):
        policy = policy_from_dict(self.CONFIG)
        cache = policy.for_class("Cache")
        assert cache.instances == PlacementDecision("remote", "server", "soap", True)
        assert policy.static_decision("OrderStore").kind == "local"
        assert not policy.is_substitutable("SessionState")
        assert not policy.instance_decision("Unlisted").is_remote

    def test_policy_from_json_and_file(self, tmp_path):
        text = json.dumps(self.CONFIG)
        assert policy_from_json(text).instance_decision("Cache").node_id == "server"
        path = tmp_path / "policy.json"
        path.write_text(text, encoding="utf-8")
        assert policy_from_file(path).instance_decision("Cache").node_id == "server"

    def test_round_trip_through_dict_form(self):
        policy = policy_from_dict(self.CONFIG)
        rebuilt = policy_from_dict(policy_to_dict(policy))
        assert rebuilt.instance_decision("Cache") == policy.instance_decision("Cache")
        assert rebuilt.static_decision("OrderStore") == policy.static_decision("OrderStore")
        assert rebuilt.is_substitutable("SessionState") == policy.is_substitutable("SessionState")

    def test_remote_without_node_is_invalid(self):
        with pytest.raises(PolicyError):
            policy_from_dict({"classes": {"Cache": {"placement": "remote"}}})

    def test_unknown_placement_is_invalid(self):
        with pytest.raises(PolicyError):
            policy_from_dict({"classes": {"Cache": {"placement": "everywhere"}}})

    def test_malformed_documents_are_rejected(self):
        with pytest.raises(PolicyError):
            policy_from_json("not json at all {{")
        with pytest.raises(PolicyError):
            policy_from_dict({"classes": ["not", "a", "mapping"]})
        with pytest.raises(PolicyError):
            policy_from_dict("nope")  # type: ignore[arg-type]

    def test_missing_file_is_reported(self, tmp_path):
        with pytest.raises(PolicyError):
            policy_from_file(tmp_path / "missing.json")
