"""Unit tests for loading policies from, and writing them to, the dict form."""

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
from repro.policy.policy import PlacementDecision, place_classes_on


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
            "*Service": {"placement": "remote", "node": "server"},
            "Legacy*": {"substitutable": False},
        },
    }

    def test_policy_from_dict(self):
        policy = policy_from_dict(self.CONFIG)
        cache = policy.for_class("Cache")
        assert cache.instances == PlacementDecision("remote", "server", "soap", True)
        assert policy.static_decision("OrderStore").kind == "local"
        assert not policy.is_substitutable("SessionState")
        assert not policy.instance_decision("Unlisted").is_remote

    def test_pattern_keys_place_and_exclude_by_name(self):
        policy = policy_from_dict(self.CONFIG)
        assert policy.instance_decision("OrderService").node_id == "server"
        # Statics follow the instances of an entry that does not set them.
        assert policy.static_decision("OrderService").node_id == "server"
        assert not policy.is_substitutable("LegacyAdapter")
        assert policy.is_substitutable("Cache")

    def test_patterns_are_tried_in_document_order(self):
        policy = policy_from_json(
            '{"classes": {"Cache*": {"placement": "remote", "node": "fast"},'
            ' "*": {"placement": "remote", "node": "slow"}}}'
        )
        assert policy.instance_decision("CacheIndex").node_id == "fast"
        assert policy.instance_decision("Other").node_id == "slow"

    def test_a_default_is_written_only_when_stated(self):
        assert "default" not in policy_to_dict(policy_from_dict({"classes": {}}))
        assert policy_to_dict(policy_from_dict({"default": {}}))["default"]["placement"] == "local"

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
        assert policy_to_dict(rebuilt) == policy_to_dict(policy)

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

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"clases": {}}, "policy: unknown key 'clases'"),
            (
                {"classes": {"Cache": {"placment": "remote", "node": "server"}}},
                "classes.Cache: unknown key 'placment'",
            ),
            (
                {"classes": {"Cache": {"statics": {"placement": "local", "nod": "x"}}}},
                "classes.Cache.statics: unknown key 'nod'",
            ),
            ({"default": {"dynamc": True}}, "default: unknown key 'dynamc'"),
            (
                {"classes": {"Cache": {"dynamic": "no"}}},
                "classes.Cache.dynamic: expected true or false, got 'no'",
            ),
            (
                {"classes": {"*Service": {"substitutable": 0}}},
                r"classes.\*Service.substitutable: expected true or false, got 0",
            ),
            (
                {"classes": {"Cache": {"statics": {"dynamic": 1}}}},
                "classes.Cache.statics.dynamic: expected true or false, got 1",
            ),
            ({"classes": {"Cache": "remote"}}, "classes.Cache: expected a mapping, got str"),
            (
                {"classes": {"Cache": {"statics": "local"}}},
                "classes.Cache.statics: expected a mapping, got str",
            ),
        ],
        ids=[
            "top_level_key", "entry_key", "statics_key", "default_key", "dynamic_string",
            "substitutable_int", "statics_dynamic_int", "entry_not_mapping", "statics_not_mapping",
        ],
    )
    def test_malformed_settings_are_refused_with_their_path(self, config, message):
        with pytest.raises(PolicyError, match=f"^{message}$"):
            policy_from_dict(config)

    def test_every_setting_the_writer_emits_loads_back(self):
        policy = place_classes_on({"Cache": "server"}, transport="soap", dynamic=True)
        policy.set_class("Cache", instances=policy.instance_decision("Cache"))
        policy.set_class("Legacy*", substitutable=False)
        text = json.dumps(policy_to_dict(policy), sort_keys=True)
        assert policy_to_dict(policy_from_json(text)) == policy_to_dict(policy)

    def test_missing_file_is_reported(self, tmp_path):
        with pytest.raises(PolicyError):
            policy_from_file(tmp_path / "missing.json")
