"""Loading distribution policies from configuration data.

The paper's long-term goal is "a complete system for deciding and capturing
distribution policy"; this module provides the capturing half: policies can
be expressed as plain dictionaries (or JSON files) and loaded without any
code change to the transformed application.  A configuration looks like::

    {
        "default": {"placement": "local", "dynamic": false},
        "classes": {
            "Cache":        {"placement": "remote", "node": "server",
                             "transport": "rmi", "dynamic": true},
            "OrderStore":   {"placement": "remote", "node": "warehouse"},
            "SessionState": {"substitutable": false},
            "*Service":     {"placement": "remote", "node": "server"}
        }
    }

A key holding any of ``*?[`` is a glob pattern; patterns are tried in the
order they appear, after the exact names (see
:class:`~repro.policy.policy.DistributionPolicy`).  An unknown key or a
``dynamic``/``substitutable`` that is not ``true``/``false`` is refused with
a :class:`~repro._errors.PolicyError` naming its path, so a misspelt
setting cannot load as a silent default.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Union

from repro._errors import PolicyError
from repro.policy.policy import (
    ClassPolicy,
    DistributionPolicy,
    PlacementDecision,
    DEFAULT_TRANSPORT,
    KIND_LOCAL,
    KIND_REMOTE,
)


#: The settings of one placement decision, and those a class entry adds.
_DECISION_KEYS = frozenset({"placement", "node", "transport", "dynamic"})
_ENTRY_KEYS = _DECISION_KEYS | {"substitutable", "statics"}
_POLICY_KEYS = frozenset({"default", "classes"})


def _checked(config, allowed: frozenset, context: str) -> Mapping:
    """``config`` itself, once it is a mapping holding only ``allowed`` keys
    and its ``dynamic``/``substitutable`` settings, if any, are bools."""
    if not isinstance(config, Mapping):
        raise PolicyError(f"{context}: expected a mapping, got {type(config).__name__}")
    for key in config:
        if key not in allowed:
            raise PolicyError(f"{context}: unknown key {key!r}")
    for key in ("dynamic", "substitutable"):
        if key in config and not isinstance(config[key], bool):
            raise PolicyError(f"{context}.{key}: expected true or false, got {config[key]!r}")
    return config


def _decision_from_config(config: Mapping, context: str) -> PlacementDecision:
    placement = config.get("placement", KIND_LOCAL)
    if placement not in (KIND_LOCAL, KIND_REMOTE):
        raise PolicyError(
            f"{context}: placement must be 'local' or 'remote', got {placement!r}"
        )
    node = config.get("node")
    if placement == KIND_REMOTE and not node:
        raise PolicyError(f"{context}: remote placement requires a 'node'")
    return PlacementDecision(
        kind=placement,
        node_id=node,
        transport=config.get("transport", DEFAULT_TRANSPORT),
        dynamic=config.get("dynamic", False),
    )


def _class_policy_from_config(config, context: str) -> ClassPolicy:
    config = _checked(config, _ENTRY_KEYS, context)
    instances = _decision_from_config(config, context)
    statics = instances
    if "statics" in config:
        context = f"{context}.statics"
        statics_config = _checked(config["statics"], _DECISION_KEYS, context)
        statics = _decision_from_config(statics_config, context)
    return ClassPolicy(
        substitutable=config.get("substitutable", True), instances=instances, statics=statics
    )


def policy_from_dict(config: Mapping) -> DistributionPolicy:
    """Build a :class:`DistributionPolicy` from a plain configuration mapping."""
    _checked(config, _POLICY_KEYS, "policy")
    default = (
        _class_policy_from_config(config["default"], "default") if "default" in config else None
    )
    policy = DistributionPolicy(default=default)
    classes = config.get("classes", {})
    if not isinstance(classes, Mapping):
        raise PolicyError("'classes' must be a mapping of class name to settings")
    for class_name, class_config in classes.items():
        entry = _class_policy_from_config(class_config, f"classes.{class_name}")
        policy.set_class(
            class_name,
            substitutable=entry.substitutable,
            instances=entry.instances,
            statics=entry.statics,
        )
    return policy


def policy_from_json(text: str) -> DistributionPolicy:
    """Build a policy from a JSON document (the dict form above)."""
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolicyError(f"invalid policy JSON: {exc}") from exc
    return policy_from_dict(config)


def policy_from_file(path: Union[str, Path]) -> DistributionPolicy:
    """Build a policy from a JSON file on disk."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise PolicyError(f"cannot read policy file {path}: {exc}") from exc
    return policy_from_json(text)


def policy_to_dict(policy: DistributionPolicy) -> dict:
    """Serialise a policy back into the configuration-dictionary form."""

    def decision_to_dict(decision: PlacementDecision) -> dict:
        result: dict = {"placement": decision.kind, "dynamic": decision.dynamic}
        if decision.node_id is not None:
            result["node"] = decision.node_id
        result["transport"] = decision.transport
        return result

    def entry_to_dict(entry: ClassPolicy) -> dict:
        result = decision_to_dict(entry.instances)
        result["substitutable"] = entry.substitutable
        if entry.statics != entry.instances:
            result["statics"] = decision_to_dict(entry.statics)
        return result

    # Exact names sorted, then the patterns in the order ``for_class`` tries
    # them; a default is written only when the policy states one.
    classes = {name: entry_to_dict(policy._entries[name]) for name in sorted(policy._entries)}
    classes.update((pattern, entry_to_dict(entry)) for pattern, entry in policy._patterns.items())
    if policy._default_stated:
        return {"default": entry_to_dict(policy.default), "classes": classes}
    return {"classes": classes}
