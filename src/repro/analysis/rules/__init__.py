"""The shipped distribution-safety rules (DS101–DS105, DS107).

Each module holds one rule grounded in a specific runtime subsystem; the
rule docstrings double as ``repro lint --explain`` documentation.
"""

from __future__ import annotations

from typing import List, Type

from repro.analysis.engine import Rule
from repro.analysis.rules.caching_rules import CacheableMutationRule
from repro.analysis.rules.determinism import NondeterministicWriteRule
from repro.analysis.rules.interceptors import InterceptorHookRule
from repro.analysis.rules.serialization import UnserializableSignatureRule
from repro.analysis.rules.state import MutableClassStateRule
from repro.analysis.rules.tracing_rules import SpanLeakRule

#: All shipped rule classes, in rule-id order.
DEFAULT_RULES: List[Type[Rule]] = [
    NondeterministicWriteRule,
    CacheableMutationRule,
    UnserializableSignatureRule,
    MutableClassStateRule,
    InterceptorHookRule,
    SpanLeakRule,
]


def all_rules() -> List[Rule]:
    """Fresh instances of every shipped rule, in rule-id order."""
    return [rule_class() for rule_class in DEFAULT_RULES]


def rule_by_id(rule_id: str) -> Type[Rule]:
    """The rule class registered under ``rule_id`` (``KeyError`` if none)."""
    for rule_class in DEFAULT_RULES:
        if rule_class.id == rule_id.upper():
            return rule_class
    known = ", ".join(rule_class.id for rule_class in DEFAULT_RULES)
    raise KeyError(f"unknown rule id {rule_id!r} (known: {known})")


__all__ = [
    "DEFAULT_RULES",
    "all_rules",
    "rule_by_id",
    "NondeterministicWriteRule",
    "CacheableMutationRule",
    "UnserializableSignatureRule",
    "MutableClassStateRule",
    "InterceptorHookRule",
    "SpanLeakRule",
]
