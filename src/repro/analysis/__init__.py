"""Distribution-safety static analysis (``repro lint``).

The transformability analyzer (:mod:`repro.core.analyzer`) answers *can*
this class be distributed; this package answers *should* it be — whether
the code honours the semantic contracts the runtime assumes: writes that
replay deterministically under quorum replication (DS101), ``@cacheable``
members that are actually pure (DS102), signatures whose values can cross
the wire (DS103), state held per-instance where replica sync can see it
(DS104), interceptor settlement hooks that never block or raise (DS105),
and tracer spans that are opened but can never be ended (DS107).

Three entry points share the engine: the ``repro lint`` CLI subcommand,
the deploy-time gate behind ``ServicePolicy.with_static_checks()``
(:mod:`repro.analysis.deploy`), and the repo's own ``lint-dist`` CI job.
"""

from __future__ import annotations

from repro.analysis.deploy import policy_severity_overrides, verify_deployment
from repro.analysis.engine import PARSE_ERROR_RULE, LintContext, Rule, RuleEngine
from repro.analysis.findings import (
    SEVERITIES,
    SEVERITY_RANK,
    Finding,
    meets_threshold,
)
from repro.analysis.reporting import JSON_REPORT_VERSION, format_json, format_text
from repro.analysis.rules import DEFAULT_RULES, all_rules, rule_by_id
from repro.analysis.suppressions import (
    ALL_RULES,
    SuppressionIndex,
    parse_suppression,
)


def default_engine() -> RuleEngine:
    """A :class:`RuleEngine` loaded with every shipped rule."""
    return RuleEngine(all_rules())


__all__ = [
    "ALL_RULES",
    "DEFAULT_RULES",
    "Finding",
    "JSON_REPORT_VERSION",
    "LintContext",
    "PARSE_ERROR_RULE",
    "Rule",
    "RuleEngine",
    "SEVERITIES",
    "SEVERITY_RANK",
    "SuppressionIndex",
    "all_rules",
    "default_engine",
    "format_json",
    "format_text",
    "meets_threshold",
    "parse_suppression",
    "policy_severity_overrides",
    "rule_by_id",
    "verify_deployment",
]
