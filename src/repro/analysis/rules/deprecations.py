"""DS106 — deprecated repro API usage, with autofix suggestions."""

from __future__ import annotations

import ast

from repro.analysis.engine import LintContext, Rule, dotted_name


class DeprecatedApiRule(Rule):
    """DS106: code uses a deprecated repro API — calling bare
    ``with_replication(n)`` without an explicit quorum/fencing choice.

    Why it matters: the call still works, but only through a compatibility
    shim that emits ``DeprecationWarning`` at run time.  Bare
    ``with_replication(n)`` defaults to unfenced writes with no quorum, a
    configuration the partition-safety work made opt-in because it cannot
    survive a primary partition without split-brain.  Unlike the runtime
    warning (which fires only on the paths a given run exercises), this
    rule finds every occurrence statically, with a concrete replacement.

    Fix: apply the suggestion attached to each finding — state the
    replication contract explicitly, e.g.
    ``with_replication(n, quorum="majority")``.
    """

    id = "DS106"
    severity = "warning"
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: LintContext) -> None:
        """Flag bare with_replication() calls."""
        # Accept any receiver expression (ServicePolicy().with_replication,
        # policy.with_replication, …): match on the attribute name alone.
        if isinstance(node.func, ast.Attribute):
            if node.func.attr != "with_replication":
                return
        elif dotted_name(node.func) != "with_replication":
            return
        if len(node.args) > 1:
            return  # extra positionals already state a contract choice
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        if keywords & {"quorum", "fencing"}:
            return
        if any(kw.arg is None for kw in node.keywords):
            return  # **kwargs may carry quorum/fencing; stay quiet
        factor = ""
        if node.args:
            try:
                factor = ast.unparse(node.args[0])
            except Exception:
                factor = "n"
        elif "factor" in keywords:
            for kw in node.keywords:
                if kw.arg == "factor":
                    try:
                        factor = ast.unparse(kw.value)
                    except Exception:
                        factor = "n"
        ctx.report(
            self,
            node,
            "bare with_replication() without quorum= or fencing= relies "
            "on the deprecated unfenced default, which cannot survive a "
            "primary partition without split-brain",
            suggestion=f'with_replication({factor}, quorum="majority")',
        )
