"""DS102 — ``@cacheable`` methods that mutate ``self`` state."""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.engine import LintContext, Rule, dotted_name

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "appendleft",
        "extendleft",
        "popleft",
    }
)


def _self_attribute(node: ast.AST) -> Optional[str]:
    """The ``self.<attr>`` chain a target/receiver roots in, if any.

    ``self.x`` → ``"x"``; ``self.x[k]`` and ``self.x.y`` also resolve to
    their root attribute ``"x"`` (mutating through either still mutates
    state reachable from ``self``).
    """
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


class CacheableMutationRule(Rule):
    """DS102: a method marked ``@cacheable`` assigns to or mutates ``self``
    state (attribute assignment, ``self.x[...] = …``, ``del self.x``, or an
    in-place mutator call like ``self.items.append(...)``).

    Why it matters: the coherence protocol trusts the marker completely.
    The client cache serves repeated calls of a ``@cacheable`` member
    locally without contacting the server, and the owning address space
    *skips* write-invalidation for it — dispatching a cacheable member
    never broadcasts ``!inv`` frames and never forwards ops to replicas.
    If such a method actually mutates state, every consequence is silent:
    remote caches keep serving the pre-write value forever (no invalidation
    will ever arrive), replicas never learn about the change (it is not
    classified as a write), and a failover promotes a backup missing it.
    The runtime cross-validates this rule: the serving space's coherence
    endpoint counts detected violations in
    ``CoherenceEndpoint.cacheable_violations`` (``space.coherence``).

    Fix: drop the ``@cacheable`` marker from mutating members, or move the
    mutation out of the read path (e.g. no hit counters inside cacheable
    getters — count on the client, or in a separate non-cacheable member).
    """

    id = "DS102"
    severity = "error"
    node_types = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete, ast.Call)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        """Flag any ``self``-state mutation inside a ``@cacheable`` method."""
        if not ctx.in_cacheable_method():
            return
        method = ctx.current_method()
        if isinstance(node, ast.Call):
            self._check_mutator_call(node, method.name, ctx)
            return
        if isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:  # AugAssign / AnnAssign
            targets = [node.target]
        for target in targets:
            for leaf in self._flatten(target):
                attr = _self_attribute(leaf)
                if attr is not None:
                    verb = "deletes" if isinstance(node, ast.Delete) else "assigns"
                    ctx.report(
                        self,
                        node,
                        f"@cacheable method {method.name!r} {verb} "
                        f"self.{attr} — cached results go stale with no "
                        "invalidation ever broadcast, and replicas never "
                        "see the write",
                        suggestion="remove the @cacheable marker or move "
                        "the mutation into a non-cacheable member",
                    )

    def _check_mutator_call(
        self, node: ast.Call, method_name: str, ctx: LintContext
    ) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in MUTATOR_METHODS:
            return
        attr = _self_attribute(node.func.value)
        if attr is None:
            return
        receiver = dotted_name(node.func.value) or f"self.{attr}"
        ctx.report(
            self,
            node,
            f"@cacheable method {method_name!r} mutates {receiver} in "
            f"place via .{node.func.attr}() — a stale-cache bug the "
            "invalidation protocol cannot fix",
            suggestion="remove the @cacheable marker or move the "
            "mutation into a non-cacheable member",
        )

    @staticmethod
    def _flatten(target: ast.AST):
        """Expand tuple/list unpacking targets into their leaves."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from CacheableMutationRule._flatten(element)
        else:
            yield target
