"""Rule registry and single-traversal visitor framework for ``repro lint``.

The paper's §2.4 transformability analysis (:mod:`repro.core.analyzer`)
decides *whether* a class can be distributed; this engine checks whether a
distributable class is *safe* to distribute — whether its code honours the
semantic contracts the runtime subsystems assume (deterministic replay
under quorum replication, cacheable-means-pure, serializable signatures,
instance-held state, non-blocking interceptor hooks, current APIs).

Mechanics: a :class:`RuleEngine` holds :class:`Rule` objects, each
subscribed to the AST node types it cares about.  One traversal walks the
module; at every node, the subscribed rules run with a :class:`LintContext`
describing where the walk currently is (enclosing class, enclosing method,
cacheability of both).  Rules emit findings through
:meth:`LintContext.report`, which applies ``# repro: ignore[DS1xx]``
suppressions and policy-aware severity overrides before anything reaches
the reporters.

Service classes are recognised structurally: a class that marks members
:func:`~repro.core.interfaces.cacheable` (or declares
``_repro_cacheable_members``) is middleware-aware and gets the full rule
set; ``assume_service=True`` (the deploy-time gate, which lints exactly
the class being deployed) treats every class as a service regardless of
markers.
"""

from __future__ import annotations

import abc
import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.analysis.findings import Finding
from repro.analysis.suppressions import SuppressionIndex

#: Rule id reserved for source the engine could not parse at all.
PARSE_ERROR_RULE = "DS000"


def dotted_name(node: ast.AST) -> Optional[str]:
    """The ``a.b.c`` form of a Name/Attribute chain (``None`` otherwise)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def decorator_names(node: ast.AST) -> List[str]:
    """Last-segment names of a def/class's decorators (``@a.b`` → ``b``)."""
    names: List[str] = []
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name is not None:
            names.append(name.rsplit(".", 1)[-1])
    return names


class ClassScope:
    """What the engine knows about the class currently being walked."""

    __slots__ = (
        "node",
        "name",
        "is_service",
        "is_interceptor",
        "cacheable_methods",
        "func_depth",
    )

    def __init__(
        self, node: ast.ClassDef, assume_service: bool, func_depth: int = 0
    ) -> None:
        self.node = node
        self.name = node.name
        #: How many function scopes were open when this class was entered —
        #: a def is a *method* exactly when no further function scope opened
        #: in between (classes defined inside functions still get methods).
        self.func_depth = func_depth
        cacheable: set = set()
        declares_members = False
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if "cacheable" in decorator_names(child):
                    cacheable.add(child.name)
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "_repro_cacheable_members"
                    ):
                        declares_members = True
        #: Methods carrying the ``@cacheable`` marker.
        self.cacheable_methods = frozenset(cacheable)
        #: Whether the distribution-safety rules treat this class as a
        #: deployable service implementation.
        self.is_service = assume_service or bool(cacheable) or declares_members
        #: Whether this class subclasses an interceptor (DS105's scope).
        self.is_interceptor = any(
            (dotted_name(base) or "").rsplit(".", 1)[-1] == "Interceptor"
            for base in node.bases
        )


class FunctionScope:
    """What the engine knows about the def currently being walked."""

    __slots__ = ("node", "name", "is_method", "cacheable", "hook")

    def __init__(
        self,
        node: ast.AST,
        owner: Optional[ClassScope],
        nested: bool,
    ) -> None:
        self.node = node
        self.name = node.name
        #: Whether the def sits directly in a class body (not nested in
        #: another function).
        self.is_method = owner is not None and not nested
        #: Whether the method carries the ``@cacheable`` marker.
        self.cacheable = self.is_method and (
            node.name in owner.cacheable_methods
        )
        #: ``"end"`` / ``"abort"`` when this is an interceptor's settlement
        #: hook (the exactly-once bracket contract forbids raising there).
        self.hook = (
            node.name
            if self.is_method and owner.is_interceptor and node.name in ("end", "abort")
            else None
        )


class LintContext:
    """Traversal state handed to every rule callback.

    Rules read the scope queries (:meth:`current_class`,
    :meth:`current_method`, :meth:`in_service_write_method`, …) and emit
    complaints through :meth:`report`; the context owns suppression
    filtering, severity overrides and the line offset of extracted sources,
    so rules never deal with any of that.
    """

    def __init__(
        self,
        path: str,
        source: str,
        *,
        line_offset: int = 0,
        assume_service: bool = False,
        severity_overrides: Optional[Dict[str, str]] = None,
    ) -> None:
        self.path = path
        self.source = source
        self.line_offset = line_offset
        self.assume_service = assume_service
        self.severity_overrides = dict(severity_overrides or {})
        self.suppressions = SuppressionIndex(source)
        self.findings: List[Finding] = []
        #: Findings silenced by a ``# repro: ignore`` comment.
        self.suppressed = 0
        self.class_stack: List[ClassScope] = []
        self.func_stack: List[FunctionScope] = []

    # -- scope queries rules build on --------------------------------------

    def current_class(self) -> Optional[ClassScope]:
        """The innermost enclosing class scope, if any."""
        return self.class_stack[-1] if self.class_stack else None

    def current_method(self) -> Optional[FunctionScope]:
        """The innermost enclosing def that is a *method*, if any."""
        for scope in reversed(self.func_stack):
            if scope.is_method:
                return scope
        return None

    def in_service_class(self) -> bool:
        """Whether the walk is inside a service-class body."""
        owner = self.current_class()
        return owner is not None and owner.is_service

    def in_service_write_method(self) -> bool:
        """Inside a non-cacheable, non-dunder method of a service class.

        Any member not marked cacheable is conservatively a write (the same
        rule the runtime's invalidation and replication layers apply), and
        dunders are not remotely dispatchable.
        """
        if not self.in_service_class():
            return False
        method = self.current_method()
        return (
            method is not None
            and not method.cacheable
            and not method.name.startswith("__")
        )

    def in_cacheable_method(self) -> bool:
        """Inside a method carrying the ``@cacheable`` marker."""
        method = self.current_method()
        return method is not None and method.cacheable

    def in_interceptor_hook(self) -> Optional[str]:
        """``"end"``/``"abort"`` when inside a settlement hook, else ``None``."""
        method = self.current_method()
        return method.hook if method is not None else None

    # -- emission ----------------------------------------------------------

    def report(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        suggestion: Optional[str] = None,
    ) -> None:
        """Emit one finding for ``node`` unless a comment suppresses it."""
        line = getattr(node, "lineno", 1)
        if self.suppressions.is_suppressed(line, rule.id):
            self.suppressed += 1
            return
        self.findings.append(
            Finding(
                rule=rule.id,
                severity=self.severity_overrides.get(rule.id, rule.severity),
                path=self.path,
                line=line + self.line_offset,
                col=getattr(node, "col_offset", 0),
                message=message,
                suggestion=suggestion,
            )
        )


class Rule(abc.ABC):
    """Base class for distribution-safety rules.

    A rule declares its ``id`` (``DS1xx``), default ``severity`` and the
    AST ``node_types`` it subscribes to; the engine calls :meth:`check`
    once per matching node in a single traversal.  The class docstring is
    the rule's documentation — ``repro lint --explain DS1xx`` prints it
    verbatim, which is why every shipped rule keeps a thorough one.
    """

    #: The rule identifier reported on findings (``DS101`` …).
    id: str = ""
    #: Default severity; policy-aware runs may escalate it.
    severity: str = "warning"
    #: AST node classes this rule wants to see.
    node_types: Tuple[Type[ast.AST], ...] = ()

    @abc.abstractmethod
    def check(self, node: ast.AST, ctx: LintContext) -> None:
        """Inspect one subscribed node, reporting findings via ``ctx``."""

    @classmethod
    def explain(cls) -> str:
        """The rule's documentation (its docstring, used by ``--explain``)."""
        import inspect

        return inspect.cleandoc(cls.__doc__ or "(undocumented rule)")


class RuleEngine:
    """A set of rules applied to source trees in one AST traversal."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        ids = [rule.id for rule in rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids: {sorted(ids)}")
        #: The registered rules, in registration order.
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self._handlers: Dict[type, List[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._handlers.setdefault(node_type, []).append(rule)

    def select(self, ids: Iterable[str]) -> "RuleEngine":
        """A new engine running only the named rules (unknown id → error)."""
        wanted = {rule_id.upper() for rule_id in ids}
        known = {rule.id for rule in self.rules}
        unknown = sorted(wanted - known)
        if unknown:
            raise KeyError(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return RuleEngine([rule for rule in self.rules if rule.id in wanted])

    # -- running -----------------------------------------------------------

    def run_source(
        self,
        source: str,
        path: str,
        *,
        line_offset: int = 0,
        assume_service: bool = False,
        severity_overrides: Optional[Dict[str, str]] = None,
    ) -> List[Finding]:
        """Lint one source string; returns its findings, location-sorted.

        ``line_offset`` corrects findings when ``source`` was cut out of a
        larger file (deploy-time checks lint just the implementation
        class); ``assume_service`` treats every class as a service;
        ``severity_overrides`` maps rule ids to escalated severities.
        Unparseable source yields a single :data:`PARSE_ERROR_RULE` finding
        instead of raising.
        """
        ctx = LintContext(
            path,
            source,
            line_offset=line_offset,
            assume_service=assume_service,
            severity_overrides=severity_overrides,
        )
        try:
            tree = ast.parse(source, filename=path)
        except (SyntaxError, ValueError) as error:
            line = getattr(error, "lineno", None) or 1
            detail = error.msg if isinstance(error, SyntaxError) else str(error)
            return [
                Finding(
                    rule=PARSE_ERROR_RULE,
                    severity="error",
                    path=path,
                    line=line + line_offset,
                    col=(getattr(error, "offset", None) or 1) - 1,
                    message=f"source could not be parsed: {detail}",
                )
            ]
        self._walk(tree, ctx)
        return sorted(ctx.findings, key=lambda f: (f.path, f.line, f.col, f.rule))

    def run_paths(
        self,
        paths: Sequence,
        *,
        severity_overrides: Optional[Dict[str, str]] = None,
    ) -> Tuple[List[Finding], int]:
        """Lint files and directory trees; ``(findings, files checked)``.

        Directories are walked recursively for ``*.py`` files; a path that
        exists as neither raises :class:`FileNotFoundError` — a mistyped
        path must fail the gate, not silently lint nothing.
        """
        files: List[Path] = []
        for raw in paths:
            root = Path(raw)
            if root.is_file():
                files.append(root)
            elif root.is_dir():
                files.extend(sorted(root.rglob("*.py")))
            else:
                raise FileNotFoundError(f"no such file or directory: {root}")
        findings: List[Finding] = []
        for file in files:
            findings.extend(
                self.run_source(
                    file.read_text(encoding="utf-8"),
                    str(file),
                    severity_overrides=severity_overrides,
                )
            )
        return findings, len(files)

    # -- traversal ---------------------------------------------------------

    def _walk(self, node: ast.AST, ctx: LintContext) -> None:
        for child in ast.iter_child_nodes(node):
            self._dispatch(child, ctx)
            if isinstance(child, ast.ClassDef):
                ctx.class_stack.append(
                    ClassScope(child, ctx.assume_service, len(ctx.func_stack))
                )
                try:
                    self._walk(child, ctx)
                finally:
                    ctx.class_stack.pop()
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = ctx.current_class()
                scope = FunctionScope(
                    child,
                    owner,
                    nested=owner is None or len(ctx.func_stack) > owner.func_depth,
                )
                ctx.func_stack.append(scope)
                try:
                    self._walk(child, ctx)
                finally:
                    ctx.func_stack.pop()
            else:
                self._walk(child, ctx)

    def _dispatch(self, node: ast.AST, ctx: LintContext) -> None:
        handlers = self._handlers.get(type(node))
        if not handlers:
            return
        for rule in handlers:
            rule.check(node, ctx)
