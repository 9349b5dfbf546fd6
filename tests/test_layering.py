"""The lower layers never import the service façade.

``repro.api`` is built on ``core``, ``runtime``, ``transports`` and
``network``; an import the other way — even one deferred into a function
body — makes the lower layer unusable without the façade and hides a cycle.
This test parses every module of those four packages and fails on any
``import repro.api...`` or ``from repro.api... import ...``, wherever in the
module it appears.

Within ``runtime``, the hand-wired batching view (``runtime/batching.py``)
sits on top of the engine: only the package's ``__init__`` re-exports it, and
no other module of ``src/repro`` imports it.

The address space's dispatcher knows calls, not protocols: it answers a
``!ping`` itself and hands ``!sub``/``!inv`` frames and piggybacked responses
to its coherence endpoint (``runtime/caching.py``).  So
``runtime/address_space.py`` imports nothing from ``repro.network.heartbeat``
and names none of ``transports.base``'s cache-coherence helpers, whether
imported by name or reached as a module attribute.

A node reaches another node's objects only through frames, except at the
``cluster.space(...)``/``cluster.spaces()`` calls listed in
:data:`SPACE_SITES` (ROADMAP item 17).  The list may only shrink: a new call
fails the test, and a call that goes must leave the list with it.

A workload names its services from the cluster it runs on
(``repro.workloads._runs.run_prefix``), so no module of ``repro.workloads``
keeps a process-wide ``itertools.count()``: a run's names, and every byte
they put on the wire, do not depend on what ran before in the process.

The parity matrices of the suite share one harness, ``tests/matrix.py``: no
other test module holds a literal tuple or list of transport names or
transport instances, assigns a failure model's ``should_drop`` or subclasses
a failure model (``test_network_simnet.py``, which tests the failure model
and the simulator themselves, keeps its own).
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER_LAYERS = ("core", "runtime", "transports", "network")


def _imported_modules(tree: ast.AST):
    """``(line, module)`` of every import statement anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module
            if node.module == "repro":
                for alias in node.names:
                    yield node.lineno, f"repro.{alias.name}"


def _api_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(SRC.parent)}:{line} imports {module}"
        for line, module in _imported_modules(tree)
        if module == "repro.api" or module.startswith("repro.api.")
    ]


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_layer_does_not_import_the_api(layer):
    modules = sorted((SRC / layer).rglob("*.py"))
    assert modules, f"no modules under {layer}/"
    offenders = [line for path in modules for line in _api_imports(path)]
    assert offenders == []


def test_the_scan_sees_imports_inside_function_bodies():
    tree = ast.parse("def f():\n    from repro.api.middleware import CallContext\n")
    assert list(_imported_modules(tree)) == [(2, "repro.api.middleware")]


def test_only_the_runtime_package_imports_the_batching_view():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "runtime" / "__init__.py"
        for line, module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module == "repro.runtime.batching"
    ]
    assert offenders == []


#: ``transports.base``'s helpers that frame, parse, attach or split ``!inv``
#: and ``!sub`` frames (``frame_invalidation*`` and ``frame_subscription*``
#: by prefix).
COHERENCE_HELPERS = (
    "parse_invalidation_body",
    "parse_subscription",
    "attach_invalidations",
    "split_invalidations",
)
COHERENCE_HELPER_PREFIXES = ("frame_invalidation", "frame_subscription")


def _coherence_names(tree: ast.AST):
    """``(line, name)`` of every coherence helper ``tree`` imports or names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        for name in names:
            if name in COHERENCE_HELPERS or name.startswith(COHERENCE_HELPER_PREFIXES):
                yield node.lineno, name


def test_the_address_space_leaves_heartbeats_and_coherence_to_their_modules():
    path = SRC / "runtime" / "address_space.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offenders = [
        f"line {line} imports {module}"
        for line, module in _imported_modules(tree)
        if module == "repro.network.heartbeat"
    ] + [f"line {line} names {name}" for line, name in _coherence_names(tree)]
    assert offenders == []


def test_the_coherence_scan_sees_imported_and_attribute_names():
    tree = ast.parse(
        "from repro.transports.base import frame_subscription_ack, LEAVES\n"
        "import repro.transports.base as base\n"
        "base.split_invalidations(b'')\n"
    )
    assert list(_coherence_names(tree)) == [
        (1, "frame_subscription_ack"), (3, "split_invalidations"),
    ]


EXECUTION_CONTEXT = "TransformedApplication.executing_on._ExecutionContext"
#: Every ``cluster.space(...)``/``cluster.spaces()`` call under ``src/repro``:
#: ``(module, function) → calls``.
SPACE_SITES = {
    # The replication control plane reads and writes other nodes' spaces.
    ("repro.runtime.replication", "ReplicaManager._catch_up"): 2,
    ("repro.runtime.replication", "ReplicaManager._collect_promotion_votes"): 2,
    ("repro.runtime.replication", "ReplicaManager._fresh_copy"): 1,
    ("repro.runtime.replication", "ReplicaManager._primary_space"): 1,
    ("repro.runtime.replication", "ReplicaManager._reconcile_stale_primary"): 1,
    ("repro.runtime.replication", "ReplicaManager.dismantle"): 3,
    ("repro.runtime.replication", "ReplicaManager.failover"): 3,
    ("repro.runtime.replication", "ReplicaManager.replicate"): 1,
    # Relocation hosts the copy, scans every space for exports, retires them.
    ("repro.runtime.redistribution", "DistributionController._relocate"): 3,
    # A session's own space, and the exports it places on its hosts.
    ("repro.api.session", "Session.__init__"): 1,
    ("repro.api.session", "Session.dismantle"): 1,
    ("repro.api.session", "Session.service"): 2,
    # The application's deployment, factories and dispatch context.
    ("repro.core.transformer", "TransformedApplication._make_instance"): 1,
    ("repro.core.transformer", "TransformedApplication._remote_leg"): 1,
    ("repro.core.transformer", "TransformedApplication._remote_singleton_ref"): 1,
    ("repro.core.transformer", "TransformedApplication.deploy"): 2,
    ("repro.core.transformer", f"{EXECUTION_CONTEXT}.__enter__"): 1,
    ("repro.core.transformer", f"{EXECUTION_CONTEXT}.__exit__"): 1,
    # Workload drivers and a baseline, which stand outside any one node.
    ("repro.baselines.javaparty", "JavaPartyRuntime.new"): 2,
    ("repro.workloads.cached_catalog", "run_cached_catalog_scenario"): 1,
    ("repro.workloads.partitioned_orders", "run_partitioned_order_scenario"): 2,
}


def _space_calls(tree: ast.AST, scope: tuple = ()):
    """The dotted function name around every ``cluster.space(...)`` or
    ``cluster.spaces()`` call in ``tree`` (the owner named ``cluster`` or
    ``_cluster``, bare or as an attribute)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _space_calls(node, (*scope, node.name))
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            owner_name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if node.func.attr in ("space", "spaces") and owner_name in ("cluster", "_cluster"):
                yield ".".join(scope)
        yield from _space_calls(node, scope)


def test_every_cluster_space_call_is_on_the_shrinking_allowlist():
    found = Counter(
        (".".join(path.relative_to(SRC.parent).with_suffix("").parts), function)
        for path in sorted(SRC.rglob("*.py"))
        for function in _space_calls(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert dict(found) == SPACE_SITES


def test_the_space_scan_sees_attribute_owners_in_nested_functions():
    tree = ast.parse(
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return self.cluster.space('n'), cluster.spaces(), other.space('n')\n"
    )
    assert list(_space_calls(tree)) == ["A.f.g", "A.f.g"]


def _module_level_counters(tree: ast.AST) -> list:
    """Lines of ``itertools.count()`` calls outside every function and class."""
    lines = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "count"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "itertools"
            ):
                lines.append(call.lineno)
    return lines


def test_no_workload_keeps_a_module_level_counter():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted((SRC / "workloads").rglob("*.py"))
        for line in _module_level_counters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_the_counter_scan_skips_function_bodies():
    tree = ast.parse(
        "import itertools\n"
        "_RUN_SEQ = itertools.count()\n"
        "def f():\n"
        "    return itertools.count()\n"
    )
    assert _module_level_counters(tree) == [2]


TESTS = Path(__file__).resolve().parent
#: The module that tests the failure model and the simulator themselves, and
#: so keeps failure models of its own.
OWN_FAILURE_MODELS = "test_network_simnet.py"
FAILURE_MODELS = ("FailureModel", "NoFailures", "ScriptedDrops")


def _name_of(node: ast.AST):
    """The name a ``Name`` or an ``Attribute`` ends in, else ``None``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _transport_literal(node: ast.AST, names, classes) -> bool:
    """Whether ``node`` is a literal tuple or list of two or more
    transport names, or of two or more transport instances."""
    if not isinstance(node, (ast.Tuple, ast.List)) or len(node.elts) < 2:
        return False
    return all(
        isinstance(item, ast.Constant) and item.value in names for item in node.elts
    ) or all(
        isinstance(item, ast.Call) and _name_of(item.func) in classes for item in node.elts
    )


def _harness_bypasses(tree: ast.AST, names, classes, *, own_failure_models=False):
    """``(line, what)`` of every place a test module spells out a transport
    list, scripts drops by assigning ``should_drop`` or subclasses a failure
    model, where ``tests/matrix.py`` holds the one of each."""
    for node in ast.walk(tree):
        if _transport_literal(node, names, classes):
            yield node.lineno, "a transport list"
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_name_of(target) == "should_drop" for target in targets):
                yield node.lineno, "assigns should_drop"
        elif (
            isinstance(node, ast.Call)
            and _name_of(node.func) == "setattr"
            and any(isinstance(a, ast.Constant) and a.value == "should_drop" for a in node.args)
        ):
            yield node.lineno, "assigns should_drop"
        elif isinstance(node, ast.ClassDef) and not own_failure_models:
            if any(_name_of(base) in FAILURE_MODELS for base in node.bases):
                yield node.lineno, "subclasses a failure model"


def test_the_parity_harness_is_the_one_place():
    import matrix

    names = set(matrix.TRANSPORTS)
    classes = {type(codec).__name__ for codec in matrix.CODECS}
    offenders = [
        f"{path.name}:{line} {what}"
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "matrix.py"
        for line, what in _harness_bypasses(
            ast.parse(path.read_text(encoding="utf-8")), names, classes,
            own_failure_models=path.name == OWN_FAILURE_MODELS,
        )
    ]
    assert offenders == []


def test_the_harness_scan_sees_lists_drop_scripts_and_failure_models():
    tree = ast.parse(
        "TRANSPORTS = ('rmi', 'soap')\n"
        "CODECS = [RmiTransport(), codecs.SoapTransport()]\n"
        "ROUTE = ('rmi', 'client')\n"
        "ONE = ['rmi']\n"
        "failures.should_drop = lambda source, destination: True\n"
        "monkeypatch.setattr(failures, 'should_drop', None)\n"
        "class Dropper(failures.FailureModel):\n"
        "    pass\n"
    )
    found = sorted(_harness_bypasses(tree, {"rmi", "soap"}, {"RmiTransport", "SoapTransport"}))
    assert found == [
        (1, "a transport list"), (2, "a transport list"), (5, "assigns should_drop"),
        (6, "assigns should_drop"), (7, "subclasses a failure model"),
    ]
    assert (7, "subclasses a failure model") not in _harness_bypasses(
        tree, set(), set(), own_failure_models=True
    )
