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
"""

from __future__ import annotations

import ast
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
