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
