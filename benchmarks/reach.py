"""Function-entry reachability ledger of ``src/repro``.

Every function in ``src/repro`` must be entered by a *consumer* -- a program a
user of the reproduction runs (:func:`consumers` below) -- or be named, with a
reason, in ``tests/reach_tests_only.txt``.  ``__repr__``/``__str__`` and
``abc.abstractmethod`` stubs are exempt.  New code arrives with a consumer or
with a stated reason; a row whose function is gone fails as well.

How it measures: every consumer runs with a ``sitecustomize.py`` on
``PYTHONPATH`` that loads this file and installs a ``sys.settrace`` /
``threading.settrace`` hook, so subprocesses are followed too.  The hook only
records the code object of each new frame and returns ``None`` (no line
events).  ``sys.setprofile`` would not do: cProfile, which the call-budget
tests use, replaces it.  Hypothesis resets ``sys.settrace`` in its explain
phase, so the same file doubles as a pytest plugin that re-installs the hook
before each test.  At exit each process writes the ``(file, first line, name)``
of every ``src/repro`` code object it entered; functions are listed from the
AST and matched on the same key (for a decorated function the first line is
that of its first decorator, as in ``co_firstlineno``).

Usage::

    python benchmarks/reach.py            # run the consumers and gate (make reach)
    python benchmarks/reach.py --tier1    # also trace tier-1 and list the rest by it

A row of ``tests/reach_tests_only.txt`` reads ``qualified name<TAB>reason``,
e.g. ``repro.tools.report.Foo.bar<TAB>error-path``; ``REASONS`` lists the
reasons.  Lines that are blank or start with ``#`` are ignored.
"""

from __future__ import annotations

import ast
import os
import re
import sys
import threading
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LEDGER = ROOT / "tests" / "reach_tests_only.txt"

#: What a row may give as its reason (``item-N`` names a ROADMAP item).
REASONS = {
    "error-path": "a failure branch the consumers never take",
    "input-case": "an input shape the consumers never send",
    "app": "a method of a workload class that runs transformed, as generated code",
    "oracle": "a driver tests use to compare the transformed program with the original",
    "api": "named in README.md, docs/ or examples/ (or reached only through such a name)",
    "bench": "named by benchmarks/wallclock/",
}
ITEM_REASON = re.compile(r"item-\d+$")
EXEMPT_NAMES = ("__repr__", "__str__")


def consumers(scratch: Path) -> Dict[str, List[str]]:
    """The programs whose entries count, by name; each command runs at the root."""
    python = sys.executable
    return {
        "examples": ["make", "examples-smoke"],
        "cli-smoke": ["make", "cli-smoke", f"CLI_SMOKE_DIR={scratch / 'cli-smoke'}"],
        "ledger": [python, "benchmarks/wallclock/run.py", "--seed", "7", "--seconds", "0.1",
                   "--out", str(scratch / "ledger")],
        "bench-smoke": ["make", "bench-smoke", f"BENCH_DIR={scratch / 'bench'}"],
        "paper-claims": ["make", "paper-claims"],
        "docs-check": ["make", "docs-check"],
        "lint-dist": ["make", "lint-dist"],
    }


TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]


# ---------------------------------------------------------------------------
# the functions of the tree, from the AST
# ---------------------------------------------------------------------------

#: ``(path relative to src/, first line, name)``: what a code object tells.
Key = Tuple[str, int, str]


class Function(NamedTuple):
    """One ``def`` of the tree."""

    qualname: str  # module-qualified; ``prop.setter`` for a property setter
    key: Key
    lines: int  # decorators included
    exempt: str  # "" or why no consumer needs to enter it


def _decorator_names(node: ast.AST) -> List[str]:
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.append(ast.unparse(target))
    return names


def list_functions(src: Path = SRC, package: str = "repro") -> List[Function]:
    """Every function and method of ``src/<package>`` in source order."""
    found: List[Function] = []
    for path in sorted((src / package).rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        module = relative[: -len(".py")].replace("/", ".")
        module = module[: -len(".__init__")] if module.endswith(".__init__") else module
        found += _module_functions(ast.parse(path.read_text(encoding="utf-8")), relative, module)
    return found


def _module_functions(tree: ast.Module, relative: str, module: str) -> List[Function]:
    found: List[Function] = []
    taken: Set[str] = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = _decorator_names(child)
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                qualname = f"{prefix}{child.name}"
                for accessor in ("setter", "deleter"):
                    if f"{child.name}.{accessor}" in decorators:
                        qualname += f".{accessor}"
                name, number = f"{module}.{qualname}", 2
                while name in taken:
                    name, number = f"{module}.{qualname}#{number}", number + 1
                taken.add(name)
                exempt = ""
                if child.name in EXEMPT_NAMES:
                    exempt = "repr"
                elif any(d.split(".")[-1] == "abstractmethod" for d in decorators):
                    exempt = "abstract"
                found.append(Function(name, (relative, first, child.name),
                                      child.end_lineno - first + 1, exempt))
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


# ---------------------------------------------------------------------------
# the ledger and the gate
# ---------------------------------------------------------------------------


def parse_ledger(text: str) -> Dict[str, str]:
    """``{qualified name: reason}``; a malformed row raises ``ValueError``."""
    rows: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0]:
            raise ValueError(f"line {number}: expected 'qualified name<TAB>reason': {line!r}")
        name, reason = fields
        if reason not in REASONS and not ITEM_REASON.match(reason):
            raise ValueError(f"line {number}: unknown reason {reason!r} for {name}")
        if name in rows:
            raise ValueError(f"line {number}: {name} is listed twice")
        rows[name] = reason
    return rows


class Verdict(NamedTuple):
    """What the gate found: each list fails it when non-empty, except ``entered_rows``."""

    unlisted: List[Function]  # no consumer enters it, not exempt, no row
    stale_rows: List[str]  # rows naming no function of the tree
    entered_rows: List[str]  # rows whose function a consumer enters after all


def gate(functions: Iterable[Function], entered: Set[Key], rows: Dict[str, str]) -> Verdict:
    """Check ``functions`` against the keys the consumers ``entered`` and the ``rows``."""
    functions = list(functions)
    names = {function.qualname for function in functions}
    unlisted = [f for f in functions
                if f.key not in entered and not f.exempt and f.qualname not in rows]
    entered_rows = [f.qualname for f in functions if f.key in entered and f.qualname in rows]
    return Verdict(unlisted, sorted(set(rows) - names), entered_rows)


# ---------------------------------------------------------------------------
# recording: the hook each traced process installs
# ---------------------------------------------------------------------------


class Recorder:
    """Records the code objects entered under ``root``, as keys relative to it."""

    def __init__(self, root: Path = SRC) -> None:
        self.root = os.path.join(str(root), "")
        self.entered: Set[Key] = set()
        self._seen: Dict[int, object] = {}  # holding the code keeps its id unique

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if id(code) not in self._seen:
            self._seen[id(code)] = code
            path = os.path.abspath(code.co_filename)
            if path.startswith(self.root):
                relative = path[len(self.root):].replace(os.sep, "/")
                self.entered.add((relative, code.co_firstlineno, code.co_name))
        return None

    def start(self) -> None:
        self._previous = (sys.gettrace(), threading.gettrace())
        sys.settrace(self._trace)
        threading.settrace(self._trace)

    def stop(self) -> None:
        """Put back the hooks ``start`` replaced."""
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


_recorder: Optional[Recorder] = None


def record_from_environment() -> None:
    """Start recording for this process; ``sitecustomize.py`` calls this."""
    global _recorder
    import atexit

    _recorder = Recorder(Path(os.environ["REACH_SRC"]))
    _recorder.start()
    atexit.register(_dump, Path(os.environ["REACH_OUT"]))


def _dump(out: Path) -> None:
    import tempfile

    handle, _ = tempfile.mkstemp(suffix=".txt", dir=out)
    with os.fdopen(handle, "w", encoding="utf-8") as dump:
        dump.write(format_keys(_recorder.entered))


def format_keys(keys: Set[Key]) -> str:
    """One ``path<TAB>first line<TAB>name`` line per key."""
    return "".join(f"{path}\t{first}\t{name}\n" for path, first, name in sorted(keys))


def read_keys(path: Path) -> Set[Key]:
    """The keys of a file ``format_keys`` wrote."""
    keys: Set[Key] = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        relative, first, name = line.split("\t")
        keys.add((relative, int(first), name))
    return keys


def pytest_runtest_setup(item) -> None:
    """Hypothesis may have cleared the hook during the previous test."""
    if _recorder is not None:
        _recorder.start()


pytest_runtest_call = pytest_runtest_setup


SITECUSTOMIZE = """\
import importlib.util, os, sys
_spec = importlib.util.spec_from_file_location("_reach", os.environ["REACH_SCRIPT"])
_reach = importlib.util.module_from_spec(_spec)
sys.modules["_reach"] = _reach
_spec.loader.exec_module(_reach)
_reach.record_from_environment()
"""


def run_traced(commands: Dict[str, List[str]], scratch: Path) -> Tuple[Set[Key], List[str]]:
    """Run each command under the hook; the keys entered and the commands that failed."""
    import subprocess

    hook = scratch / "hook"
    out = scratch / "entered"
    hook.mkdir(parents=True)
    out.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    path = os.pathsep.join([str(hook), str(SRC)])
    environment = dict(os.environ, PYTHONPATH=path, REACH_SCRIPT=str(Path(__file__).resolve()),
                       REACH_SRC=str(SRC), REACH_OUT=str(out), PYTEST_PLUGINS="_reach")
    failed = []
    for name, command in commands.items():
        if command[0] == "make":  # the Makefile's own PYTHONPATH would drop the hook
            command = [*command, f"PYTHONPATH={path}"]
        print(f"reach: {name}: {' '.join(command)}", file=sys.stderr, flush=True)
        done = subprocess.run(command, cwd=ROOT, env=environment,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr[-4000:])
            failed.append(f"{name} exited {done.returncode}")
    return set().union(*map(read_keys, out.glob("*.txt"))), failed


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _total(functions: List[Function]) -> str:
    return f"{len(functions):5d} functions {sum(f.lines for f in functions):6d} lines"


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true",
                        help="also trace the tier-1 suite and split the rest by it")
    args = parser.parse_args(argv)

    functions = list_functions()
    rows = parse_ledger(LEDGER.read_text(encoding="utf-8"))
    tests_entered: Set[Key] = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        entered, failed = run_traced(consumers(Path(scratch)), Path(scratch) / "consumers")
        if args.tier1:
            tests_entered, _ = run_traced({"tier-1": TIER1}, Path(scratch) / "tier1")

    verdict = gate(functions, entered, rows)
    consumed = [f for f in functions if f.key in entered]
    exempt = [f for f in functions if f.exempt and f.key not in entered]
    rest = [f for f in functions if f.key not in entered and not f.exempt]
    print(f"functions            {_total(functions)}")
    print(f"entered by consumers {_total(consumed)}")
    print(f"exempt, not entered  {_total(exempt)}  (__repr__/__str__ and abstract stubs)")
    print(f"listed in the ledger {_total([f for f in rest if f.qualname in rows])}")
    if args.tier1:
        print(f"  tests only         {_total([f for f in rest if f.key in tests_entered])}")
        print(f"  nothing            {_total([f for f in rest if f.key not in tests_entered])}")
        for f in rest:
            reached = "tests-only" if f.key in tests_entered else "nothing"
            print(f"{reached:<11}{f.lines:4d}  {f.qualname}\t{rows.get(f.qualname, '-')}")
    for name in verdict.entered_rows:
        print(f"note: a consumer enters {name}; its row can go")
    problems = list(failed)
    problems += [f"no consumer enters {f.qualname} (src/{f.key[0]}:{f.key[1]}): "
                 f"give it one, delete it, or add a row to {LEDGER.name}"
                 for f in verdict.unlisted]
    problems += [f"{LEDGER.name} names {name}, which does not exist"
                 for name in verdict.stale_rows]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
