"""The reachability ledger's listing, matching and gate (``benchmarks/reach.py``).

These run no consumer: a small fixture package is listed from its AST, run
under the same hook the consumers run under, and gated.
"""

from __future__ import annotations

import importlib.util
import re
import sys
import textwrap
from pathlib import Path

import pytest

_REACH = Path(__file__).resolve().parents[1] / "benchmarks" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach_under_test", _REACH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = textwrap.dedent(
    '''
    import abc
    import functools


    def traced(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return function(*args, **kwargs)
        return wrapper


    class Shape(abc.ABC):
        @abc.abstractmethod
        def area(self):
            """Every shape has one."""


    class Square(Shape):
        def __init__(self, side):
            self._side = side

        @property
        def side(self):
            return self._side

        @side.setter
        def side(self, value):
            self._side = value

        @traced
        def area(self):
            def squared(length):
                return length * length
            return squared(self._side)

        def __repr__(self):
            return f"Square({self._side})"


    def unused():
        return None
    '''
)

ENTERED = {
    "shapes.fixture.traced",
    "shapes.fixture.traced.<locals>.wrapper",
    "shapes.fixture.Square.__init__",
    "shapes.fixture.Square.side",
    "shapes.fixture.Square.side.setter",
    "shapes.fixture.Square.area",
    "shapes.fixture.Square.area.<locals>.squared",
}


@pytest.fixture
def tree(tmp_path):
    """``(functions, entered keys, module)`` of the fixture package, run once."""
    package = tmp_path / "shapes"
    package.mkdir()
    (package / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("shapes_fixture", package / "fixture.py")
    module = importlib.util.module_from_spec(spec)
    recorder = reach.Recorder(tmp_path)
    recorder.start()
    try:
        spec.loader.exec_module(module)
        square = module.Square(2)
        square.side = square.side + 1
        assert square.area() == 9
    finally:
        recorder.stop()
    return reach.list_functions(tmp_path, "shapes"), recorder.entered, module


def by_name(functions):
    return {function.qualname: function for function in functions}


class TestListing:
    def test_names_every_def_with_its_class_and_enclosing_function(self, tree):
        functions, _, _ = tree
        assert set(by_name(functions)) == ENTERED | {
            "shapes.fixture.Shape.area",
            "shapes.fixture.Square.__repr__",
            "shapes.fixture.unused",
        }

    def test_a_decorated_function_starts_at_its_decorator_like_its_code(self, tree):
        functions, _, module = tree
        decorator_line = FIXTURE.splitlines().index("    @traced") + 1
        area = by_name(functions)["shapes.fixture.Square.area"]
        assert area.key == ("shapes/fixture.py", decorator_line, "area")
        assert module.Square.area.__wrapped__.__code__.co_firstlineno == decorator_line

    def test_property_getter_and_setter_are_two_functions(self, tree):
        functions, _, module = tree
        names = by_name(functions)
        assert names["shapes.fixture.Square.side"].key[1] == (
            module.Square.side.fget.__code__.co_firstlineno
        )
        assert names["shapes.fixture.Square.side.setter"].key[1] == (
            module.Square.side.fset.__code__.co_firstlineno
        )

    def test_abstract_stubs_and_repr_are_exempt(self, tree):
        functions, _, _ = tree
        exempt = {f.qualname: f.exempt for f in functions if f.exempt}
        assert exempt == {
            "shapes.fixture.Shape.area": "abstract",
            "shapes.fixture.Square.__repr__": "repr",
        }


class TestMatching:
    def test_the_hook_enters_exactly_the_functions_that_ran(self, tree):
        functions, entered, _ = tree
        assert {f.qualname for f in functions if f.key in entered} == ENTERED

    def test_keys_round_trip_through_their_file(self, tree, tmp_path):
        _, entered, _ = tree
        saved = tmp_path / "entered.txt"
        saved.write_text(reach.format_keys(entered), encoding="utf-8")
        assert reach.read_keys(saved) == entered

    def test_stop_restores_the_previous_hook(self):
        def previous(frame, event, arg):
            return None

        original = sys.gettrace()
        sys.settrace(previous)
        try:
            recorder = reach.Recorder(Path(__file__).parent)
            recorder.start()
            recorder.stop()
            assert sys.gettrace() is previous
        finally:
            sys.settrace(original)


class TestGate:
    def test_an_unlisted_function_no_consumer_enters_fails(self, tree):
        functions, entered, _ = tree
        verdict = reach.gate(functions, entered, {})
        assert [f.qualname for f in verdict.unlisted] == ["shapes.fixture.unused"]
        assert verdict.stale_rows == []

    def test_a_row_with_a_reason_admits_it(self, tree):
        functions, entered, _ = tree
        rows = reach.parse_ledger("# comment\n\nshapes.fixture.unused\terror-path\n")
        assert reach.gate(functions, entered, rows) == ([], [], [])

    def test_a_row_for_a_deleted_function_fails(self, tree):
        functions, entered, _ = tree
        rows = {"shapes.fixture.unused": "api", "shapes.fixture.Square.perimeter": "item-15"}
        verdict = reach.gate(functions, entered, rows)
        assert verdict.stale_rows == ["shapes.fixture.Square.perimeter"]

    def test_a_row_for_an_entered_function_is_only_noted(self, tree):
        functions, entered, _ = tree
        rows = {"shapes.fixture.unused": "api", "shapes.fixture.Square.__init__": "app"}
        verdict = reach.gate(functions, entered, rows)
        assert (verdict.unlisted, verdict.stale_rows) == ([], [])
        assert verdict.entered_rows == ["shapes.fixture.Square.__init__"]

    @pytest.mark.parametrize(
        "text",
        [
            "shapes.fixture.unused\tbecause\n",
            "shapes.fixture.unused error-path\n",
            "shapes.fixture.unused\terror-path\nshapes.fixture.unused\tapi\n",
        ],
    )
    def test_a_malformed_row_is_refused(self, text):
        with pytest.raises(ValueError):
            reach.parse_ledger(text)


EDGES = textwrap.dedent(
    '''
    import abc
    from abc import abstractmethod


    def make_counter():
        class Counter:
            def bump(self):
                return 1
        return Counter


    if True:
        def chosen():
            return "first"
    else:
        def chosen():
            return "second"


    async def fetch():
        return 7


    class Box:
        @property
        def item(self):
            return self._item

        @item.setter
        def item(self, value):
            self._item = value

        @item.deleter
        def item(self):
            del self._item

        @staticmethod
        def empty():
            return Box()

        def __str__(self):
            return "box"


    class Port(abc.ABC):
        @abstractmethod
        def open(self):
            ...
    '''
)

EDGES_ENTERED = {
    "crates.edges.make_counter",
    "crates.edges.make_counter.<locals>.Counter.bump",
    "crates.edges.chosen",
    "crates.edges.fetch",
    "crates.edges.Box.item",
    "crates.edges.Box.item.setter",
    "crates.edges.Box.item.deleter",
    "crates.edges.Box.empty",
}


@pytest.fixture
def edges(tmp_path):
    """Like ``tree``, for the shapes of ``def`` the first fixture does not have."""
    package = tmp_path / "crates"
    package.mkdir()
    (package / "edges.py").write_text(EDGES, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("crates_edges", package / "edges.py")
    module = importlib.util.module_from_spec(spec)
    recorder = reach.Recorder(tmp_path)
    recorder.start()
    try:
        spec.loader.exec_module(module)
        assert module.make_counter()().bump() == 1
        assert module.chosen() == "first"
        coroutine = module.fetch()
        with pytest.raises(StopIteration) as finished:
            coroutine.send(None)
        assert finished.value.value == 7
        box = module.Box.empty()
        box.item = 3
        assert box.item == 3
        del box.item
    finally:
        recorder.stop()
    return reach.list_functions(tmp_path, "crates"), recorder.entered, module


class TestListingEdges:
    def test_a_class_inside_a_function_is_named_under_its_locals(self, edges):
        functions, entered, module = edges
        bump = by_name(functions)["crates.edges.make_counter.<locals>.Counter.bump"]
        code = module.make_counter().bump.__code__
        assert bump.key == ("crates/edges.py", code.co_firstlineno, code.co_name)
        assert bump.key in entered

    def test_a_second_def_of_one_name_is_numbered_and_keeps_its_own_line(self, edges):
        functions, entered, _ = edges
        names = by_name(functions)
        first, second = names["crates.edges.chosen"], names["crates.edges.chosen#2"]
        assert second.key[1] > first.key[1]
        assert first.key in entered and second.key not in entered

    def test_an_async_def_is_listed_and_entered_when_awaited(self, edges):
        functions, entered, _ = edges
        fetch = by_name(functions)["crates.edges.fetch"]
        assert fetch.key[2] == "fetch" and fetch.key in entered

    def test_a_property_deleter_is_a_third_function(self, edges):
        functions, _, module = edges
        names = by_name(functions)
        assert names["crates.edges.Box.item.deleter"].key[1] == (
            module.Box.item.fdel.__code__.co_firstlineno
        )

    def test_str_and_an_imported_abstractmethod_are_exempt(self, edges):
        functions, _, _ = edges
        exempt = {f.qualname: f.exempt for f in functions if f.exempt}
        assert exempt == {"crates.edges.Box.__str__": "repr", "crates.edges.Port.open": "abstract"}

    def test_the_hook_enters_exactly_the_functions_that_ran(self, edges):
        functions, entered, _ = edges
        assert {f.qualname for f in functions if f.key in entered} == EDGES_ENTERED

    def test_only_the_branch_not_taken_fails_the_gate(self, edges):
        functions, entered, _ = edges
        verdict = reach.gate(functions, entered, {})
        assert [f.qualname for f in verdict.unlisted] == ["crates.edges.chosen#2"]


@pytest.fixture(scope="module")
def committed():
    """The tree's functions by name and the committed ledger's rows."""
    functions = reach.list_functions()
    return by_name(functions), reach.parse_ledger(reach.LEDGER.read_text(encoding="utf-8"))


class TestCommittedLedger:
    """What the gate can check without running a consumer."""

    def test_every_row_names_a_function_of_the_tree(self, committed):
        functions, rows = committed
        assert sorted(set(rows) - set(functions)) == []

    def test_no_row_names_a_function_that_is_exempt_anyway(self, committed):
        functions, rows = committed
        assert [name for name in rows if name in functions and functions[name].exempt] == []

    def test_an_item_reason_names_an_item_of_the_roadmap(self, committed):
        _, rows = committed
        roadmap = (reach.ROOT / "ROADMAP.md").read_text(encoding="utf-8")
        items = {int(n) for n in re.findall(r"^\s*(\d+)\.\s", roadmap, re.MULTILINE)}
        cited = {int(r.split("-")[1]) for r in rows.values() if r.startswith("item-")}
        assert cited and cited <= items

    def test_an_api_row_names_a_class_or_function_the_docs_name(self, committed):
        functions, rows = committed
        root = reach.ROOT
        texts = [root / "README.md", *(root / "docs").rglob("*.md"),
                 *(root / "examples").glob("*.py")]
        words = set(re.findall(r"\w+", "".join(p.read_text(encoding="utf-8") for p in texts)))

        def inner_names(name):
            module = functions[name].key[0][: -len(".py")].replace("/", ".")
            module = module[: -len(".__init__")] if module.endswith(".__init__") else module
            return name[len(module) + 1:].split(".")

        unnamed = [
            name for name, reason in rows.items()
            if reason == "api" and name in functions
            and not any(part in words for part in inner_names(name))
        ]
        assert unnamed == []

    def test_every_make_consumer_is_a_target_of_the_makefile(self, tmp_path):
        makefile = (reach.ROOT / "Makefile").read_text(encoding="utf-8")
        targets = set(re.findall(r"^([\w-]+):", makefile, re.MULTILINE))
        wanted = {cmd[1] for cmd in reach.consumers(tmp_path).values() if cmd[0] == "make"}
        assert wanted and wanted <= targets
