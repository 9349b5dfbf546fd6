"""The emitted listing is the program.

``core/codegen.py`` is the only implementation of the transformation's output
and ``core/generator.py`` executes its text.  These tests pin what follows from
that: every generated function was compiled from the listing, the members whose
source cannot be rewritten are the original functions (and the listing says
so), the names the text relies on cannot be captured by the application, and
``emit_sources`` hands back the executed text without rewriting anything again.
"""

from __future__ import annotations

import inspect
import traceback
import types

import pytest

import sample_app
from repro.api.errors import GenerationError
from repro.cli import load_classes_from_file
from repro.core import codegen, generator, metaobject
from repro.core.classmodel import ClassModel, MethodModel
from repro.core.interfaces import cacheable, cacheable_members
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, place_classes_on
from repro.runtime.cluster import Cluster
from repro.workloads.figure1 import A, B, C


def transform(classes, **kwargs):
    return ApplicationTransformer(all_local_policy(), **kwargs).transform(classes)


def load_app(tmp_path, name: str, source: str) -> dict[str, type]:
    """Classes of an application module written to disk, so they have source."""
    path = tmp_path / f"{name}.py"
    path.write_text(source, encoding="utf-8")
    return {cls.__name__: cls for cls in load_classes_from_file(path)}


# ---------------------------------------------------------------------------
# Every generated function was compiled from the text that emit_sources returns
# ---------------------------------------------------------------------------

def _functions(value):
    if isinstance(value, types.FunctionType):
        return [value]
    if isinstance(value, (classmethod, staticmethod)):
        return [value.__func__]
    if isinstance(value, property):
        return [f for f in (value.fget, value.fset, value.fdel) if f is not None]
    return []


@pytest.mark.parametrize(
    "classes", [(sample_app.X, sample_app.Y, sample_app.Z), (A, B, C)], ids=["figure2", "figure1"]
)
def test_every_generated_function_is_a_line_of_the_listing(classes):
    app = transform(classes)
    checked = 0
    for class_name in app.transformed_classes():
        artifacts = app.artifacts(class_name)
        originals = {method.func for method in artifacts.model.methods}
        for name, source in artifacts.sources.items():
            lines = source.splitlines()
            for value in vars(app.registry.namespace[name]).values():
                for function in _functions(value):
                    if function in originals:
                        continue  # installed as it is: source unavailable
                    code = function.__code__
                    assert code.co_filename == generator.source_filename(name, source)
                    first = lines[code.co_firstlineno - 1].strip()
                    # A decorated def starts at its decorator.
                    assert first.startswith((f"def {function.__name__}(", "@")), (name, first)
                    checked += 1
    assert checked > 50


def test_each_transformation_keeps_the_lines_of_its_own_text():
    # Y and Z's absence changes X_O_Factory's text; the second transformation
    # must not overwrite the lines the first one's functions show.
    apps = [transform([sample_app.X, sample_app.Y, sample_app.Z]), transform([sample_app.X])]
    sources = [app.artifacts("X").sources["X_O_Factory"] for app in apps]
    assert sources[0] != sources[1]
    for app, source in zip(apps, sources):
        lines = source.splitlines(True)
        functions = [
            function
            for value in vars(app.registry.namespace["X_O_Factory"]).values()
            for function in _functions(value)
        ]
        assert functions
        for function in functions:
            shown, start = inspect.getsourcelines(function)
            assert shown == lines[start - 1 : start - 1 + len(shown)], function


def test_artifacts_sources_is_what_emit_sources_returns():
    app = transform([sample_app.X, sample_app.Y, sample_app.Z])
    assert app.emit_sources("X") == app.artifacts("X").sources
    assert "X_O_Redirector" in app.emit_sources("X")
    assert app.artifacts("X").class_local_cls._me is None  # Figure 4's slot


# ---------------------------------------------------------------------------
# Members whose source cannot be rewritten (a class built with exec)
# ---------------------------------------------------------------------------

NO_SOURCE_APP = '''
class Counter:
    def __init__(self, start, step=1):
        self.count = start
        self.step = step

    def tick(self):
        self.count += self.step
        return self.count

    @cacheable
    def peek(self):
        return self.count

    @staticmethod
    def label(n):
        return "#" + str(n)
'''


#: Without source a static initialiser is the ``repr`` of the value it left.
STATICS_WITHOUT_SOURCE_APP = '''
class Tally:
    LIMIT = 5
    NAMES = ("a", "b")

    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += Tally.LIMIT
        return self.n


class Odd:
    SENTINEL = object()
'''


@pytest.fixture
def counter_cls():
    namespace = {"__name__": "exec_built_app", "cacheable": cacheable}
    exec(NO_SOURCE_APP, namespace)  # no file behind it: inspect.getsource fails
    return namespace["Counter"]


class TestMembersWithoutSource:
    def test_original_functions_are_installed_and_behave(self, counter_cls):
        app = transform([counter_cls])
        assert "_repro_original" in app.artifacts("Counter").sources["Counter_O_Local"]
        original = counter_cls(5, step=2)
        transformed = app.new("Counter", 5, step=2)  # constructor keyword travels
        assert [transformed.tick(), transformed.tick(), transformed.peek()] == [
            original.tick(), original.tick(), original.peek()
        ]
        assert app.statics("Counter").label(7) == counter_cls.label(7) == "#7"
        local_cls = app.artifacts("Counter").local_cls
        assert vars(local_cls)["tick"] is vars(counter_cls)["tick"]  # nothing wraps it

    def test_cacheable_marker_survives(self, counter_cls):
        app = transform([counter_cls])
        # Cacheability travels as the tuple the proxies carry, on the locals too.
        assert app.artifacts("Counter").local_cls._repro_cacheable_members == ("peek",)
        assert "peek" in cacheable_members(app.artifacts("Counter").local_cls)
        assert "tick" not in cacheable_members(app.artifacts("Counter").local_cls)

    def test_listing_shows_the_original_not_a_stub(self, counter_cls):
        sources = transform([counter_cls]).emit_sources("Counter")
        assert (
            "tick = _repro_original('Counter', 'tick')  # original source unavailable"
            in sources["Counter_O_Local"]
        )
        assert (
            "label = staticmethod(_repro_original('Counter', 'label'))"
            in sources["Counter_C_Local"]
        )
        assert "_repro_original('Counter', '__init__')(that, *args, **kwargs)" in (
            sources["Counter_O_Factory"]
        )
        assert "NotImplementedError" not in "".join(sources.values())

    def test_static_initialisers_replay_the_value_repr(self):
        namespace = {"__name__": "exec_built_app"}
        exec(STATICS_WITHOUT_SOURCE_APP, namespace)
        app = transform([namespace["Tally"]])
        clinit = app.emit_sources("Tally")["Tally_C_Factory"]
        assert "that.set_LIMIT(5)\n" in clinit and "that.set_NAMES(('a', 'b'))\n" in clinit
        assert app.statics("Tally").get_NAMES() == ("a", "b")
        assert app.new("Tally").bump() == 5

    def test_static_whose_repr_is_not_python_is_refused_by_the_compiler(self):
        namespace = {"__name__": "exec_built_app"}
        exec(STATICS_WITHOUT_SOURCE_APP, namespace)
        with pytest.raises(GenerationError, match="Odd_C_Factory does not compile"):
            transform([namespace["Odd"]])

    def test_model_with_neither_source_nor_function_gets_the_stub(self):
        ghost = ClassModel(name="Ghost", module="handmade", methods=[MethodModel("boo")])
        app = transform([ghost])
        listing = app.emit_sources("Ghost")["Ghost_O_Local"]
        assert "raise NotImplementedError('Ghost.boo')" in listing
        with pytest.raises(NotImplementedError, match="Ghost.boo"):
            app.new("Ghost").boo(1, loud=True)


# ---------------------------------------------------------------------------
# One namespace: what the text relies on cannot be captured by the application
# ---------------------------------------------------------------------------

PROXY_APP = '''
class Proxy:
    """A voting proxy — a domain class that happens to share a framework name."""

    def __init__(self, holder):
        self.holder = holder

    def vote(self, motion):
        return f"{self.holder} votes for {motion}"


class Redirector:
    def __init__(self, proxy):
        self.proxy = proxy

    def forward(self, motion):
        return self.proxy.vote(motion)
'''

SHADOWING_APP = '''
property = {"street": "Main"}


class House:
    def __init__(self, number):
        self.number = number

    def address(self):
        return f"{self.number} {property['street']}"
'''


class TestSharedNamespace:
    def test_application_classes_named_like_the_framework_keep_working(self, tmp_path):
        classes = load_app(tmp_path, "voting", PROXY_APP)
        app = ApplicationTransformer(place_classes_on({"Proxy": "server"})).transform(
            list(classes.values())
        )
        app.deploy(Cluster(("client", "server")), default_node="client")
        remote = app.new("Proxy", "Ada")
        assert (type(remote).__name__, remote._transport) == ("Proxy_O_Proxy", "rmi")
        # Its base is the framework's Proxy, reached under a name of its own.
        assert isinstance(remote, metaobject.Proxy) and not isinstance(remote, classes["Proxy"])
        expected = classes["Redirector"](classes["Proxy"]("Ada")).forward("lunch")
        assert app.new("Redirector", remote).forward("lunch") == expected

    def test_module_rebinding_a_builtin_the_text_uses_is_refused_by_name(self, tmp_path):
        classes = load_app(tmp_path, "shadowing", SHADOWING_APP)
        with pytest.raises(GenerationError, match="rebinds 'property'"):
            transform(list(classes.values()))


# ---------------------------------------------------------------------------
# Static initialisers keep all their arguments; private names keep their owner
# ---------------------------------------------------------------------------

KEYWORD_INITIALISER_APP = '''
class Z:
    def __init__(self, seed, scale=1):
        self.seed = seed
        self.scale = scale

    def q(self, i):
        return self.seed * self.scale * i


class X:
    z = Z(2, scale=10)

    @staticmethod
    def p(i):
        return X.z.q(i)
'''

CAPTURED_TEMPORARY_APP = '''
t = 7


class Z:
    def __init__(self, seed):
        self.seed = seed


class X:
    z = Z(t)
    after = t + 1
'''

ALIASED_MEMBERS_APP = '''
class Basket:
    def __init__(self):
        self.items = []

    def add(self, item):
        self.items.append(item)
        return len(self.items)

    put = add

    def _get_total(self):
        return len(self.items)

    total = property(_get_total)
'''

RAISING_APP = '''
class Wallet:
    def __init__(self, cash):
        self.cash = cash

    def spend(self, amount):
        if amount > self.cash:
            raise ValueError("insufficient")
        self.cash -= amount
'''

PRIVATE_NAMES_APP = '''
class Counter:
    def __init__(self, start):
        self.__count = start

    def __bump(self, by=1):
        self.__count += by
        return self.__count

    def tick(self):
        return self.__bump(by=2)
'''


def test_static_initialiser_keeps_its_keyword_arguments(tmp_path):
    classes = load_app(tmp_path, "keyword_init", KEYWORD_INITIALISER_APP)
    app = transform(list(classes.values()))
    assert classes["X"].p(3) == app.statics("X").p(3) == 60
    assert "Z_O_Factory.init(t, 2, scale=10)" in app.emit_sources("X")["X_C_Factory"]


def test_two_step_temporary_does_not_capture_an_application_global(tmp_path):
    classes = load_app(tmp_path, "captured_temporary", CAPTURED_TEMPORARY_APP)
    statics = transform(list(classes.values())).statics("X")
    assert statics.get_z().get_seed() == classes["X"].z.seed == 7
    assert statics.get_after() == classes["X"].after == 8


def test_member_bound_under_another_name_defines_that_name(tmp_path):
    """In a class body a ``def`` binds its own name, so an alias needs renaming."""
    basket = load_app(tmp_path, "aliased_members", ALIASED_MEMBERS_APP)["Basket"]
    transformed = transform([basket]).new("Basket")
    assert [transformed.add("a"), transformed.put("b"), transformed.total()] == [1, 2, 2]


def test_private_members_are_mangled_as_their_class_did(tmp_path):
    counter = load_app(tmp_path, "private_names", PRIVATE_NAMES_APP)["Counter"]
    expected = [counter(5).tick(), 9]
    local = transform([counter]).new("Counter", 5)
    assert [local.tick(), local.tick()] == expected

    app = ApplicationTransformer(place_classes_on({"Counter": "server"})).transform([counter])
    app.deploy(Cluster(("client", "server")), default_node="client")
    remote = app.new("Counter", 5)
    assert (type(remote).__name__, remote._transport) == ("Counter_O_Proxy", "rmi")
    assert [remote.tick(), remote.tick()] == expected
    assert remote.get__Counter__count() == 9


# ---------------------------------------------------------------------------
# emit_sources tells the truth cheaply
# ---------------------------------------------------------------------------

class TestEmitSources:
    def test_answers_without_rewriting_again(self, monkeypatch):
        app = transform([sample_app.X, sample_app.Y, sample_app.Z])
        executed = dict(app.artifacts("X").sources)

        def refuse(*args, **kwargs):
            raise AssertionError("emit_sources must not rewrite")

        for name in ("rewrite_method", "rewrite_constructor_to_init", "rewrite_expression"):
            monkeypatch.setattr(codegen, name, refuse)
        assert app.emit_sources("X") == executed
        assert "return self.get_y().n(j)" in app.emit_sources("X")["X_O_Local"]

    def test_lists_one_proxy_per_interface_and_no_transport(self):
        sources = transform([sample_app.X, sample_app.Y, sample_app.Z]).emit_sources("X")
        assert sorted(name for name in sources if "Proxy" in name) == ["X_C_Proxy", "X_O_Proxy"]
        assert not any("_repro_transport" in source for source in sources.values())


def test_a_traceback_through_a_generated_method_shows_the_generated_line(tmp_path):
    wallet = load_app(tmp_path, "raising", RAISING_APP)["Wallet"]
    app = transform([wallet])
    try:
        app.new("Wallet", 3).spend(5)
    except ValueError as error:
        text = "".join(traceback.format_exception(error))
    else:  # pragma: no cover - the method raises
        raise AssertionError("spend(5) did not raise")
    source = app.emit_sources("Wallet")["Wallet_O_Local"]
    line = next(line.strip() for line in source.splitlines() if "raise ValueError" in line)
    assert f'File "{generator.source_filename("Wallet_O_Local", source)}"' in text
    assert line in text
