"""Unit tests for the metaobject protocol."""

from __future__ import annotations

import pytest

from repro.api.errors import PolicyError
from repro.core.interception import Interceptor
from repro.core.metaobject import (
    KIND_LOCAL,
    KIND_REMOTE,
    Metaobject,
    Redirector,
    metaobject_of,
    unwrap,
)
from repro.policy.adaptive import AccessMonitor


class _CallLog(Interceptor):
    """Records every bracket event of the handle's calls, in order."""

    def __init__(self):
        self.events = []

    def begin(self, ctx):
        self.events.append(("begin", ctx.member, ctx.args, ctx.kwargs))

    def end(self, ctx, result):
        self.events.append(("end", ctx.member, result))

    def abort(self, ctx, error):
        self.events.append(("abort", ctx.member, type(error).__name__))


class _Greeter:
    def __init__(self, name):
        self.name = name
        self.calls = 0

    def greet(self, whom):
        self.calls += 1
        return f"{self.name} greets {whom}"

    def fail(self):
        raise ValueError("boom")


class TestMetaobjectDispatch:
    def test_invoke_dispatches_to_target(self):
        meta = Metaobject(_Greeter("alice"))
        assert meta.invoke("greet", "bob") == "alice greets bob"

    def test_invoke_propagates_exceptions(self):
        meta = Metaobject(_Greeter("alice"))
        with pytest.raises(ValueError):
            meta.invoke("fail")

    def test_an_unmonitored_handle_has_an_empty_chain(self):
        meta = Metaobject(_Greeter("alice"))
        meta.invoke("greet", "bob")
        assert meta.chain.empty

    def test_remote_kind_without_an_application_calls_its_target(self):
        target = _Greeter("alice")
        meta = Metaobject(target, kind=KIND_REMOTE, node_id="server")
        assert meta.is_remote
        assert meta.invoke("greet", "bob") == "alice greets bob"
        assert target.calls == 1

    def test_the_context_names_interface_member_and_arguments(self):
        contexts = []

        class Capture(Interceptor):
            def begin(self, ctx):
                contexts.append(ctx)

        meta = Metaobject(_Greeter("alice"), interface_name="Greeter_O_Int")
        meta.add_interceptor(Capture())
        meta.invoke("greet", "bob")
        (ctx,) = contexts
        assert (ctx.service, ctx.member, ctx.args, ctx.kwargs) == (
            "Greeter_O_Int", "greet", ("bob",), {}
        )
        assert ctx.side == "client"
        assert ctx.clock is None  # no cluster behind a bare metaobject
        assert ctx.now() == 0.0


class TestInterceptors:
    def test_begin_and_end_bracket_each_call(self):
        meta = Metaobject(_Greeter("alice"))
        log = meta.add_interceptor(_CallLog())
        meta.invoke("greet", "bob")
        meta.invoke("greet", whom="carol")
        assert log.events == [
            ("begin", "greet", ("bob",), {}),
            ("end", "greet", "alice greets bob"),
            ("begin", "greet", (), {"whom": "carol"}),
            ("end", "greet", "alice greets carol"),
        ]

    def test_interceptor_can_veto_an_invocation(self):
        class Veto(Interceptor):
            def begin(self, ctx) -> None:
                if ctx.member == "fail":
                    raise PermissionError("vetoed")

        target = _Greeter("alice")
        meta = Metaobject(target)
        meta.add_interceptor(Veto())
        with pytest.raises(PermissionError):
            meta.invoke("fail")
        # Other members still go through.
        assert meta.invoke("greet", "bob").endswith("bob")
        assert target.calls == 1

    def test_abort_sees_errors_and_end_does_not(self):
        meta = Metaobject(_Greeter("alice"))
        log = meta.add_interceptor(_CallLog())
        meta.invoke("greet", "bob")
        with pytest.raises(ValueError):
            meta.invoke("fail")
        assert [event[0] for event in log.events] == ["begin", "end", "begin", "abort"]
        assert log.events[-1] == ("abort", "fail", "ValueError")

    def test_remove_interceptor(self):
        meta = Metaobject(_Greeter("alice"))
        log = meta.add_interceptor(_CallLog())
        meta.remove_interceptor(log)
        meta.remove_interceptor(log)  # idempotent
        meta.invoke("greet", "bob")
        assert log.events == []
        assert meta.chain.interceptors == ()

    def test_add_interceptor_refuses_a_non_interceptor(self):
        meta = Metaobject(_Greeter("alice"))
        with pytest.raises(PolicyError):
            meta.add_interceptor(object())
        assert meta.chain.empty


class TestRebinding:
    def test_rebind_swaps_the_target(self):
        meta = Metaobject(_Greeter("alice"))
        meta.rebind(_Greeter("zoe"), KIND_LOCAL)
        assert meta.invoke("greet", "bob") == "zoe greets bob"

    def test_rebind_updates_kind_and_node(self):
        meta = Metaobject(_Greeter("alice"))
        meta.rebind(_Greeter("zoe"), KIND_REMOTE, node_id="server")
        assert meta.kind == KIND_REMOTE
        assert meta.node_id == "server"


class TestRedirector:
    def test_getattr_fallback_delegates_through_metaobject(self):
        meta = Metaobject(_Greeter("alice"))
        handle = Redirector(meta)
        log = meta.add_interceptor(_CallLog())
        assert handle.greet("bob") == "alice greets bob"
        assert [event[:2] for event in log.events] == [("begin", "greet"), ("end", "greet")]

    def test_redirector_identity_survives_rebinding(self):
        meta = Metaobject(_Greeter("alice"))
        handle = Redirector(meta)
        before = id(handle)
        meta.rebind(_Greeter("zoe"), KIND_LOCAL)
        assert id(handle) == before
        assert handle.greet("bob").startswith("zoe")

    def test_metaobject_of(self):
        meta = Metaobject(_Greeter("alice"))
        handle = Redirector(meta)
        assert metaobject_of(handle) is meta
        assert metaobject_of(_Greeter("alice")) is None
        assert metaobject_of(object()) is None

    def test_unwrap_follows_to_base_object(self):
        target = _Greeter("alice")
        handle = Redirector(Metaobject(target))
        assert unwrap(handle) is target
        assert unwrap(target) is target

    def test_dunder_attributes_are_not_intercepted(self):
        handle = Redirector(Metaobject(_Greeter("alice")))
        with pytest.raises(AttributeError):
            handle.__missing_dunder__


class _Placement:
    """The one thing an access monitor asks of its application."""

    def __init__(self, node):
        self.node = node

    def _current_node_id(self):
        return self.node


class TestAccessMonitor:
    """Call counting lives on the monitored handles' chains only."""

    def test_monitor_counts_calls_per_calling_node(self):
        placement = _Placement("client")
        meta = Metaobject(_Greeter("alice"))
        monitor = meta.add_interceptor(AccessMonitor(placement))
        meta.invoke("greet", "x")
        placement.node = "server"
        meta.invoke("greet", "y")
        meta.invoke("greet", "z")
        assert monitor.total_calls == 3
        assert monitor.calls_per_node == {"client": 1, "server": 2}
        assert monitor.dominant_node() == ("server", pytest.approx(2 / 3))

    def test_reset_empties_the_window(self):
        meta = Metaobject(_Greeter("alice"))
        monitor = meta.add_interceptor(AccessMonitor(_Placement("client")))
        meta.invoke("greet", "x")
        monitor.reset()
        assert monitor.total_calls == 0
        assert monitor.dominant_node() is None
