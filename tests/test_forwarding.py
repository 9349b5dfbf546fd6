"""Moved, not lost: a reference held anywhere survives a relocation or failover.

Relocation (``DistributionController``, the adaptive manager) and failover
(``ReplicaManager``) both publish where an object went in the cluster's one
forward table (``cluster.naming``).  A proxy whose call is refused before it
ran — the retired id is unknown at its node, or a superseded primary fenced
it — re-binds to the forwarded reference and re-issues the call once per hop;
a call that ran is never issued twice.
"""

from __future__ import annotations

import pytest

import matrix
from repro.api.errors import FencedError, RemoteInvocationError, UnknownObjectError
from repro.core.transformer import ApplicationTransformer
from repro.policy.adaptive import AdaptiveDistributionManager
from repro.policy.policy import ClassPolicy, DistributionPolicy, PlacementDecision, remote
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController
from repro.runtime.remote_ref import reference_of

NODES = ("client", "server", "third", "fourth")
#: The refusals a method may raise itself, after it ran.
REFUSALS = {"unknown": UnknownObjectError, "fenced": FencedError}


class Counter:
    def __init__(self):
        self.n = 0

    def bump(self):
        self.n = self.n + 1
        return self.n

    def get(self):
        return self.n

    def bump_then_refuse(self, kind):
        self.n = self.n + 1
        raise REFUSALS[kind]("raised after the call ran")


class Holder:
    def __init__(self, c):
        self.c = c

    def keep(self, c):
        self.c = c

    def give(self):
        return self.c

    def use(self):
        return self.c.bump()

    def peek(self):
        return self.c.get()

    def use_then_refuse(self, kind):
        return self.c.bump_then_refuse(kind)


def _deploy(transport):
    """Counter local and movable; Holder created on ``server``, both over ``transport``."""
    decision = PlacementDecision(transport=transport, dynamic=True)
    policy = DistributionPolicy(default=ClassPolicy(instances=decision, statics=decision))
    policy.set_class("Holder", instances=remote("server", transport, dynamic=True))
    app = ApplicationTransformer(policy).transform([Counter, Holder])
    cluster = Cluster(NODES)
    app.deploy(cluster, default_node="client")
    return app, cluster, DistributionController(app, cluster)


def _adapt(app, controller, c):
    """Calls from ``third`` dominate, so the adaptive manager moves ``c`` there."""
    manager = AdaptiveDistributionManager(app, controller, min_calls=3)
    manager.attach(c)
    with app.executing_on("third"):
        for _ in range(3):
            c.bump()
    assert manager.adapt().moved == 1


#: Each move: where the counter starts (``None``: local to the client) and the
#: boundary change itself.
MOVES = {
    "move": ("fourth", lambda app, controller, c: controller.move(c, "third")),
    "make_local": ("fourth", lambda app, controller, c: controller.make_local(c)),
    "make_remote": (None, lambda app, controller, c: controller.make_remote(c, "third")),
    "move_graph": (None, lambda app, controller, c: controller.move_graph(c, "third")),
    "adapt": (None, _adapt),
}


class _NameResolved:
    """A plain proxy the client resolved from the counter's name before the move."""

    def __init__(self, app, cluster, c):
        self.app, self.cluster = app, cluster
        space = cluster.space("client")
        cluster.naming.rebind("counter", reference_of(c) or space.export(c.meta.target))
        self.proxy = app.proxy_for_ref(cluster.naming.lookup("counter"), space)

    def use(self):
        return self.proxy.bump()

    def peek(self):
        return self.proxy.get()

    def fresh(self):
        """A proxy resolved from the name now."""
        proxy = self.app.proxy_for_ref(
            self.cluster.naming.lookup("counter"), self.cluster.space("client")
        )
        return proxy.get


def _argument_held(app, cluster, c):
    holder = app.new("Holder", None)
    holder.keep(c)
    return holder


#: How the stale reference is held: a remote Holder given the counter as a
#: call argument or as a constructor argument kept in its field, or a plain
#: proxy resolved from a name.
HOLDERS = {
    "argument-held": _argument_held,
    "field-held": lambda app, cluster, c: app.new("Holder", c),
    "name-resolved": _NameResolved,
}


def _fresh_peek(app, holder, c):
    """The read a holder given the counter's current reference makes."""
    if isinstance(holder, _NameResolved):
        return holder.fresh()
    return app.new("Holder", c).peek


def _cost(cluster, call):
    before = cluster.metrics.total_messages
    value = call()
    return value, cluster.metrics.total_messages - before


def _all_local(move):
    """The same script on the original classes: what every run must observe."""
    c = Counter()
    holder = Holder(c)
    seen = [holder.use()]
    if move == "adapt":
        for _ in range(3):
            c.bump()  # the calls that make the manager move the counter
    seen += [holder.use(), holder.peek(), holder.use()]
    return seen, c.get()


class TestForwarding:
    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    @pytest.mark.parametrize("move", sorted(MOVES))
    @pytest.mark.parametrize("held", sorted(HOLDERS))
    def test_a_held_reference_survives_the_move(self, held, move, transport):
        app, cluster, controller = _deploy(transport)
        start, apply_move = MOVES[move]
        c = app.new("Counter")
        if start is not None:
            controller.make_remote(c, start)
        holder = HOLDERS[held](app, cluster, c)
        seen = [holder.use()]
        apply_move(app, controller, c)
        seen.append(holder.use())
        second, cost = _cost(cluster, holder.peek)
        fresh, fresh_cost = _cost(cluster, _fresh_peek(app, holder, c))
        seen += [second, holder.use()]
        assert (seen, c.get()) == _all_local(move)
        assert second == fresh
        assert cost == fresh_cost  # the holder's proxy now names the copy


class TestForwardedArguments:
    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    def test_a_retired_reference_passed_to_its_old_node_resolves_to_the_copy(self, transport):
        app, cluster, controller = _deploy(transport)
        c = app.new("Counter")
        holder = _argument_held(app, cluster, c)
        controller.make_remote(c, "server")
        assert holder.use() == 1  # the holder's proxy re-binds to the copy on "server"
        controller.move(c, "fourth")
        stale = holder.give()  # names the copy "server" retired
        other = app.new("Holder", None)
        other.keep(stale)  # decoded on "server", where the id is unknown now
        assert other.use() == 2 and c.get() == 2
        assert reference_of(other.give()) == reference_of(c)


def _replicated(transport, *, quorum=1):
    """A replicated Counter on ``a`` (backups ``b``, ``c``) and a plain proxy
    to its primary, held by the client."""
    app = ApplicationTransformer(DistributionPolicy()).transform([Counter, Holder])
    cluster = Cluster(("monitor", "client", "a", "b", "c"))
    app.deploy(cluster, default_node="client")
    manager = matrix.detected_manager(cluster, application=app)
    group = manager.replicate(
        app.new("Counter"), name="counter", primary_node="a",
        backup_nodes=["b", "c"], readonly=["get"], quorum=quorum, transport=transport,
    )
    proxy = app.proxy_for_ref(group.primary_ref, cluster.space("client"), transport=transport)
    return cluster, manager, group, proxy


def _pump(cluster, seconds):
    cluster.network.events.run_until(cluster.clock.now + seconds)


class TestForwardingAcrossFailover:
    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    def test_a_plain_proxy_reaches_the_promoted_copy_once_the_old_node_recovers(
        self, transport
    ):
        cluster, manager, group, proxy = _replicated(transport)
        assert proxy.bump() == 1
        cluster.network.failures.crash_node("a")
        _pump(cluster, 0.02)
        assert group.primary_node != "a"
        cluster.network.failures.recover_node("a")
        assert proxy.bump() == 2  # refused unrun by "a", re-issued to the new primary
        assert reference_of(proxy) == group.primary_ref
        assert proxy.get() == 2

    @pytest.mark.parametrize("transport", matrix.TRANSPORTS)
    def test_a_plain_proxy_to_a_fenced_primary_reaches_the_promoted_copy_once_healed(
        self, transport
    ):
        cluster, manager, group, proxy = _replicated(transport, quorum=2)
        assert proxy.bump() == 1
        cluster.network.failures.partition(["a"], ["monitor", "b", "c", "client"])
        _pump(cluster, 0.02)
        assert group.epoch == 1 and group.primary_node != "a"
        cluster.network.failures.heal()
        # The superseded wrapper on "a" still answers, and fences the call.
        assert proxy.bump() == 2
        assert group.fenced_calls == 1
        assert reference_of(proxy) == group.primary_ref
        _pump(cluster, 0.1)  # the heal reconciles "a"
        assert proxy.get() == 2


class TestNeverTwice:
    @pytest.mark.parametrize("kind", sorted(REFUSALS))
    def test_a_forwarded_call_that_ran_and_then_refused_is_not_reissued(self, kind):
        app, cluster, controller = _deploy("rmi")
        c = app.new("Counter")
        holder = _argument_held(app, cluster, c)
        controller.make_remote(c, "third")
        with pytest.raises((RemoteInvocationError, FencedError)):
            holder.use_then_refuse(kind)
        assert c.get() == 1  # forwarded once, ran once

    def test_a_call_through_a_never_retired_reference_is_not_reissued(self):
        app, cluster, controller = _deploy("rmi")
        c = app.new("Counter")
        holder = _argument_held(app, cluster, c)
        controller.make_remote(c, "third")
        assert holder.use() == 1
        with pytest.raises(RemoteInvocationError):
            holder.use_then_refuse("unknown")
        assert c.get() == 2
