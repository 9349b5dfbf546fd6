"""The paper's promises about the transformed program, probed as tests.

A transformed program must behave like the original (the paper's §2.4), and
its distribution boundaries may change at run time without the references
the rest of the program holds noticing (§1).  Each probe below is the
smallest program that shows one promise kept or broken.  A promise not kept
yet is a strict xfail naming the ROADMAP item that owns it, so the gap shows
in every run and the fix flips it.
"""

from __future__ import annotations

import pytest

from repro.api.errors import RemoteInvocationError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy, place_classes_on
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController


class Counter:
    def __init__(self):
        self.n = 0

    def bump(self):
        self.n = self.n + 1
        return self.n


class Holder:
    def __init__(self):
        self.c = None

    def keep(self, c):
        self.c = c

    def use(self):
        return self.c.bump()


class Base:
    def __init__(self, n):
        self.n = n

    def get(self):
        return self.n


class Child(Base):
    def __init__(self, n):
        super().__init__(n)


class Acct:
    def __init__(self):
        self.balance = 0

    def withdraw(self, amount):
        if amount > self.balance:
            raise ValueError("insufficient")
        self.balance = self.balance - amount
        return self.balance


def test_a_remote_holder_keeps_its_handle_across_a_move():
    """ROADMAP item 2: a reference another node holds survives a move."""
    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([Counter, Holder])
    cluster = Cluster(("client", "server", "third"))
    app.deploy(cluster, default_node="client")
    controller = DistributionController(app, cluster)
    c, h = app.new("Counter"), app.new("Holder")
    controller.make_remote(h, "server")
    h.keep(c)
    assert h.use() == 1
    controller.make_remote(c, "third")
    assert h.use() == 2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: a moved holder's copy reaches the Counter it held as the "
    "bare implementation, so it keeps calling the retired one after that moves",
)
def test_a_moved_holder_follows_the_object_it_holds_when_that_moves():
    app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([Counter, Holder])
    cluster = Cluster(("client", "server", "third", "fourth"))
    app.deploy(cluster, default_node="client")
    controller = DistributionController(app, cluster)
    c, h = app.new("Counter"), app.new("Holder")
    controller.make_remote(h, "server")
    h.keep(c)
    assert h.use() == 1
    controller.move(h, "fourth")
    controller.make_remote(c, "third")
    assert h.use() == 2
    assert c.get_n() == 2  # today 1: the copy bumped the retired Counter


@pytest.mark.xfail(
    strict=True,
    raises=TypeError,
    reason="ROADMAP 1(b): super() inside a transformed class does not reach the "
    "generated hierarchy",
)
def test_a_subclass_constructor_calling_super_builds():
    app = ApplicationTransformer(all_local_policy()).transform([Base, Child])
    assert app.new("Child", 3).get() == 3


def test_a_remote_application_error_keeps_its_type():
    app = ApplicationTransformer(place_classes_on({"Acct": "server"})).transform([Acct])
    app.deploy(Cluster(("client", "server")), default_node="client")
    acct = app.new("Acct")
    with pytest.raises(ValueError, match="insufficient") as raised:
        acct.withdraw(5)
    assert isinstance(raised.value, RemoteInvocationError)
    assert raised.value.remote_type == "ValueError"
