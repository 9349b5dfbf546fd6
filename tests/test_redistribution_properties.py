"""Property-based tests for dynamic redistribution.

The paper's central promise is that altering distribution boundaries never
changes what the program computes.  These tests drive a shared object through
*random sequences* of boundary changes (make remote, bring home, move between
nodes, swap transports) interleaved with application calls, and require the
observable results to match the untransformed oracle at every step.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

import matrix
from repro.api.errors import RedistributionError
from repro.core.transformer import ApplicationTransformer
from repro.policy.policy import all_local_policy
from repro.runtime.cluster import Cluster
from repro.runtime.redistribution import DistributionController
from repro.workloads.shared_cache import Cache

NODES = ("alpha", "beta", "gamma")

#: One step of a scenario: either an application call or a boundary change.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 15), st.integers(-100, 100)),
        st.tuples(st.just("get"), st.integers(0, 15)),
        st.tuples(st.just("make_remote"), st.sampled_from(NODES)),
        st.tuples(st.just("make_local")),
        st.tuples(st.just("move"), st.sampled_from(NODES)),
        st.tuples(st.just("set_transport"), st.sampled_from(matrix.TRANSPORTS)),
        st.tuples(st.just("move_graph"), st.sampled_from(NODES)),
        st.tuples(st.just("call_from"), st.sampled_from(NODES), st.integers(0, 15)),
        st.tuples(st.just("move_home")),
    ),
    min_size=1,
    max_size=30,
)


def _apply_application_step(cache, oracle, step, observations):
    if step[0] == "put":
        observations.append(("put", cache.put(f"k{step[1]}", step[2]), oracle.put(f"k{step[1]}", step[2])))
    elif step[0] == "get":
        observations.append(("get", cache.get(f"k{step[1]}"), oracle.get(f"k{step[1]}")))


def _apply_boundary_step(controller, cache, step) -> int:
    """Apply one boundary change; returns how many changes it logged."""
    kind = step[0]
    if kind == "move_graph":  # skips an object already there instead of raising
        return len(controller.move_graph(cache, step[1]))
    if kind == "make_remote":
        controller.make_remote(cache, step[1])
    elif kind == "make_local":
        controller.make_local(cache)
    elif kind == "move":
        controller.move(cache, step[1])
    elif kind == "move_home":
        controller.move(cache, "alpha")  # the caller's own node
    elif kind == "set_transport":
        controller.set_transport(cache, step[1])
    return 1


class TestBoundaryChangesPreserveSemantics:
    @given(steps=_steps)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_boundary_changes_never_change_results(self, steps):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([Cache])
        cluster = Cluster(NODES)
        app.deploy(cluster, default_node="alpha")
        controller = DistributionController(app, cluster)

        cache = app.new("Cache", 16)
        oracle = Cache(16)
        observations: list = []
        # Published under a name before anything moves: the name must follow.
        cluster.naming.rebind("the-cache", cluster.space("alpha").export(cache.meta.target))
        applied = 0

        for step in steps:
            kind = step[0]
            if kind in ("put", "get"):
                _apply_application_step(cache, oracle, step, observations)
            elif kind == "call_from":
                with app.executing_on(step[1]):
                    _apply_application_step(cache, oracle, ("get", step[2]), observations)
            else:
                try:
                    applied += _apply_boundary_step(controller, cache, step)
                except RedistributionError:
                    # Redundant changes (already local, already on that node, ...)
                    # are rejected loudly but must not corrupt the object.
                    pass
            # One object, one live export, wherever it went; the name resolves
            # to it and every applied change is on the log.
            assert sum(len(space.exported_objects()) for space in cluster.spaces()) == 1
            reference = cluster.naming.lookup("the-cache")
            assert reference.node_id == cache.meta.node_id
            answer = cluster.space("gamma").invoke_remote(reference, "get", ("k0",))
            assert answer == oracle.get("k0")
            assert len(controller.changes) == applied

        for kind, observed, expected in observations:
            assert observed == expected, f"{kind} diverged"
        # Final state agrees regardless of where the object ended up.
        assert cache.size() == oracle.size()
        assert cache.hit_rate() == oracle.hit_rate()

    @given(
        moves=st.lists(st.sampled_from(NODES), min_size=1, max_size=8),
        values=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_repeated_migration_accumulates_state_correctly(self, moves, values):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([Cache])
        cluster = Cluster(NODES)
        app.deploy(cluster, default_node="alpha")
        migrator = DistributionController(app, cluster)

        cache = app.new("Cache", 64)
        written = 0
        for index, (node, value) in enumerate(zip(moves, values)):
            cache.put(f"k{index}", value)
            written += 1
            try:
                migrator.move(cache, node)
            except RedistributionError:
                pass
        assert cache.size() == written
        for index, value in enumerate(values[: len(moves)]):
            assert cache.get(f"k{index}") == value

    @given(steps=_steps)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_boundary_changes_are_logged_consistently(self, steps):
        app = ApplicationTransformer(all_local_policy(dynamic=True)).transform([Cache])
        cluster = Cluster(NODES)
        app.deploy(cluster, default_node="alpha")
        controller = DistributionController(app, cluster)
        cache = app.new("Cache", 16)

        applied = 0
        for step in steps:
            try:
                if step[0] == "make_remote":
                    controller.make_remote(cache, step[1])
                    applied += 1
                elif step[0] == "make_local":
                    controller.make_local(cache)
                    applied += 1
            except RedistributionError:
                continue
        assert len(controller.changes) == applied
        kind, node = controller.boundary_of(cache)
        if controller.changes:
            assert controller.changes[-1].operation in ("make_remote", "make_local")
            if controller.changes[-1].operation == "make_remote":
                assert kind == "remote"
            else:
                assert kind == "local"
