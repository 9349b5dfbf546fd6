"""The paper's Figure 1 scenario, end to end.

Objects of class A and class B hold references to a shared instance of class
C.  The example runs the identical interaction sequence six ways:

1. the original, untransformed classes;
2. the transformed program in a single address space;
3. the transformed program with C placed on a remote node behind a proxy;
4. the transformed program where C starts local and is moved to the remote
   node *while the program is running*;
5. the same move while A lives on another node: the reference A holds names
   C's old export, and the cluster's forward table leads A's call to the
   copy; and
6. the transformed program with C *adopted* by a session: replicated three
   ways under a write quorum, its reads cached, every call traced — and the
   primary crashed half-way through.  A, B and C are the same unedited classes.

Run with:  python examples/figure1_redistribution.py
"""

from __future__ import annotations

from repro import ApplicationTransformer, Cluster, DistributionController
from repro.api import ServicePolicy, Session
from repro.observability import render_phase_table, slowest_traces
from repro.policy import all_local_policy, local, place_classes_on, remote
from repro.workloads.figure1 import A, B, C, run_figure1_plain, run_figure1_scenario

VALUES = tuple(range(1, 11))


def show(label: str, result, cluster=None) -> None:
    line = f"{label:28s} total={result.total:<6} average={result.average:<6.2f}"
    if cluster is not None:
        line += (
            f" messages={cluster.metrics.total_messages:<4}"
            f" simulated_ms={cluster.clock.now * 1000:.2f}"
        )
    print(line)


def main() -> None:
    oracle = run_figure1_plain(VALUES)
    show("original program", oracle)

    # Transformed, single address space.
    local_app = ApplicationTransformer(all_local_policy()).transform([A, B, C])
    show("transformed, all local", run_figure1_scenario(local_app, VALUES))

    # Transformed, shared C remote from the start.
    remote_app = ApplicationTransformer(place_classes_on({"C": "server"})).transform([A, B, C])
    remote_cluster = Cluster(("client", "server"))
    remote_app.deploy(remote_cluster, default_node="client")
    show("transformed, C on server", run_figure1_scenario(remote_app, VALUES), remote_cluster)

    # Transformed, C moved to the server half-way through the run.
    policy = all_local_policy()
    policy.set_class("C", instances=local(dynamic=True))
    dynamic_app = ApplicationTransformer(policy).transform([A, B, C])
    dynamic_cluster = Cluster(("client", "server"))
    dynamic_app.deploy(dynamic_cluster, default_node="client")
    controller = DistributionController(dynamic_app, dynamic_cluster)

    shared = dynamic_app.new("C", "shared")
    holder_a = dynamic_app.new("A", shared)
    holder_b = dynamic_app.new("B", shared)
    midpoint = len(VALUES) // 2
    for value in VALUES[:midpoint]:
        holder_a.record(value)
        holder_b.record(value)
    print(f"... moving the shared C to the server after {midpoint} rounds ...")
    controller.make_remote(shared, "server")
    for value in VALUES[midpoint:]:
        holder_a.record(value)
        holder_b.record(value)

    print(
        f"{'transformed, C moved mid-run':28s} total={shared.get_total():<6} "
        f"average={shared.average():<6.2f} messages={dynamic_cluster.metrics.total_messages:<4}"
        f" simulated_ms={dynamic_cluster.clock.now * 1000:.2f}"
    )
    print()
    print("All four configurations observe the same totals:",
          oracle.total == shared.get_total())
    print()
    held_on_another_node(oracle)
    adopted_by_a_session(oracle)


def held_on_another_node(oracle) -> None:
    """A holder on another node keeps its reference while the shared C moves."""
    policy = all_local_policy()
    policy.set_class("C", instances=local(dynamic=True))
    policy.set_class("A", instances=remote("server"))
    app = ApplicationTransformer(policy).transform([A, B, C])
    cluster = Cluster(("client", "server", "third"))
    app.deploy(cluster, default_node="client")
    controller = DistributionController(app, cluster)

    shared = app.new("C", "shared")
    holder_a = app.new("A", shared)  # on the server, holding a reference to the client's C
    holder_b = app.new("B", shared)
    midpoint = len(VALUES) // 2
    for index, value in enumerate(VALUES):
        if index == midpoint:
            print(f"... moving the shared C to a third node after {midpoint} rounds ...")
            controller.make_remote(shared, "third")
        holder_a.record(value)
        holder_b.record(value)
    print(
        f"{'transformed, A on server':28s} total={shared.get_total():<6} "
        f"average={shared.average():<6.2f} messages={cluster.metrics.total_messages:<4}"
        f" simulated_ms={cluster.clock.now * 1000:.2f}"
    )
    print("A's reference survived the move:", oracle.total == shared.get_total())
    print()


def adopted_by_a_session(oracle) -> None:
    """The last act: the whole stack under the same program, through adoption."""
    policy = all_local_policy()
    policy.set_class("C", instances=local(dynamic=True))
    app = ApplicationTransformer(policy).transform([A, B, C])
    cluster = Cluster(("client", "s1", "s2", "s3"))
    app.deploy(cluster, default_node="client")

    shared = app.new("C", "shared")
    holder_a = app.new("A", shared)
    holder_b = app.new("B", shared)
    session = Session(cluster, node="client")
    service = session.service(
        "shared",
        ServicePolicy()
        .with_replication(3, quorum=2)
        .with_caching(lease_ms=50)
        .with_tracing(1.0),
        impl=shared,  # the handle A and B already hold: the session adopts it
        node="s1",
    )
    midpoint = len(VALUES) // 2
    for index, value in enumerate(VALUES):
        if index == midpoint:
            print(f"... crashing the primary (s1) after {midpoint} rounds ...")
            cluster.network.failures.crash_node("s1")
        holder_a.record(value)
        holder_b.record(value)

    total = shared.get_total()  # a miss, which fills the cache; the next read is a hit
    outcome = (
        shared.get_total(), shared.average(), shared.describe(),
        holder_a.get_recorded(), holder_b.get_recorded(),
    )
    group = service.group
    print(
        f"{'transformed, C adopted':28s} total={total:<6} "
        f"average={outcome[1]:<6.2f} primary={group.primary_node} epoch={group.epoch}"
        f" cache hits={service.cache.hits} misses={service.cache.misses}"
    )
    print("Replicated, cached, traced and failed over, it still equals the original:",
          outcome == oracle.as_tuple())
    collector = session.tracer().collector
    (slowest,) = slowest_traces(collector, 1)
    print(f"{len(collector.roots())} calls traced; the slowest:")
    print(render_phase_table(collector, slowest.trace_id))
    session.dismantle()


if __name__ == "__main__":
    main()
