"""Human-readable reports about a transformed application.

``application_report`` summarises what the transformation produced (classes,
artifacts, analysis outcome), what the policy currently says, and — when the
application is deployed — where each rebindable handle's object currently
lives.  ``traffic_report`` renders the simulated network metrics.  Both are
plain text so they can be printed from examples, logged by services or
asserted against in tests.
"""

from __future__ import annotations

from typing import Optional

from repro.core.metaobject import metaobject_of


def _policy_line(policy, class_name: str) -> str:
    entry = policy.for_class(class_name)
    instance = entry.instances
    if not entry.substitutable:
        return "not substitutable"
    if instance.is_remote:
        line = f"instances on {instance.node_id!r} via {instance.transport}"
    else:
        line = "instances local"
    if instance.dynamic:
        line += ", dynamic"
    statics = entry.statics
    if statics.is_remote:
        line += f"; statics on {statics.node_id!r}"
    else:
        line += "; statics local"
    return line


def application_report(application, *, include_sources: bool = False) -> str:
    """A textual summary of a transformed application."""
    lines: list[str] = []
    lines.append("RAFDA transformed application")
    lines.append("=" * 34)

    analysis = application.analysis
    lines.append(
        f"classes analysed      : {analysis.total_classes} "
        f"({len(analysis.transformable)} transformable, "
        f"{len(analysis.non_transformable)} not)"
    )
    lines.append(f"classes transformed   : {len(application.transformed_classes())}")
    lines.append(
        "deployment            : "
        + (
            f"bound to nodes {sorted(node for node in application.cluster.node_ids())}"
            if application.is_bound
            else "not bound (single address space)"
        )
    )
    lines.append("")

    lines.append("per-class policy and artifacts")
    lines.append("-" * 34)
    for class_name in sorted(application.transformed_classes()):
        artifacts = application.artifacts(class_name)
        lines.append(f"{class_name}")
        lines.append(f"  policy    : {_policy_line(application.policy, class_name)}")
        lines.append(
            "  interface : "
            f"{artifacts.instance_interface.name} "
            f"({len(artifacts.instance_interface.methods)} members), "
            f"{artifacts.class_interface.name} "
            f"({len(artifacts.class_interface.methods)} members)"
        )
        lines.append(
            f"  proxies   : {artifacts.proxy_cls.__name__}, {artifacts.class_proxy_cls.__name__}"
        )
        if include_sources:
            lines.append("  rewritten members: " + ", ".join(sorted(artifacts.rewritten_sources)))

    non_transformable = sorted(
        name for name in analysis.non_transformable if name not in application.transformed_classes()
    )
    if non_transformable:
        lines.append("")
        lines.append("not transformed (with reasons)")
        lines.append("-" * 34)
        for name in non_transformable:
            reasons = ", ".join(sorted(str(reason) for reason in analysis.reasons_for(name)))
            lines.append(f"  {name}: {reasons}")

    handles = application.handles()
    if handles:
        lines.append("")
        lines.append("rebindable handles")
        lines.append("-" * 34)
        for handle in handles:
            meta = metaobject_of(handle)
            if meta is None:
                continue
            class_name = getattr(type(handle), "_repro_class_name", "?")
            lines.append(f"  {class_name:20s} {meta.kind:6s} on {meta.node_id or 'here'}")
    return "\n".join(lines)


def traffic_report(cluster, *, title: Optional[str] = None) -> str:
    """A textual rendering of the cluster's simulated traffic."""
    metrics = cluster.metrics
    lines: list[str] = []
    lines.append(title or "simulated network traffic")
    lines.append("=" * 34)
    lines.append(f"simulated time : {cluster.clock.now * 1000:.3f} ms")
    lines.append(f"messages       : {metrics.total_messages}")
    lines.append(f"bytes          : {metrics.total_bytes}")
    lines.append(f"drops          : {metrics.total_drops}")
    links = metrics.links()
    if links:
        lines.append("per-link:")
        for (source, destination), link in sorted(links.items()):
            lines.append(
                f"  {source:>12s} -> {destination:<12s} "
                f"{link.messages:5d} msgs  {link.bytes_sent:8d} bytes  "
                f"mean latency {link.mean_latency * 1000:.3f} ms"
            )
    return "\n".join(lines)
