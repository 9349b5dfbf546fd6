"""Command-line interface for the RAFDA reproduction.

The CLI exposes the offline parts of the system — the parts a developer would
run against their own code base before deploying it:

``repro analyze app.py``
    Run the §2.4 transformability analysis over the classes defined in a
    Python file and report which can be transformed and why the rest cannot.

``repro emit app.py --cls X``
    Print the artifacts the transformation generates for one class (the
    Figures 3–5 listings for that class) — the very text the transformation
    executes to create the live classes.

``repro report app.py [--policy policy.json]``
    Transform the file's classes under a policy and print the application
    report.

``repro lint paths... [--select DS101,DS102] [--format text|json]
[--fail-on warning|error] [--explain DS1xx]``
    Run the distribution-safety rules (DS101–DS105, DS107) over files or directory
    trees and report findings with suggested fixes.  Exit code 0 means
    clean, 1 means findings at or above ``--fail-on`` (default: warning —
    any finding fails), 2 means usage error.  ``--explain DS1xx`` prints a
    rule's full documentation instead of linting.

``repro corpus-study [--seed N] [--user-classes N --native-fraction F]``
    Reproduce the "about 40 % of the JDK" study on the synthetic corpus.

``repro policy-template --classes A,B --nodes n1,n2``
    Print a policy JSON skeleton placing the named classes round-robin on the
    named nodes, as a starting point for hand editing.

The simulated-clock benchmarks are not CLI commands: run
``python benchmarks/bench_<name>.py`` (or ``make bench-smoke``).

Run ``python -m repro --help`` for the full syntax.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro._errors import ReproError
from repro.core.analyzer import TransformabilityAnalyzer
from repro.core.classmodel import ClassUniverse
from repro.core.introspect import class_model_from_python
from repro.core.transformer import ApplicationTransformer
from repro.policy.loader import policy_from_file, policy_to_dict
from repro.policy.policy import all_local_policy, place_classes_on
from repro.tools.report import application_report


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def load_classes_from_file(path: str | Path, names: Optional[Iterable[str]] = None) -> list[type]:
    """Import a Python file and return the classes defined in it.

    Only classes whose ``__module__`` is the loaded module are returned (so
    imported library classes are not accidentally transformed).  When
    ``names`` is given, only those classes are returned, in that order.
    """

    path = Path(path)
    if not path.exists():
        raise ReproError(f"no such file: {path}")
    module_name = f"_repro_cli_{path.stem}"
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:
        raise ReproError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)

    defined = [
        value
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module_name
    ]
    if names is None:
        return defined
    by_name = {cls.__name__: cls for cls in defined}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise ReproError(f"classes not found in {path.name}: {', '.join(missing)}")
    return [by_name[name] for name in names]


def _split_csv(value: Optional[str]) -> list[str]:
    if not value:
        return []
    return [item.strip() for item in value.split(",") if item.strip()]


# ---------------------------------------------------------------------------
# sub-commands
# ---------------------------------------------------------------------------

def command_analyze(args: argparse.Namespace, out) -> int:
    classes = load_classes_from_file(args.module, _split_csv(args.classes) or None)
    if not classes:
        print("no classes defined in the given module", file=out)
        return 1
    models = [class_model_from_python(cls) for cls in classes]
    result = TransformabilityAnalyzer(ClassUniverse(models)).analyse()
    print(f"classes analysed        : {len(models)}", file=out)
    print(
        f"transformable           : {len([m for m in models if result.is_transformable(m.name)])}",
        file=out,
    )
    for model in models:
        if result.is_transformable(model.name):
            print(f"  [ok]   {model.name}", file=out)
        else:
            reasons = ", ".join(sorted(str(r) for r in result.reasons_for(model.name)))
            print(f"  [skip] {model.name}: {reasons}", file=out)
    return 0


def command_emit(args: argparse.Namespace, out) -> int:
    classes = load_classes_from_file(args.module)
    app = ApplicationTransformer(all_local_policy()).transform(classes)
    target = args.cls or classes[0].__name__
    if not app.is_transformed(target):
        print(f"class {target!r} was not transformed (see `repro analyze`)", file=out)
        return 1
    sources = app.emit_sources(target)
    for name in sorted(sources):
        print("#", "=" * 70, file=out)
        print("#", name, file=out)
        print("#", "=" * 70, file=out)
        print(sources[name], file=out)
    return 0


def command_report(args: argparse.Namespace, out) -> int:
    from repro.runtime.cluster import default_transport_registry

    classes = load_classes_from_file(args.module)
    policy = policy_from_file(args.policy) if args.policy else all_local_policy()
    app = ApplicationTransformer(policy).transform(classes)
    app.check_transports(default_transport_registry().names())
    print(application_report(app), file=out)
    return 0


def command_lint(args: argparse.Namespace, out) -> int:
    from repro.analysis import (
        default_engine,
        format_json,
        format_text,
        meets_threshold,
        rule_by_id,
    )

    if args.explain:
        try:
            rule_class = rule_by_id(args.explain)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=out)
            return 2
        print(f"{rule_class.id} ({rule_class.severity})", file=out)
        print(file=out)
        print(rule_class.explain(), file=out)
        return 0
    if not args.paths:
        print("error: no paths to lint (or use --explain DS1xx)", file=out)
        return 2
    engine = default_engine()
    if args.select:
        try:
            engine = engine.select(_split_csv(args.select))
        except KeyError as error:
            print(f"error: {error.args[0]}", file=out)
            return 2
    try:
        findings, files_checked = engine.run_paths(args.paths)
    except FileNotFoundError as error:
        print(f"error: {error}", file=out)
        return 2
    formatter = format_json if args.format == "json" else format_text
    print(formatter(findings, files_checked=files_checked), file=out)
    failing = any(meets_threshold(f, args.fail_on) for f in findings)
    return 1 if failing else 0


def command_corpus_study(args: argparse.Namespace, out) -> int:
    from repro.corpus import generate_corpus, generate_user_code, run_study

    corpus = generate_corpus(seed=args.seed)
    extra = ()
    if args.user_classes:
        extra = generate_user_code(
            corpus, class_count=args.user_classes, native_fraction=args.native_fraction
        )
    study = run_study(corpus, extra_descriptors=extra)
    print(f"corpus classes            : {study.corpus_size}", file=out)
    print(
        f"non-transformable         : {study.non_transformable} "
        f"({study.percent_non_transformable:.1f} %)",
        file=out,
    )
    print("per package:", file=out)
    for breakdown in sorted(study.packages, key=lambda b: -b.fraction):
        print(
            f"  {breakdown.package:18s} {100 * breakdown.fraction:5.1f} %"
            f"  ({breakdown.non_transformable}/{breakdown.total})",
            file=out,
        )
    return 0


def command_trace(args: argparse.Namespace, out) -> int:
    from repro.observability import (
        render_phase_table,
        render_trace_tree,
        slowest_traces,
        to_chrome_trace,
    )
    from repro.runtime.cluster import Cluster, default_transport_registry

    known = default_transport_registry().names()
    if args.transport not in known:
        print(f"unknown transport: {args.transport}", file=out)
        return 1
    if not 0.0 <= args.sample_rate <= 1.0:
        print("--sample-rate must be in [0, 1]", file=out)
        return 1
    if args.top < 1:
        print("--top must be at least 1", file=out)
        return 1

    if args.workload == "open_loop":
        from repro.workloads.open_loop import run_open_loop_scenario

        workers, service_time = 2, 0.002
        capacity = workers / service_time
        result = run_open_loop_scenario(
            Cluster(("client", "server")),
            transport=args.transport,
            offered_load=args.load_factor * capacity,
            duration=args.duration,
            workers=workers,
            service_time=service_time,
            tracing=args.sample_rate,
        )
        print(
            f"open_loop on {args.transport}: offered "
            f"{result['measured_offered']:.0f}/s against capacity "
            f"{capacity:.0f}/s, {result['completed']} completed, "
            f"{result['rejected']} rejected",
            file=out,
        )
    elif args.workload == "cached_catalog":
        from repro.workloads.cached_catalog import run_cached_catalog_scenario

        result = run_cached_catalog_scenario(
            Cluster(("client", "writer", "server-0", "server-1")),
            transport=args.transport,
            tracing=args.sample_rate,
        )
        print(
            f"cached_catalog on {args.transport}: {result['reads']} reads / "
            f"{result['writes']} writes, hit rate {result['hit_rate']:.1%}, "
            f"{result['stale_reads']} stale",
            file=out,
        )
    else:
        print(f"unknown workload: {args.workload}", file=out)
        return 1

    collector = result["trace_collector"]
    instants = len(collector.instants)
    print(
        f"collected {len(collector)} spans across "
        f"{len(collector.trace_ids())} traces"
        + (f", {instants} cache events" if instants else ""),
        file=out,
    )
    for path in slowest_traces(collector, args.top):
        print("", file=out)
        print(render_phase_table(collector, path.trace_id), file=out)
        if args.tree:
            print(render_trace_tree(collector, path.trace_id), file=out)
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(collector), handle)
        print(f"\nchrome trace written to {args.export}", file=out)
    return 0


def command_policy_template(args: argparse.Namespace, out) -> int:
    classes = _split_csv(args.classes)
    nodes = _split_csv(args.nodes)
    if not classes or not nodes:
        print("both --classes and --nodes are required", file=out)
        return 1
    placements = {
        class_name: nodes[index % len(nodes)] for index, class_name in enumerate(classes)
    }
    policy = place_classes_on(placements, transport=args.transport, dynamic=args.dynamic)
    # Unsorted: a pattern's place among the keys is its place in the lookup.
    print(json.dumps(policy_to_dict(policy), indent=2), file=out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAFDA reproduction: reflective flexibility in application distribution",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="transformability analysis of a Python file")
    analyze.add_argument("module", help="path to a Python file defining application classes")
    analyze.add_argument("--classes", help="comma-separated subset of classes to analyse")
    analyze.set_defaults(handler=command_analyze)

    emit = subparsers.add_parser("emit", help="print the generated artifacts for one class")
    emit.add_argument("module", help="path to a Python file defining application classes")
    emit.add_argument("--cls", help="class to emit (defaults to the first class in the file)")
    emit.set_defaults(handler=command_emit)

    report = subparsers.add_parser("report", help="transform a file and print the report")
    report.add_argument("module", help="path to a Python file defining application classes")
    report.add_argument("--policy", help="path to a policy JSON file")
    report.set_defaults(handler=command_report)

    lint = subparsers.add_parser(
        "lint",
        help="distribution-safety static analysis (rules DS101-DS105, DS107)",
    )
    lint.add_argument("paths", nargs="*", help="files or directory trees to lint")
    lint.add_argument("--select", help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--fail-on",
        choices=("warning", "error"),
        default="warning",
        help="lowest severity that fails the run (default: warning)",
    )
    lint.add_argument(
        "--explain", metavar="RULE", help="print one rule's documentation and exit"
    )
    lint.set_defaults(handler=command_lint)

    corpus = subparsers.add_parser("corpus-study", help="run the §2.4 JDK transformability study")
    corpus.add_argument("--seed", type=int, default=1414)
    corpus.add_argument("--user-classes", type=int, default=0)
    corpus.add_argument("--native-fraction", type=float, default=0.0)
    corpus.set_defaults(handler=command_corpus_study)

    template = subparsers.add_parser("policy-template", help="print a policy JSON skeleton")
    template.add_argument("--classes", required=True, help="comma-separated class names")
    template.add_argument("--nodes", required=True, help="comma-separated node names")
    template.add_argument("--transport", default="rmi")
    template.add_argument("--dynamic", action="store_true")
    template.set_defaults(handler=command_policy_template)

    trace = subparsers.add_parser(
        "trace",
        help="run a workload with end-to-end tracing and print the slowest "
        "traces with their critical-path phase breakdown",
    )
    trace.add_argument(
        "--workload",
        default="open_loop",
        choices=("open_loop", "cached_catalog"),
        help="traced workload to run (default: open_loop)",
    )
    trace.add_argument("--transport", default="rmi", help="transport to drive (one)")
    trace.add_argument("--top", type=int, default=3, help="slowest traces to print")
    trace.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="fraction of calls to trace (default: 1.0)",
    )
    trace.add_argument(
        "--load-factor",
        type=float,
        default=1.5,
        help="open_loop offered load as a multiple of capacity (default: 1.5)",
    )
    trace.add_argument(
        "--duration", type=float, default=0.5, help="open_loop duration in sim-seconds"
    )
    trace.add_argument(
        "--tree", action="store_true", help="also print each trace's span tree"
    )
    trace.add_argument("--export", help="write a Chrome trace-event JSON to this path")
    trace.set_defaults(handler=command_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
