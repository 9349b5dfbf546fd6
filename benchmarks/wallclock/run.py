"""Wall-clock + simulated-clock ledger: the repo's benchmark command.

Driver contract (one workload, one JSON object as the last line)::

    python3 benchmarks/wallclock/run.py --workload direct_small --seed 7 \\
        --seconds 10 --trace 0      # end-to-end metrics
    python3 benchmarks/wallclock/run.py --workload direct_small --seed 7 \\
        --seconds 10 --trace 1      # per-layer metrics

Without ``--workload`` it runs the whole ledger — every workload, both passes,
the micro pass once — prints every metric by name with its unit and writes
``ledger.json`` (the input of ``compare.py``) next to the span dumps.

Every repetition runs in a fresh interpreter (see README.md: process-global id
counters leak into wire bytes, so only a fresh process repeats the simulated
numbers exactly).  This parent process never imports ``repro``; it spawns the
children one at a time, takes medians over rounds and checks that the
simulated-clock numbers of all rounds agree to the bit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

MIN_ROUNDS = 5
WARMUP_SCALE = 0.1
OVERHEAD_ROUNDS = 3
CHILD_TIMEOUT_S = 170
#: One pass of one micro loop lasts this share of ``--seconds``; with 28 loops
#: of 5 passes the micro pass takes about a third of it.
MICRO_PASS_SHARE = 1 / 400
#: ... and this long in ledger mode, where the micro pass runs once.
LEDGER_MICRO_PASS_S = 0.1

SIM_METRICS = ("sim_us_per_call", "wire_bytes_per_call", "msgs_per_call")
PHASES = ("client_queue", "wire", "server_queue", "service", "replication")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# children: one fresh interpreter per repetition
# ---------------------------------------------------------------------------


def child_repetition(
    name: str, seed: int, traced: bool, out_dir: Path, scale: float = 1.0
) -> dict:
    """Cold start, warm-up on a throw-away cluster, one measured repetition.

    ``scale`` shrinks the repetition for the smoke test only.
    """
    started = perf_counter()
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    imported = perf_counter()
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(name, seed, scale, traced)  # the harness's work: untimed
    warmup_inputs = workloads.make_inputs(name, seed, scale * WARMUP_SCALE, traced)
    recorder = spans.Recorder()
    with spans.install(recorder) if traced else nullcontext():
        deploying = perf_counter()
        repetition = workload.deploy(inputs)
        setup_s = (imported - started) + (perf_counter() - deploying)
        workload.deploy(warmup_inputs).run()
        gc.collect()
        recorder.reset()
        with spans.bracket(recorder, repetition.entrypoints if traced else ()):
            run = recorder.wrap(repetition.run, "driver.repetition", spans.ROOT_LAYER)
            began = perf_counter()
            outcome = run()
            wall_s = perf_counter() - began

    completed = max(1, outcome.completed)  # an all-wrong run still reports (and fails)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "failed": outcome.failed,
        "sim": {
            "sim_us_per_call": outcome.sim_seconds * 1e6 / completed,
            "wire_bytes_per_call": outcome.wire_bytes / completed,
            "msgs_per_call": outcome.messages / completed,
        },
        "wire_bytes": outcome.wire_bytes,
        "messages": outcome.messages,
        "counters": outcome.counters,
        "open_loop": outcome.open_loop,
        "phases_us": outcome.phases_us,
    }
    if traced:
        report["self_ns"] = recorder.self_time_ns()
        report["root_ns"] = recorder.root_duration_ns()
        report["coverage"] = recorder.coverage()
        report["encode_calls"] = recorder.calls("transports.encode")
        report["decode_calls"] = recorder.calls("transports.decode")
        report["spans_recorded"] = len(recorder.spans)
        out_dir.mkdir(parents=True, exist_ok=True)
        recorder.write(
            out_dir / f"trace_{name}.json",
            workload=name,
            seed=seed,
            operations=outcome.attempted,
        )
    return report


def child_micro(seed: int, min_seconds: float) -> dict:
    sys.path.insert(0, str(SRC))
    import micro

    return micro.run_micro(seed, min_seconds)


def child_ladder(seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    import workloads

    return {"max_rate_rps": workloads.open_loop_max_rate(seed)}


def spawn(
    mode: str, *, workload: str = "", seed: int, out_dir: Path, seconds: float = 0.0
) -> dict:
    """Run one child to completion and return the JSON object it printed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", mode, "--workload", workload,
        "--seed", str(seed), "--out", str(out_dir), "--seconds", repr(seconds),
    ]
    # One bytecode cache for every child, whatever the caller's environment says:
    # the first child compiles ``src/`` into it (the build), the rest start warm.
    environment = dict(os.environ, PYTHONHASHSEED="0",
                       PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
    environment.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        command, cwd=ROOT, env=environment, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{mode} child of {workload or 'the micro pass'} failed "
                         f"(exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# timed pass: end-to-end metrics
# ---------------------------------------------------------------------------


def _summary(values: List[float], unit: str) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": median(values), "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def measure_end_to_end(name: str, seed: int, seconds: float, out_dir: Path, spec: dict) -> dict:
    """Fresh-process rounds for ``seconds`` (at least MIN_ROUNDS); medians over rounds."""
    rounds: List[dict] = []
    began = perf_counter()
    while True:
        round_began = perf_counter()
        rounds.append(spawn("timed", workload=name, seed=seed, out_dir=out_dir))
        now = perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - began + (now - round_began) > seconds:
            return summarize_end_to_end(name, rounds, spec)


def summarize_end_to_end(name: str, rounds: List[dict], spec: dict) -> dict:
    """Medians of the host metrics; the simulated ones must agree to the bit."""
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    problems = []
    first = rounds[0]
    for key in ("attempted", "failed", *SIM_METRICS):
        seen = [r["sim"].get(key, r.get(key)) for r in rounds]
        if any(value != seen[0] for value in seen):
            problems.append(f"{name}: {key} differs between rounds of one seed: {seen}")
    failed = sum(r["failed"] for r in rounds)
    if failed:
        problems.append(f"{name}: {failed} operation(s) failed or returned a wrong result")

    metrics = {
        "calls_per_s": _summary([r["completed"] / r["wall_s"] for r in rounds],
                                units["calls_per_s"]),
        "setup_s": _summary([r["setup_s"] for r in rounds], units["setup_s"]),
        "peak_rss_mb": _summary([r["rss_mb"] for r in rounds], units["peak_rss_mb"]),
    }
    for key in SIM_METRICS:
        metrics[key] = _summary([first["sim"][key]], units[key])
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# traced pass + micro pass: per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_per_layer(
    name: str, seed: int, seconds: float, out_dir: Path, spec: dict,
    micro: Optional[Dict[str, float]] = None,
) -> dict:
    """One traced repetition, untraced ones beside it, and the micro pass."""
    plain_rounds = [
        spawn("timed", workload=name, seed=seed, out_dir=out_dir) for _ in range(OVERHEAD_ROUNDS)
    ]
    traced = spawn("traced", workload=name, seed=seed, out_dir=out_dir)
    if micro is None:
        micro = spawn("micro", seed=seed, out_dir=out_dir, seconds=seconds * MICRO_PASS_SHARE)
    max_rate = 0.0
    if plain_rounds[0]["open_loop"]:
        max_rate = spawn("ladder", seed=seed, out_dir=out_dir)["max_rate_rps"]
    return summarize_per_layer(name, plain_rounds, traced, micro, max_rate, spec)


def summarize_per_layer(
    name: str, plain_rounds: List[dict], traced: dict, micro: Dict[str, float],
    max_rate: float, spec: dict,
) -> dict:
    """Every per-layer metric ``BENCHMARK.json`` declares, from the children's reports."""
    plain = plain_rounds[0]
    counters = plain["counters"]
    operations = plain["attempted"]
    traced_operations = traced["attempted"]

    values: Dict[str, float] = dict(micro)
    for layer, nanos in traced["self_ns"].items():
        values[f"{layer}.self_us"] = nanos / 1000.0 / traced_operations
    values.update({
        "transports.encode.calls_per_op": traced["encode_calls"] / traced_operations,
        "transports.decode.calls_per_op": traced["decode_calls"] / traced_operations,
        "transports.bytes_per_msg": _ratio(plain["wire_bytes"], plain["messages"]),
        "network.events_per_op": counters["events_fired"] / operations,
        "network.link_queue_sim_us": counters["link_queue_sim_s"] * 1e6 / operations,
        "network.pool.wait_sim_us": counters.get("pool_wait_sim_s", 0.0) * 1e6,
        "network.pool.rejected_per_op": counters.get("pool_rejected", 0) / operations,
        "runtime.batch.fill": counters.get("batch_fill", 0.0),
        "runtime.pipeline.depth_observed": counters.get("depth_observed", 0.0),
        "runtime.retries_per_op": counters.get("retries", 0) / operations,
        "runtime.cache.hit_ratio": _ratio(
            counters.get("cache_hits", 0),
            counters.get("cache_hits", 0) + counters.get("cache_misses", 0)),
        "runtime.cache.inv_per_write": _ratio(
            counters.get("cache_invalidations", 0), counters.get("writes", 0)),
        "runtime.cache.sub_per_miss": _ratio(
            counters.get("cache_subscriptions", 0), counters.get("cache_misses", 0)),
        "runtime.replication.forwards_per_write": _ratio(
            counters.get("replication_forwards", 0), counters.get("writes", 0)),
        "observability.spans_per_op": traced["counters"].get("spans", 0) / traced_operations,
        "trace.coverage": traced["coverage"],
        "trace.overhead_ratio": traced["wall_s"] / median(r["wall_s"] for r in plain_rounds),
        "driver.failed_share": plain["failed"] / operations,
    })
    for phase in PHASES:
        values[f"sim.phase.{phase}_us"] = traced["phases_us"].get(phase, 0.0)
    for key in ("p50_ms", "p99_ms", "goodput_rps"):
        values[f"sim.open_loop.{key}"] = plain["open_loop"].get(key, 0.0)
    values["sim.open_loop.max_rate_rps"] = max_rate

    problems = []
    self_sum = sum(traced["self_ns"].values())
    if abs(self_sum - traced["root_ns"]) > 0.01 * traced["root_ns"]:
        problems.append(f"{name}: layer self times sum to {self_sum} ns, "
                        f"the traced repetition took {traced['root_ns']} ns")
    failed = sum(r["failed"] for r in (*plain_rounds, traced))
    if failed:
        problems.append(f"{name}: {failed} operation(s) failed or returned a wrong result")

    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    if set(units) != set(values):
        raise SystemExit(f"per-layer names differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in (*plain_rounds, traced)),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def result_line(result: dict) -> str:
    """The contract's one-line JSON: exactly correct/attempted/failed/metrics."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": metric["value"], "unit": metric["unit"]}
            for key, metric in result["metrics"].items()
        },
    })


def run_ledger(seed: int, seconds: float, out_dir: Path, spec: dict) -> int:
    """Every workload, both passes; print every metric; write ledger.json."""
    micro = spawn("micro", seed=seed, out_dir=out_dir, seconds=LEDGER_MICRO_PASS_S)
    ledger = {
        "seed": seed,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "calib_ns": micro["host.calib_ns"],
        },
        "workloads": {},
    }
    problems: List[str] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        end_to_end = measure_end_to_end(name, seed, seconds, out_dir, spec)
        per_layer = measure_per_layer(name, seed, seconds, out_dir, spec, micro)
        problems += end_to_end["problems"] + per_layer["problems"]
        ledger["workloads"][name] = {
            "attempted": end_to_end["attempted"],
            "failed": end_to_end["failed"],
            "end_to_end": end_to_end["metrics"],
            "per_layer": per_layer["metrics"],
        }
        print(f"\n== {name} ==")
        for key, metric in end_to_end["metrics"].items():
            print(f"  {key:<44}{metric['value']:>16.4f} {metric['unit']:<6}"
                  f" q1 {metric['q1']:.4f}  q3 {metric['q3']:.4f}  n {metric['n']}")
        for key, metric in per_layer["metrics"].items():
            flag = "  (> 1.5)" if key == "trace.overhead_ratio" and metric["value"] > 1.5 else ""
            print(f"  {key:<44}{metric['value']:>16.4f} {metric['unit']}{flag}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out_dir / 'ledger.json'}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--child", choices=("timed", "traced", "micro", "ladder"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"nothing to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    if args.child in ("timed", "traced"):
        print(json.dumps(child_repetition(args.workload, args.seed, args.child == "traced",
                                          args.out)))
        return 0
    if args.child == "micro":
        print(json.dumps(child_micro(args.seed, args.seconds)))
        return 0
    if args.child == "ladder":
        print(json.dumps(child_ladder(args.seed)))
        return 0

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if not args.workload:
        return run_ledger(args.seed, seconds, args.out, spec)
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    measure = measure_per_layer if args.trace else measure_end_to_end
    result = measure(args.workload, args.seed, seconds, args.out, spec)
    for problem in result["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(result_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
