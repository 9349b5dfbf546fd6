"""A/B a change against its parent with the wall-clock ledger, pair by pair.

Implements the recipe at the end of ``benchmarks/wallclock/README.md``: run
``run.py --workload W`` alternately in two checkouts (the side that goes first
swaps every pair, so drift on a shared box lands on both), then print per
side the median, quartiles and n of every end-to-end metric, how many pairs
the new tree won on ``--metric``, and whether the simulated-clock metrics of
the two trees are equal — for a change that only claims speed they must be.

    python benchmarks/ab_pairs.py --base ../parent --workload batch_payload --pairs 10 --seed 7

It only invokes ``benchmarks/wallclock/``; nothing there is imported or edited.
Exit status: 0 when every run was correct and the sim metrics agree, else 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List

SIM_METRICS = ("sim_us_per_call", "wire_bytes_per_call", "msgs_per_call")


def run_once(tree: Path, workload: str, seed: int, seconds: float, out: str) -> dict:
    """One ``run.py --workload`` in ``tree``; its result line, parsed."""
    command = [
        sys.executable, str(tree / "benchmarks" / "wallclock" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0", "--out", out,
    ]
    if seconds:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree}: run.py printed no result\n{done.stderr}")
    result = json.loads(lines[-1])
    if done.returncode or not result["correct"] or result["failed"]:
        print(f"FAIL {tree}: exit {done.returncode}, failed {result['failed']}\n{done.stderr}",
              file=sys.stderr)
    return result


def summary(values: List[float]) -> str:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return f"median {median(values):12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  n {len(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--new", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="per run; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--metric", default="calls_per_s", help="the metric wins are counted on")
    args = parser.parse_args()

    trees = {"base": args.base.resolve(), "new": args.new.resolve()}
    runs: Dict[str, List[dict]] = {"base": [], "new": []}
    correct = True
    with tempfile.TemporaryDirectory() as out:
        for pair in range(args.pairs):
            for side in (("base", "new"), ("new", "base"))[pair % 2]:
                result = run_once(trees[side], args.workload, args.seed, args.seconds, out)
                correct &= result["correct"] and not result["failed"]
                runs[side].append({k: m["value"] for k, m in result["metrics"].items()})
            base, new = runs["base"][-1][args.metric], runs["new"][-1][args.metric]
            print(f"pair {pair + 1:2d}  base {base:12.4f}  new {new:12.4f}  "
                  f"ratio {new / base:6.3f}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} alternating pairs")
    for metric in runs["base"][0]:
        if metric in SIM_METRICS:
            continue
        sides = {side: [run[metric] for run in runs[side]] for side in runs}
        for side, values in sides.items():
            print(f"  {metric:<14}{side:<5}{summary(values)}")
        print(f"  {metric:<14}ratio of medians {median(sides['new']) / median(sides['base']):.3f}")

    spec = json.loads((trees["new"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    sign = -1 if better[args.metric] == "lower" else 1
    deltas = [sign * (new[args.metric] - base[args.metric])
              for base, new in zip(runs["base"], runs["new"])]
    wins, losses = sum(d > 0 for d in deltas), sum(d < 0 for d in deltas)
    print(f"  new wins {wins} of {args.pairs} pairs on {args.metric} "
          f"({losses} lost, {args.pairs - wins - losses} tied)")

    sim = {side: {tuple(run[m] for m in SIM_METRICS) for run in runs[side]} for side in runs}
    sim_equal = sim["base"] == sim["new"] and len(sim["base"]) == 1
    print(f"  sim metrics {SIM_METRICS}: {'equal' if sim_equal else 'DIFFER'}")
    if not sim_equal:
        for metric in SIM_METRICS:
            base, new = ([run[metric] for run in runs[side]] for side in ("base", "new"))
            ratio = f"{median(new) / median(base):.3f}" if median(base) else "n/a"
            varies = "  (varies across runs)" if len(set(base)) > 1 or len(set(new)) > 1 else ""
            print(f"    {metric:<20}{median(base):.4f} → {median(new):.4f}  "
                  f"ratio {ratio}{varies}")
    return 0 if correct and sim_equal else 1


if __name__ == "__main__":
    sys.exit(main())
