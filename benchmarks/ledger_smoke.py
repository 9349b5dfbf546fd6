"""Every wall-clock ledger workload, briefly, with its simulated numbers pinned.

Runs ``benchmarks/wallclock/run.py --workload W --seed N --seconds 0.5`` for
every workload of ``BENCHMARK.json`` (each run checks its results against
their oracles and exits 1 otherwise), then compares each workload's
``sim_us_per_call``, ``wire_bytes_per_call`` and ``msgs_per_call`` for exact
equality against ``tests/ledger_sim_seed{N}.json`` (seed 7 by default).  The
simulation is deterministic, so any difference is a behaviour change, printed
as ``workload.metric: old → new (new/old)``: a change meant to move a
simulated number re-baselines its row with ``--write`` in the same commit, once
per pinned seed, and ``--write`` prints every number it moved in that form.

    python benchmarks/ledger_smoke.py [--seed N] [--write]

It only invokes ``benchmarks/wallclock/``; nothing there is imported or edited.
Exit status: 0 when every run was correct and every pinned number agrees.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIM_METRICS = ("sim_us_per_call", "wire_bytes_per_call", "msgs_per_call")


def pinned_path(seed: int) -> Path:
    """The file holding the simulated numbers pinned at ``seed``."""
    return ROOT / "tests" / f"ledger_sim_seed{seed}.json"


def run_workload(workload: str, seed: int) -> dict:
    """One brief ``run.py`` of ``workload`` at ``seed``; its simulated numbers."""
    command = [
        sys.executable, str(ROOT / "benchmarks" / "wallclock" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in SIM_METRICS}


def moves(pinned: dict, measured: dict) -> list:
    """One line per pinned number that this run measured otherwise, as
    ``workload.metric: old → new (new/old)``, then each pinned workload not run."""
    lines = []
    for workload, values in measured.items():
        for name, value in values.items():
            old = pinned.get(workload, {}).get(name)
            if old != value:
                ratio = f" ({value / old:.4f})" if isinstance(old, (int, float)) and old else ""
                lines.append(f"{workload}.{name}: {old!r} → {value!r}{ratio}")
    lines += [f"{workload}: pinned, not measured" for workload in pinned.keys() - measured.keys()]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="run at this seed and compare with tests/ledger_sim_seed{N}.json")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the seed's pinned file from this run instead of comparing, "
                        "printing each number it moved")
    options = parser.parse_args()
    pinned_file = pinned_path(options.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    measured = {
        entry["name"]: run_workload(entry["name"], options.seed) for entry in spec["workloads"]
    }
    pinned = (json.loads(pinned_file.read_text(encoding="utf-8"))
              if pinned_file.exists() else {})
    moved = moves(pinned, measured)
    if options.write:
        pinned_file.write_text(json.dumps(measured, indent=2) + "\n", encoding="utf-8")
        print(f"rewrote {pinned_file.relative_to(ROOT)}: {len(moved)} numbers moved")
        for line in moved:
            print(f"  {line}")
        return 0
    for line in moved:
        print(f"MOVED {line}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
