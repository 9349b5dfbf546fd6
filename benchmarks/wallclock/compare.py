"""Compare two ledgers (``ledger.json`` of two ``run.py`` runs with one seed).

    python benchmarks/wallclock/compare.py A/ledger.json B/ledger.json

One row per workload x end-to-end metric: both medians with quartiles and n,
the ratio B/A (A is the base) and a verdict from the ``BENCHMARK.json`` bound:

* ``better`` / ``worse`` — the medians differ by more than the bound;
* ``same`` — they do not;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound and the two interquartile ranges overlap, so the bound cannot be read.

Simulated-clock values must not differ at all (1e-9 relative): they are the
"same behaviour" oracle.  Exit code 1 on any ``worse`` or any differing
simulated value, 2 when the ledgers cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]
EXACT_TOLERANCE = 1e-9
#: End-to-end metrics measured on the simulated clock, by name prefix.
SIM_PREFIXES = ("sim_", "wire_", "msgs_")
#: Per-layer metrics that are simulated-clock values or exact counts.
EXACT_PER_LAYER = ("sim.", "driver.failed_share")


def differs(a: float, b: float) -> bool:
    return abs(a - b) > EXACT_TOLERANCE * max(abs(a), abs(b))


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``b`` against the base ``a`` for one host-clock metric."""
    spread = max((a["q3"] - a["q1"]) / a["value"], (b["q3"] - b["q1"]) / b["value"])
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    worse_by = -change if better == "higher" else change
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare(base: dict, other: dict, spec: dict) -> List[dict]:
    """Every compared value as a row with its verdict."""
    rows = []
    for name, a_workload in base["workloads"].items():
        b_workload = other["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = a_workload["end_to_end"][key], b_workload["end_to_end"][key]
            if key.startswith(SIM_PREFIXES):
                outcome = "differs" if differs(a["value"], b["value"]) else "same"
            else:
                outcome = verdict(a, b, metric["better"], metric["bound"])
            rows.append({"workload": name, "metric": key, "a": a, "b": b, "verdict": outcome})
        for key, a in a_workload["per_layer"].items():
            b = b_workload["per_layer"][key]
            if key.startswith(EXACT_PER_LAYER) and differs(a["value"], b["value"]):
                rows.append({"workload": name, "metric": key, "a": a, "b": b,
                             "verdict": "differs"})
    return rows


def _cell(summary: dict) -> str:
    if "q1" not in summary:
        return f"{summary['value']:.6g}"
    return (f"{summary['value']:.6g} [{summary['q1']:.6g}, {summary['q3']:.6g}]"
            f" n={summary['n']}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, other = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    if base["seed"] != other["seed"]:
        print(f"seeds differ ({base['seed']} and {other['seed']}): simulated values "
              "are only exact for one seed", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(base, other, spec)
    print(f"{'workload':<18}{'metric':<30}{'A':<42}{'B':<42}{'B/A':>8}  verdict")
    for row in rows:
        ratio = row["b"]["value"] / row["a"]["value"] if row["a"]["value"] else float("nan")
        print(f"{row['workload']:<18}{row['metric']:<30}{_cell(row['a']):<42}"
              f"{_cell(row['b']):<42}{ratio:>8.4f}  {row['verdict']}")
    bad = [row for row in rows if row["verdict"] in ("worse", "differs")]
    print(f"\n{len(rows)} rows, {len(bad)} worse or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
