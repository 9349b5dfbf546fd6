"""Path setup, shared fixtures and the ``extra_info`` pin of the benchmark harness.

Every benchmark module regenerates one row of EXPERIMENTS.md: it runs the
workload behind a paper claim, records the *simulated* quantities (messages,
bytes, simulated seconds) in ``benchmark.extra_info`` so they appear in the
pytest-benchmark report, and asserts the claim's *shape* (who wins, what the
ordering is) — absolute numbers are not expected to match a 2003 testbed.

The simulation is deterministic, so those recorded quantities are pinned too:
after each bench, its ``extra_info`` must equal its entry in
``tests/paper_claims_extra_info.json`` (a missing entry fails as well).  The
few keys that are wall-clock ratios (``WALL_CLOCK_KEYS``) are left out.  A
change meant to move a recorded number re-baselines the file by running the
whole directory (``make paper-claims``'s command) with
``--write-extra-info``::

    PYTHONPATH=src python -m pytest -q -p no:cacheprovider -o python_files='bench_*.py' \
        -o python_functions='bench_*' benchmarks --benchmark-disable --write-extra-info
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
for candidate in (_ROOT / "src", _ROOT / "tests", _ROOT / "benchmarks"):
    if str(candidate) not in sys.path:
        sys.path.insert(0, str(candidate))

PINNED_EXTRA_INFO = _ROOT / "tests" / "paper_claims_extra_info.json"

#: ``extra_info`` keys measured on the host's clock, per bench: not pinned.
WALL_CLOCK_KEYS = {
    "bench_local_overhead.py::bench_figure1_local_overhead_factor": {
        "transformed_over_original",
    },
    "bench_wrapper_vs_transform.py::bench_overhead_ordering": {
        "transformed_over_original",
        "wrapper_over_transformed",
    },
}

_recorded: dict = {}


def pytest_addoption(parser):
    parser.addoption(
        "--write-extra-info", action="store_true",
        help=f"rewrite tests/{PINNED_EXTRA_INFO.name} from this run instead of comparing",
    )


def _bench_id(item) -> str:
    """``bench_file.py::bench_name[param]``: the node id below ``benchmarks/``."""
    return item.nodeid.split("/")[-1]


@pytest.fixture
def sample_classes():
    import sample_app

    return [sample_app.X, sample_app.Y, sample_app.Z]


@pytest.fixture(autouse=True)
def _pinned_extra_info(request):
    """Compare the bench's ``extra_info`` with its pinned entry once it has run."""
    yield
    bench = request.node.funcargs.get("benchmark")
    if bench is None:
        return
    bench_id = _bench_id(request.node)
    skipped = WALL_CLOCK_KEYS.get(bench_id, set())
    # A JSON round trip, so tuples and lists compare as the file stores them.
    info = json.loads(json.dumps(
        {key: value for key, value in bench.extra_info.items() if key not in skipped}
    ))
    if request.config.getoption("--write-extra-info"):
        _recorded[bench_id] = info
        return
    pinned = json.loads(PINNED_EXTRA_INFO.read_text(encoding="utf-8"))
    assert bench_id in pinned, f"{bench_id} has no pinned extra_info"
    moved = {
        key: (pinned[bench_id].get(key), info.get(key))
        for key in pinned[bench_id].keys() | info.keys()
        if pinned[bench_id].get(key) != info.get(key)
    }
    assert not moved, f"{bench_id}: extra_info moved from its pin (pinned, measured): {moved}"


def pytest_sessionfinish(session):
    if session.config.getoption("--write-extra-info", default=False) and _recorded:
        PINNED_EXTRA_INFO.write_text(
            json.dumps(dict(sorted(_recorded.items())), indent=2) + "\n", encoding="utf-8"
        )
