"""Smoke test of the wall-clock harness: every workload at 1/20 size, in process.

Checks the harness, not the program's speed: the metric names it emits are the
ones ``BENCHMARK.json`` declares, a wrong answer from a served object trips the
oracle, layer self times add up to the traced wall time, and the span recorder
leaves the program's classes as it found them.
"""

from __future__ import annotations

import copy
import json
import re

import compare
import micro
import pytest
import run
import spans
import workloads

from repro.runtime.address_space import AddressSpace

SCALE = 0.05
SEED = 11
SPEC = run.load_spec()
NAMES = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture(scope="module")
def micro_values():
    return micro.run_micro(SEED, 0.0005)


@pytest.mark.parametrize("name", NAMES)
def test_workload_reports_the_declared_metrics(name, tmp_path, micro_values):
    plain = run.child_repetition(name, SEED, False, tmp_path, SCALE)
    assert plain["failed"] == 0 and plain["completed"] == plain["attempted"] > 0

    end_to_end = run.summarize_end_to_end(name, [plain, copy.deepcopy(plain)], SPEC)
    assert end_to_end["correct"], end_to_end["problems"]
    assert set(end_to_end["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in end_to_end["metrics"].values())

    original = AddressSpace.invoke_remote
    traced = run.child_repetition(name, SEED, True, tmp_path, SCALE)
    assert AddressSpace.invoke_remote is original, "the span recorder must uninstall itself"
    assert abs(sum(traced["self_ns"].values()) - traced["root_ns"]) <= 0.01 * traced["root_ns"]
    assert traced["coverage"] > 0.5

    per_layer = run.summarize_per_layer(name, [plain], traced, micro_values, 0.0, SPEC)
    assert per_layer["correct"], per_layer["problems"]
    assert set(per_layer["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    line = json.loads(run.result_line(per_layer))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}

    dump = json.loads((tmp_path / f"trace_{name}.json").read_text())
    assert dump["spans"][0][3] == -1 and len(dump["spans"]) == traced["spans_recorded"]


def test_sim_numbers_that_differ_between_rounds_are_named(tmp_path):
    plain = run.child_repetition("direct_small", SEED, False, tmp_path, SCALE)
    drifted = copy.deepcopy(plain)
    drifted["sim"]["wire_bytes_per_call"] += 1.0
    result = run.summarize_end_to_end("direct_small", [plain, drifted], SPEC)
    assert not result["correct"]
    problem = result["problems"][0]
    assert "direct_small" in problem and "wire_bytes_per_call" in problem


def test_a_wrong_answer_trips_the_oracle(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.Catalog, "lookup", lambda self, key: -7)
    plain = run.child_repetition("direct_small", SEED, False, tmp_path, SCALE)
    assert plain["failed"] == plain["attempted"]
    result = run.summarize_end_to_end("direct_small", [plain], SPEC)
    assert not result["correct"] and result["failed"] == plain["attempted"]


def test_every_name_is_well_formed_and_used_once():
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert {name for name in workloads.WORKLOADS} == set(NAMES)
    layers = {f"{layer}.self_us" for layer in spans.SELF_TIME_LAYERS}
    assert layers <= {metric["name"] for metric in SPEC["per_layer"]}


def test_self_time_of_nested_spans():
    recorder = spans.Recorder()
    inner = recorder.wrap(lambda: sum(range(2000)), "inner", "api")
    marshal = recorder.wrap(lambda: inner(), "marshal", spans.INHERITED_LAYER)
    dispatch = recorder.wrap(lambda: marshal(), "handler", "runtime.dispatch")
    recorder.wrap(lambda: (dispatch(), marshal()), "root", spans.ROOT_LAYER)()
    totals = recorder.self_time_ns()
    assert sum(totals.values()) == recorder.root_duration_ns()
    # the marshaller is billed to the side it ran on: dispatch once, client once
    assert totals["runtime.dispatch"] > 0 and totals["runtime.client"] > 0
    assert recorder.calls("api") == 2


def _ledger(calls_per_s: float, sim_us: float) -> dict:
    def host(value):
        return {"value": value, "unit": "", "q1": value * 0.99, "q3": value * 1.01, "n": 7}

    end_to_end = {metric["name"]: host(1.0) for metric in SPEC["end_to_end"]}
    end_to_end["calls_per_s"] = host(calls_per_s)
    end_to_end["sim_us_per_call"] = host(sim_us)
    return {"seed": 7, "workloads": {"direct_small": {"end_to_end": end_to_end, "per_layer": {}}}}


def test_compare_verdicts():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "calls_per_s")
    slower, faster = 1000.0 * (1 - 1.5 * bound), 1000.0 * (1 + 1.5 * bound)

    def verdicts(other):
        rows = compare.compare(_ledger(1000.0, 5.0), other, SPEC)
        return {row["metric"]: row["verdict"] for row in rows}

    assert set(verdicts(_ledger(1000.0, 5.0)).values()) == {"same"}
    assert verdicts(_ledger(slower, 5.0))["calls_per_s"] == "worse"
    assert verdicts(_ledger(faster, 5.0))["calls_per_s"] == "better"
    assert verdicts(_ledger(1000.0, 5.0001))["sim_us_per_call"] == "differs"
    noisy = _ledger(slower, 5.0)
    noisy["workloads"]["direct_small"]["end_to_end"]["calls_per_s"].update(
        q1=slower * (1 - bound), q3=1000.0
    )
    assert verdicts(noisy)["calls_per_s"] == "unresolved"
