"""Tests of the benchmark itself, at tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.bootstrap()

import probes  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def measure(name: str, tmp_path: Path, trace: bool = False, golden=None, seed: int = 0):
    bench = workloads.make_workload(name, workloads.TINY, seed, tmp_path)
    if trace:
        return probes.measure_traced(bench, 0.6, golden)
    return bench.measure(0.6, golden)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert PER_LAYER == {name: unit for name, unit, *_ in probes.LAYER_METRICS}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert END_TO_END["setup_s"] == "s"


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_reports_every_end_to_end_metric(name, tmp_path):
    outcome = measure(name, tmp_path)
    assert outcome.checks.failed == 0, outcome.checks.problems
    assert outcome.checks.attempted > 0
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == END_TO_END
    assert all(value > 0 for value, _ in outcome.metrics.values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    outcome = measure(name, tmp_path, trace=True)
    assert outcome.checks.failed == 0, outcome.checks.problems
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == PER_LAYER
    assert outcome.metrics["bench.step_coverage"][0] >= probes.COVERAGE_MIN


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    step = workloads.Simulation.step
    measure("paper-stack", tmp_path, trace=True)
    assert workloads.Simulation.step is step


@pytest.mark.parametrize("name", ["paper-stack", "data-plane", "sweep"])
def test_tampered_digest_makes_check_fail_ratio_nonzero(name, tmp_path):
    digest = measure(name, tmp_path).notes["digest"]
    clean = measure(name, tmp_path, golden={name: digest})
    assert clean.checks.failed == 0
    tampered = measure(name, tmp_path, golden={name: "0" * len(digest)})
    assert tampered.checks.failed == 1
    assert tampered.checks.fail_ratio > 0


def test_digest_is_only_checked_at_the_default_seed(tmp_path):
    outcome = measure("paper-stack", tmp_path, golden={"paper-stack": "x"}, seed=3)
    assert outcome.checks.failed == 0


def test_inputs_follow_the_seed():
    positions = workloads.np.random.default_rng(0).uniform(size=(50, 2))
    first = workloads.make_flows(positions, 1.0, 8, seed=5)
    assert first == workloads.make_flows(positions, 1.0, 8, seed=5)
    assert first != workloads.make_flows(positions, 1.0, 8, seed=6)
    scale = workloads.TINY
    axis = workloads.sweep_fractions(scale, 5)
    assert (axis == workloads.sweep_fractions(scale, 5)).all()
    assert (axis != workloads.sweep_fractions(scale, 6)).any()
    assert workloads.derive_seed(5, 0) != workloads.derive_seed(6, 0)


def test_result_line_and_report(tmp_path):
    outcome = run.measure("paper-stack", 2, 0.3, False, scale=workloads.TINY)
    result = json.loads(run.result_line(outcome))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["setup_s"]["unit"] == "s"
    report = run.report("paper-stack", outcome)
    assert "check_fail_ratio" in report and "steps_per_s" in report
    assert not run.WORKDIR.exists()


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=bare,
    )
    assert done.returncode != 0
    assert done.stdout == ""
