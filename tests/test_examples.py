"""Smoke tests: the example scripts must run and print their headlines.

Only the fast examples run here (the protocol comparison and mobility
sweep take minutes); they are exercised by their experiment-registry
equivalents in the benchmark suite.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(script: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_runs():
    out = _run("quickstart.py")
    assert "analysis: LID head ratio" in out
    assert "simulation: measured P" in out
    assert "f_route" in out


def test_capacity_planning_runs():
    out = _run("capacity_planning.py")
    assert "feasible transmission-range window" in out
    assert "budget split" in out
    assert "ROUTE" in out


def test_failure_resilience_runs():
    out = _run("failure_resilience.py")
    assert "crashing heads in waves" in out
    assert "BROKEN" not in out
    assert "after full recovery: structure ok" in out


def test_scenario_files_are_valid():
    from repro.scenario import load_scenario

    for path in (EXAMPLES / "scenarios").glob("*.json"):
        config = load_scenario(path)
        assert config.n_nodes > 0
