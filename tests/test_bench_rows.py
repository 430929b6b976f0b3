"""The stack rows of ``repro-manet bench``: what each number adds up to."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.analysis import benchmark
from repro.analysis.benchmark import (
    WARMUP_STEPS,
    WINDOWS,
    bench_params,
    bench_steps,
)
from repro.run_spec import RunSpec, build_stack
from repro.sim import recommended_step

N_NODES = 100
STEPS = 4


@pytest.fixture(scope="module")
def row() -> dict:
    results, equivalence = bench_steps([N_NODES], steps=STEPS)
    assert equivalence == {str(N_NODES): "ok"}
    (row,) = results
    return row


def test_us_per_event_is_the_median_window(row):
    windows = row["us_per_event_windows"]
    assert len(windows) == WINDOWS
    assert row["us_per_event"] == statistics.median(windows)


def test_phases_and_untimed_sum_to_us_per_event(row):
    by_phase = dict(row["us_per_event_by_phase"])
    untimed = by_phase.pop("untimed")
    assert set(by_phase) == set(row["phases_s"])
    assert sum(by_phase.values()) + untimed == pytest.approx(
        row["us_per_event"], rel=1e-12
    )


def test_events_per_step_counts_the_stack_link_events(row):
    params = bench_params(N_NODES)
    dt = recommended_step(params.tx_range, params.velocity)
    timed_steps = WINDOWS * STEPS
    spec = RunSpec(
        params, seed=0, duration=timed_steps * dt, warmup=WARMUP_STEPS * dt
    )
    sim = build_stack(spec).sim
    for _ in range(WARMUP_STEPS):
        sim.step()
    sim.stats.start_measuring()
    events = sum(sim.step().change_count for _ in range(timed_steps))
    assert row["events_per_step"] == events / timed_steps
    stats = row["engine_stats"]
    assert stats["full_rebuilds"] + stats["incremental_steps"] == timed_steps


def test_windows_alternate_across_sizes_after_every_check(monkeypatch):
    calls = []
    check, time_window = benchmark.check_equivalence, benchmark._time_window

    def record_check(params):
        calls.append(("check", params.n_nodes))
        return check(params)

    def record_window(sim, steps):
        calls.append(("window", sim.n_nodes))
        return time_window(sim, steps)

    monkeypatch.setattr(benchmark, "check_equivalence", record_check)
    monkeypatch.setattr(benchmark, "_time_window", record_window)
    results, _ = bench_steps([100, 60], steps=1)
    assert [row["n_nodes"] for row in results] == [60, 100]
    assert calls == [("check", 60), ("check", 100)] + [
        ("window", 60),
        ("window", 100),
    ] * WINDOWS


def test_expected_degree_is_the_same_at_every_size():
    degrees = [
        math.pi * p.tx_range**2 * p.n_nodes / p.side**2
        for p in map(bench_params, (21, 60, 500, 2000, 4000, 8000))
    ]
    assert degrees == pytest.approx([degrees[0]] * len(degrees), rel=1e-12)


def test_reference_size_is_the_paper_stack_point():
    params = bench_params(2000)
    assert params.range_fraction == pytest.approx(0.1, rel=1e-15)
    assert params.velocity_fraction == pytest.approx(0.05, rel=1e-15)
