"""Chaos-hardened sweep: control overhead vs crash/loss fault rates.

The paper's overhead analysis assumes a benign network — every node
stays up, every control packet is received.  This experiment measures
how far the three per-node control frequencies drift from that baseline
when a deterministic :mod:`repro.faults` plan injects node crashes
(with recovery and full state wipe) and Bernoulli packet loss, across
the same velocity axis as Figure 2.

Each fault level reuses the sweep worker
(:func:`repro.analysis.sweep._run_once_task`), so faulted runs flow
through the identical measurement path as the paper reproduction —
the fault block is one field of the run's
:class:`~repro.run_spec.RunSpec`, which also gives every (velocity,
fault level, seed) run its own store fingerprint.  The graceful-degradation knobs (HELLO miss tolerance)
are part of the faulted levels, so the table shows the *hardened*
stack's overhead, not a stack collapsing under loss.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table
from ..analysis.parallel import run_tasks
from ..analysis.series import summarize
from ..analysis.sweep import _run_once_task
from ..core.params import NetworkParameters
from ..run_spec import RunSpec
from .config import ExperimentScale, scale_for

__all__ = ["run_chaos_overhead", "FAULT_ROSTER", "chaos_table"]

#: The fault levels: the unfaulted baseline first, then crash-only,
#: loss-only, and the combined storm.  Specs are ``faults`` blocks (see
#: :func:`repro.faults.fault_config_from_dict`); ``None`` means no plan
#: is attached at all, so the baseline rows are byte-identical to a
#: stock Figure-2 measurement.
FAULT_ROSTER: tuple[tuple[str, dict | None], ...] = (
    ("none", None),
    (
        "crash",
        {"crash_rate": 0.005, "crash_recover_after": 2.0},
    ),
    (
        "loss",
        {"loss_rate": 0.1, "hello_miss_limit": 3},
    ),
    (
        "crash+loss",
        {
            "crash_rate": 0.005,
            "crash_recover_after": 2.0,
            "loss_rate": 0.1,
            "hello_miss_limit": 3,
        },
    ),
)

_FREQUENCY_KEYS = ("f_hello", "f_cluster", "f_route")


def _measure_roster(
    params_by_velocity: list[NetworkParameters],
    roster,
    scale: ExperimentScale,
    jobs: int | None,
) -> dict[tuple[int, str], dict[str, float]]:
    """Fan every (velocity, fault level, seed) run out as one task list.

    Returns seed-averaged frequencies keyed by (velocity index, level
    name).  One flat :func:`run_tasks` call keeps results
    order-deterministic for any ``jobs`` value.
    """
    tasks = []
    keys: list[tuple[int, str]] = []
    for index, params in enumerate(params_by_velocity):
        for name, faults in roster:
            for seed in range(scale.seeds):
                tasks.append(
                    RunSpec(
                        params, seed, scale.duration, scale.warmup, faults=faults
                    )
                )
                keys.append((index, name))
    runs = run_tasks(_run_once_task, tasks, jobs=jobs)
    grouped: dict[tuple[int, str], list[dict[str, float]]] = {}
    for key, (frequencies, _ratio) in zip(keys, runs):
        grouped.setdefault(key, []).append(frequencies)
    return {
        key: {
            metric: summarize([run[metric] for run in runs_at]).mean
            for metric in _FREQUENCY_KEYS
        }
        for key, runs_at in grouped.items()
    }


def chaos_table(
    fractions,
    measured: dict[tuple[int, str], dict[str, float]],
    roster,
    title: str,
) -> Table:
    """Tabulate overhead vs fault level with baseline ratios."""
    table = Table(
        title=title,
        headers=[
            "v/a",
            "faults",
            "f_hello",
            "f_cluster",
            "f_route",
            "total/baseline",
        ],
    )
    baseline_name = roster[0][0]
    worst = 0.0
    for index, fraction in enumerate(fractions):
        baseline = measured[(index, baseline_name)]
        baseline_total = sum(baseline[key] for key in _FREQUENCY_KEYS)
        for name, _faults in roster:
            point = measured[(index, name)]
            total = sum(point[key] for key in _FREQUENCY_KEYS)
            ratio = total / baseline_total if baseline_total else float("nan")
            if name != baseline_name and ratio > worst:
                worst = ratio
            table.add_row(
                float(fraction),
                name,
                point["f_hello"],
                point["f_cluster"],
                point["f_route"],
                "baseline" if name == baseline_name else f"{ratio:.3f}x",
            )
    table.notes.append(
        "faulted rows run the hardened stack (HELLO miss tolerance on "
        "lossy levels); plans are deterministic per seed, so rows "
        "reproduce exactly"
    )
    if worst:
        table.notes.append(
            f"worst total-overhead inflation vs baseline: {worst:.3f}x"
        )
    return table


def run_chaos_overhead(
    quick: bool = False, jobs: int | None = None
) -> Table:
    """Overhead vs crash/loss fault rate across the Fig-2 velocity axis."""
    scale = scale_for(quick)
    base = NetworkParameters.from_fractions(
        n_nodes=scale.n_nodes, range_fraction=0.15, velocity_fraction=0.05
    )
    fractions = np.linspace(0.01, 0.15, scale.sweep_points)
    params_by_velocity = [
        base.with_(velocity=float(fraction * base.side))
        for fraction in fractions
    ]
    measured = _measure_roster(params_by_velocity, FAULT_ROSTER, scale, jobs)
    return chaos_table(
        fractions,
        measured,
        FAULT_ROSTER,
        "Chaos sweep — control overhead vs crash/loss faults "
        f"(N={scale.n_nodes}, r=0.15a)",
    )
