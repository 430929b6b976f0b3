"""Adaptive beaconing: the HELLO overhead-vs-staleness frontier.

Fixed-period beaconing spends the same budget at every node and every
instant; the closed-loop policies in :mod:`repro.control` reallocate
that budget — more beacons where (and when) links churn, fewer where
the neighborhood is quiet.  With the *linear* staleness model
``E[stale] ~ lambda * (m + 1/2) * T`` such reallocation is exactly
overhead-neutral, so any empirical win must come from the
nonlinearities the model ignores: link flaps that cancel before the
advertised timeout fires, arrivals that depart before they were ever
announced, and the clamping of per-node intervals.  Those effects make
measured staleness *concave* in the interval, and under a concave cost
a heterogeneous allocation strictly beats the uniform one (Jensen) —
which is the frontier this experiment measures.

The sweep runs the fixed-period baseline and every adaptive policy
across the Figure-2 velocity axis (``r = 0.15 a``), measuring the
per-node HELLO frequency and the mean neighbor-table staleness
(detection errors per node, sampled across the measurement window,
identically for every policy).  A policy *dominates* fixed-period at a
velocity point when it spends strictly less HELLO overhead at
equal-or-lower staleness.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table
from ..analysis.parallel import run_tasks
from ..analysis.series import summarize
from ..core import overhead as overhead_model
from ..core.params import NetworkParameters
from ..mobility import EpochRandomWaypointModel
from ..sim import Simulation
from ..sim.beacon import hello_from_config
from ..sim.engine import strided_sampler
from .config import ExperimentScale, scale_for

__all__ = ["run_adaptive_beaconing", "POLICY_ROSTER", "frontier_table"]

#: The contenders: the fixed-period baseline first, then every adaptive
#: policy.  Specs are beacon blocks (see
#: :func:`repro.sim.beacon.hello_from_config`); they ride inside each
#: task, so the result store fingerprints each policy's runs
#: separately.
POLICY_ROSTER: tuple[tuple[str, dict], ...] = (
    ("fixed", {"mode": "periodic", "interval": 1.0}),
    (
        "analytic-rate",
        {"mode": "adaptive", "policy": {"policy": "analytic-rate"}},
    ),
    (
        "churn-feedback",
        {"mode": "adaptive", "policy": {"policy": "churn-feedback"}},
    ),
    (
        "staleness-bounded",
        {"mode": "adaptive", "policy": {"policy": "staleness-bounded"}},
    ),
)


def _run_beacon_task(task) -> dict[str, float]:
    """Picklable per-(params, seed, policy) worker.

    Runs a HELLO-only stack (no clustering/routing — the frontier is a
    property of the beacon plane alone) and samples the neighbor-table
    staleness across the measurement window the same way for every
    policy, so fixed and adaptive rows are directly comparable.
    """
    params, seed, duration, warmup, epoch, beacon = task
    sim = Simulation(
        params,
        EpochRandomWaypointModel(params.velocity, epoch=epoch),
        seed=seed,
    )
    hello = sim.attach(hello_from_config(beacon))
    errors, sample = strided_sampler(
        lambda: hello.detection_errors(sim) / params.n_nodes
    )
    stats = sim.run(duration, warmup, on_measured_step=sample)
    return {
        "f_hello": stats.per_node_frequency("hello"),
        "staleness": float(np.mean(errors)),
    }


def _measure_roster(
    params_by_velocity: list[NetworkParameters],
    roster,
    scale: ExperimentScale,
    jobs: int | None,
) -> dict[tuple[int, str], dict[str, float]]:
    """Fan every (velocity, policy, seed) run out through one task list.

    Returns seed-averaged measurements keyed by (velocity index, policy
    name).  One flat :func:`run_tasks` call maximizes parallelism and
    keeps results order-deterministic regardless of ``jobs``.
    """
    tasks = []
    keys: list[tuple[int, str]] = []
    for index, params in enumerate(params_by_velocity):
        for name, beacon in roster:
            for seed in range(scale.seeds):
                tasks.append(
                    (params, seed, scale.duration, scale.warmup, 1.0, beacon)
                )
                keys.append((index, name))
    runs = run_tasks(_run_beacon_task, tasks, jobs=jobs)
    grouped: dict[tuple[int, str], list[dict[str, float]]] = {}
    for key, run in zip(keys, runs):
        grouped.setdefault(key, []).append(run)
    return {
        key: {
            metric: summarize([run[metric] for run in runs_at]).mean
            for metric in ("f_hello", "staleness")
        }
        for key, runs_at in grouped.items()
    }


def frontier_table(
    fractions,
    params_by_velocity: list[NetworkParameters],
    measured: dict[tuple[int, str], dict[str, float]],
    roster,
    title: str,
) -> Table:
    """Tabulate the overhead-vs-staleness frontier with dominance verdicts."""
    table = Table(
        title=title,
        headers=[
            "v/a",
            "policy",
            "f_hello",
            "staleness",
            "eqn4 bound",
            "vs fixed",
        ],
    )
    dominating: list[str] = []
    for index, (fraction, params) in enumerate(
        zip(fractions, params_by_velocity)
    ):
        bound = overhead_model.hello_frequency(params)
        baseline = measured[(index, roster[0][0])]
        for name, _ in roster:
            point = measured[(index, name)]
            if name == roster[0][0]:
                verdict = "baseline"
            else:
                dominates = (
                    point["f_hello"] < baseline["f_hello"]
                    and point["staleness"] <= baseline["staleness"]
                )
                verdict = "dominates" if dominates else "-"
                if dominates:
                    dominating.append(f"{name}@v/a={float(fraction):.3f}")
            table.add_row(
                float(fraction),
                name,
                point["f_hello"],
                point["staleness"],
                bound,
                verdict,
            )
    if dominating:
        table.notes.append(
            "dominance: " + ", ".join(dominating)
            + " (lower HELLO overhead at equal-or-lower staleness)"
        )
    else:
        table.notes.append(
            "dominance: none — no adaptive policy beat fixed-period"
        )
    table.notes.append(
        "staleness = mean neighbor-table detection errors per node, "
        "sampled across the measurement window"
    )
    return table


def run_adaptive_beaconing(
    quick: bool = False, jobs: int | None = None
) -> Table:
    """The frontier experiment: fixed vs adaptive across the Fig-2 axis."""
    scale = scale_for(quick)
    base = NetworkParameters.from_fractions(
        n_nodes=scale.n_nodes, range_fraction=0.15, velocity_fraction=0.05
    )
    fractions = np.linspace(0.01, 0.15, scale.sweep_points)
    params_by_velocity = [
        base.with_(velocity=float(fraction * base.side))
        for fraction in fractions
    ]
    measured = _measure_roster(
        params_by_velocity, POLICY_ROSTER, scale, jobs
    )
    return frontier_table(
        fractions,
        params_by_velocity,
        measured,
        POLICY_ROSTER,
        "Adaptive beaconing — HELLO overhead vs staleness frontier "
        f"(N={scale.n_nodes}, r=0.15a)",
    )
