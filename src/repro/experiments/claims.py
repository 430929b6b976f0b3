"""Validation of Claims 1 and 2 — the model's two load-bearing lemmas.

* **Claim 1** (expected in-region degree): measured by placing Poisson
  fields on a large torus and counting, for nodes of a square window
  ``S``, their neighbors *inside the window* — the exact BCV reading of
  "neighbors outside S are not considered".
* **Claim 2** (CV/BCV link change rates): the CV rate is measured on a
  torus (the realizable stand-in for the unbounded plane) by diffing
  consecutive edge sets; the BCV rate restricts the count to events whose
  endpoints both lie in the window.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table
from ..analysis.parallel import run_tasks
from ..core.degree import expected_degree
from ..core.linkdynamics import bcv_link_change_rate, cv_link_change_rate
from ..mobility import ConstantVelocityModel
from ..spatial import Boundary, SquareRegion, compute_edges, diff_edge_sets
from .config import scale_for

__all__ = ["run_claim1", "run_claim2", "measure_window_degree", "measure_cv_rates"]


def _window_degree_task(task) -> float | None:
    """Picklable per-seed worker: mean in-window degree on one field."""
    n_window, tx_range, margin, seed = task
    region = SquareRegion(margin, Boundary.TORUS)
    total_nodes = int(round(n_window * margin * margin))
    positions = region.uniform_positions(total_nodes, seed)
    offset = (margin - 1.0) / 2.0
    in_window = np.all(
        (positions >= offset) & (positions <= offset + 1.0), axis=1
    )
    window_nodes = np.flatnonzero(in_window)
    if not len(window_nodes):
        return None
    adjacency = region.adjacency(positions, tx_range)
    sub = adjacency[np.ix_(window_nodes, window_nodes)]
    return float(sub.sum(axis=1).mean())


def measure_window_degree(
    n_window: int,
    tx_range: float,
    seeds: int = 5,
    margin: float = 3.0,
    jobs: int | None = None,
) -> float:
    """Empirical mean in-window degree for density ``n_window`` per unit².

    Nodes are spread over a ``margin x margin`` torus (so the window has
    natural traffic across its border); only neighbors inside the
    central unit window count, and only window nodes are averaged.
    Per-seed fields run in parallel when ``jobs`` is set.
    """
    degrees = run_tasks(
        _window_degree_task,
        [(n_window, tx_range, margin, seed) for seed in range(seeds)],
        jobs=jobs,
    )
    return float(np.mean([d for d in degrees if d is not None]))


def run_claim1(quick: bool = False, jobs: int | None = None) -> Table:
    """Claim 1: expected degree vs windowed measurement."""
    scale = scale_for(quick)
    n_window = scale.n_nodes
    table = Table(
        title=f"Claim 1 — expected in-region degree (N={n_window} per window)",
        headers=["r", "d analysis (Eqn 1)", "d measured", "rel.err"],
    )
    for tx_range in np.linspace(0.05, 0.3, 4 if quick else 6):
        analysis = float(expected_degree(n_window, float(n_window), tx_range))
        measured = measure_window_degree(
            n_window, float(tx_range), seeds=scale.seeds + 1, jobs=jobs
        )
        table.add_row(
            tx_range,
            analysis,
            measured,
            abs(measured - analysis) / analysis,
        )
    return table


def measure_cv_rates(
    n_nodes: int,
    tx_range: float,
    velocity: float,
    steps: int = 400,
    seed: int = 0,
    window: bool = False,
    margin: float = 1.0,
) -> float:
    """Measured per-node link change rate of the CV model on a torus.

    With ``window=True`` the measurement is restricted to node pairs
    whose endpoints both lie in the central unit window of a
    ``margin``-sized torus — the BCV rate.
    """
    region = SquareRegion(margin, Boundary.TORUS)
    model = ConstantVelocityModel(velocity)
    model.reset(n_nodes, region, seed)
    dt = 0.02 * tx_range / max(velocity, 1e-9)
    edges = compute_edges(region, model.positions, tx_range)
    changes = 0
    node_time = 0.0
    offset = (margin - 1.0) / 2.0
    for _ in range(steps):
        positions = model.advance(dt)
        new_edges = compute_edges(region, positions, tx_range)
        events = diff_edge_sets(edges, new_edges)
        if window:
            in_window = np.all(
                (positions >= offset) & (positions <= offset + 1.0), axis=1
            )
            for pairs in (events.generated, events.broken):
                # Each event inside the window touches both endpoints.
                changes += 2 * int(in_window[pairs].all(axis=1).sum())
            node_time += in_window.sum() * dt
        else:
            changes += 2 * events.change_count
            node_time += n_nodes * dt
        edges = new_edges
    return changes / node_time


def _cv_rate_task(task) -> float:
    """Picklable per-measurement worker for :func:`run_claim2`."""
    n_nodes, tx_range, velocity, steps, window, margin = task
    return measure_cv_rates(
        n_nodes, tx_range, velocity, steps=steps, window=window, margin=margin
    )


def run_claim2(quick: bool = False, jobs: int | None = None) -> Table:
    """Claim 2: CV and BCV link change rates vs simulation.

    The four (range, model) measurements are independent, so they run
    through :func:`repro.analysis.parallel.run_tasks` — parallel when
    ``jobs`` is set and memoized under an ambient result store.
    """
    scale = scale_for(quick)
    n_nodes = scale.n_nodes
    velocity = 0.02
    steps = 200 if quick else 500
    table = Table(
        title="Claim 2 — link change rates (CV on torus; BCV in window)",
        headers=["r", "model", "rate analysis", "rate measured", "rel.err"],
    )
    ranges = (0.05, 0.1)
    tasks = []
    for tx_range in ranges:
        tasks.append((n_nodes, tx_range, velocity, steps, False, 1.0))
        # BCV: window of a 2x2 torus at the same density.
        margin = 2.0
        total = int(n_nodes * margin * margin)
        tasks.append((total, tx_range, velocity, steps, True, margin))
    measured = run_tasks(_cv_rate_task, tasks, jobs=jobs)
    for index, tx_range in enumerate(ranges):
        analysis_cv = cv_link_change_rate(float(n_nodes), tx_range, velocity)
        measured_cv = measured[2 * index]
        table.add_row(
            tx_range,
            "CV",
            analysis_cv,
            measured_cv,
            abs(measured_cv - analysis_cv) / analysis_cv,
        )
        degree = float(expected_degree(n_nodes, float(n_nodes), tx_range))
        analysis_bcv = bcv_link_change_rate(degree, tx_range, velocity)
        measured_bcv = measured[2 * index + 1]
        table.add_row(
            tx_range,
            "BCV",
            analysis_bcv,
            measured_bcv,
            abs(measured_bcv - analysis_bcv) / analysis_bcv,
        )
    return table
