"""Figures 4–5: the LID cluster-head probability analysis (Section 5).

* **Figure 4(a)** — the term ``1 - (1-P)^{d+1}`` of the Eqn (16)
  fixpoint approaches 1 as the closed neighborhood grows, which
  justifies the Eqn (17) approximation.
* **Figure 4(b)** — the exact Eqn (16) root against the ``1/sqrt(d+1)``
  approximation.
* **Figure 5(a)** — number of clusters vs network size: LID formation
  simulated on static uniform placements vs ``n = N P`` from Eqn (18).
* **Figure 5(b)** — number of clusters vs transmission range at
  ``N = 400``.

The scrape prints Figure 5(a)'s fixed range as ``r=.65a``; at that
range the network is near-fully-connected and clustering is trivial,
so we read it as ``r = 0.065a`` (a dropped zero) and note the
ambiguity.  Both figures' *shape claims* — cluster count grows with
``N``, falls with ``r``, and the analysis and simulation curves cross —
are asserted by the test suite.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table, crossing_indices
from ..analysis.parallel import run_tasks
from ..clustering import LowestIdClustering
from ..core.degree import expected_degree
from ..core.lid_analysis import (
    lid_head_probability_approx,
    lid_head_probability_exact,
    lid_member_mass,
)
from ..spatial import Boundary, SquareRegion, compute_edges, edges_to_csr
from .config import scale_for

__all__ = [
    "run_fig4a",
    "run_fig4b",
    "run_fig5a",
    "run_fig5b",
    "measure_lid_head_ratio",
]


def run_fig4a(quick: bool = False) -> Table:
    """Figure 4(a): ``1-(1-P)^{d+1}`` → 1 as the closed neighborhood grows."""
    degrees = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=float)
    table = Table(
        title="Figure 4(a) — 1-(1-P)^(d+1) approaches 1 as d+1 increases",
        headers=["d+1", "P (Eqn 16)", "1-(1-P)^(d+1)"],
    )
    for degree in degrees:
        p = lid_head_probability_exact(degree)
        table.add_row(degree + 1, p, lid_member_mass(p, degree))
    return table


def run_fig4b(quick: bool = False) -> Table:
    """Figure 4(b): exact fixpoint vs the 1/sqrt(d+1) approximation."""
    degrees = np.geomspace(1.0, 256.0, 9)
    table = Table(
        title="Figure 4(b) — P from Eqn (16) vs approximation 1/sqrt(d+1)",
        headers=["d+1", "P exact", "P approx", "rel.err"],
    )
    for degree in degrees:
        exact = lid_head_probability_exact(degree)
        approx = lid_head_probability_approx(degree)
        table.add_row(
            degree + 1, exact, approx, abs(exact - approx) / exact
        )
    return table


def _head_ratio_task(task) -> float:
    """Picklable per-seed worker: LID head ratio on one placement."""
    n_nodes, tx_range, side, seed = task
    region = SquareRegion(side, Boundary.OPEN)
    positions = region.uniform_positions(n_nodes, seed)
    csr = edges_to_csr(compute_edges(region, positions, tx_range), n_nodes)
    ids = np.random.default_rng(seed + 10_000).permutation(n_nodes)
    state = LowestIdClustering(ids).form(csr)
    return float(state.head_ratio())


def measure_lid_head_ratio(
    n_nodes: int,
    tx_range: float,
    side: float = 1.0,
    seeds: int = 5,
    jobs: int | None = None,
) -> float:
    """Mean LID head ratio over random static placements.

    Ids are randomly permuted per seed so they are independent of any
    placement structure, matching the LID uniqueness assumption.
    Per-seed placements run in parallel when ``jobs`` is set.
    """
    ratios = run_tasks(
        _head_ratio_task,
        [(n_nodes, tx_range, side, seed) for seed in range(seeds)],
        jobs=jobs,
    )
    return float(np.mean(ratios))


def run_fig5a(quick: bool = False, jobs: int | None = None) -> Table:
    """Figure 5(a): number of clusters vs N at fixed r = 0.065a."""
    scale = scale_for(quick)
    range_fraction = 0.065
    sizes = [50, 100, 200, 400] if quick else [50, 100, 200, 400, 800]
    table = Table(
        title="Figure 5(a) — number of clusters vs network size (r=0.065a)",
        headers=["N", "d (Claim 1)", "n sim", "n ana (Eqn 16)", "n ana (Eqn 17)"],
        notes=[
            "scrape prints r=.65a; read as r=0.065a (near-full connectivity "
            "otherwise) — see DESIGN.md",
        ],
    )
    sims, anas = [], []
    for n_nodes in sizes:
        degree = float(expected_degree(n_nodes, float(n_nodes), range_fraction))
        measured = measure_lid_head_ratio(
            n_nodes, range_fraction, seeds=scale.seeds + 2, jobs=jobs
        )
        exact = float(lid_head_probability_exact(degree))
        approx = float(lid_head_probability_approx(degree))
        sims.append(measured * n_nodes)
        anas.append(exact * n_nodes)
        table.add_row(
            n_nodes, degree, measured * n_nodes, exact * n_nodes, approx * n_nodes
        )
    crossings = crossing_indices(sims, anas)
    table.notes.append(
        f"sim/analysis curve crossings at indices {crossings}"
        if crossings
        else "curves do not cross on this grid"
    )
    return table


def run_fig5b(quick: bool = False, jobs: int | None = None) -> Table:
    """Figure 5(b): number of clusters vs transmission range at fixed N."""
    scale = scale_for(quick)
    n_nodes = 200 if quick else 400
    fractions = np.linspace(0.03, 0.25, scale.sweep_points)
    table = Table(
        title=f"Figure 5(b) — number of clusters vs r (N={n_nodes})",
        headers=["r/a", "d (Claim 1)", "n sim", "n ana (Eqn 16)", "n ana (Eqn 17)"],
    )
    for fraction in fractions:
        degree = float(expected_degree(n_nodes, float(n_nodes), fraction))
        measured = measure_lid_head_ratio(
            n_nodes, float(fraction), seeds=scale.seeds + 2, jobs=jobs
        )
        exact = float(lid_head_probability_exact(degree))
        approx = float(lid_head_probability_approx(degree))
        table.add_row(
            fraction, degree, measured * n_nodes, exact * n_nodes, approx * n_nodes
        )
    return table
