"""Backbone structure vs transmission range (scalability future work).

The paper's conclusion lists scalability analysis as future work; the
quantity that governs it is the *backbone*: the heads-plus-gateways
subset that forwards inter-cluster traffic.  This experiment sweeps the
transmission range and reports the backbone's size, its reachability
(does restricting forwarding to it lose connectivity?), and the head
separation guaranteed by property P1.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table
from ..analysis.parallel import run_tasks
from ..analysis.topology import summarize_structure
from ..clustering import LowestIdClustering
from ..spatial import Boundary, SquareRegion, compute_edges, edges_to_csr
from .config import scale_for

__all__ = ["run_backbone"]


def _structure_task(task):
    """Picklable per-(range, seed) worker: one clustered-topology summary."""
    n_nodes, fraction, samples, seed = task
    region = SquareRegion(1.0, Boundary.OPEN)
    positions = region.uniform_positions(n_nodes, seed)
    csr = edges_to_csr(compute_edges(region, positions, fraction), n_nodes)
    state = LowestIdClustering().form(csr)
    return summarize_structure(
        state, csr, positions, region, samples=samples, rng=seed
    )


def run_backbone(quick: bool = False, jobs: int | None = None) -> Table:
    """Structural metrics of LID-clustered topologies across ranges."""
    scale = scale_for(quick)
    n_nodes = scale.n_nodes
    table = Table(
        title=f"Backbone structure vs transmission range (N={n_nodes}, LID)",
        headers=[
            "r/a",
            "P",
            "gateway ratio",
            "backbone ratio",
            "reachability",
            "max diam",
            "min head sep / r",
        ],
        notes=[
            "backbone = heads + gateways; reachability = fraction of "
            "connected pairs still connected when only the backbone forwards",
            "P1 guarantees min head separation / r > 1",
        ],
    )
    fractions = [float(f) for f in np.linspace(0.08, 0.3, scale.sweep_points)]
    samples = 120 if quick else 250
    # One flat task list over (range, seed) keeps every worker busy even
    # when seeds < jobs; results come back in task order, so slicing by
    # seed count regroups them per fraction.
    results = run_tasks(
        _structure_task,
        [
            (n_nodes, fraction, samples, seed)
            for fraction in fractions
            for seed in range(scale.seeds)
        ],
        jobs=jobs,
    )
    for index, fraction in enumerate(fractions):
        summaries = results[index * scale.seeds : (index + 1) * scale.seeds]
        table.add_row(
            float(fraction),
            float(np.mean([s.head_ratio for s in summaries])),
            float(np.mean([s.gateway_ratio for s in summaries])),
            float(np.mean([s.backbone_ratio for s in summaries])),
            float(np.mean([s.backbone_reachability for s in summaries])),
            float(np.max([s.max_cluster_diameter for s in summaries])),
            float(
                np.min([s.min_head_separation for s in summaries]) / fraction
            ),
        )
    return table
