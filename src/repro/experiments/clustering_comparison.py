"""Clustering algorithm comparison (the paper's related-work set).

Runs every implemented clustering algorithm on identical random
geometric topologies and reports the quantities the paper's overhead
model keys on: the head ratio ``P``, cluster count and mean cluster
size, plus P1 compliance (LCA predates P1 and legitimately violates
it; Max-Min's d-hop clusters satisfy neither one-hop property by
design).  For the one-hop algorithms it additionally measures the
reactive maintenance CLUSTER rate under mobility, showing how the
choice of priority function shifts the overhead the model predicts
through ``P``.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table
from ..analysis.parallel import run_tasks
from ..clustering import (
    ClusterMaintenanceProtocol,
    DmacClustering,
    HighestConnectivityClustering,
    LinkedClusterArchitecture,
    LowestIdClustering,
    MaxMinDCluster,
    MobDHopClustering,
    check_properties,
)
from ..core.params import NetworkParameters
from ..mobility import EpochRandomWaypointModel
from ..sim import Simulation
from ..spatial import Boundary, SquareRegion, compute_edges, edges_to_csr
from .config import scale_for

__all__ = ["run_clustering_comparison", "ONE_HOP_ALGORITHMS", "ALL_ALGORITHMS"]

#: Algorithms compatible with the P1/P2-enforcing reactive maintenance.
ONE_HOP_ALGORITHMS = (
    ("lid", lambda: LowestIdClustering()),
    ("hcc", lambda: HighestConnectivityClustering()),
    ("dmac", lambda: DmacClustering(seed=7)),
)

#: The full formation-comparison set.
ALL_ALGORITHMS = ONE_HOP_ALGORITHMS + (
    ("maxmin(d=2)", lambda: MaxMinDCluster(2)),
    ("lca", lambda: LinkedClusterArchitecture()),
    ("mobdhop(d=2)", lambda: MobDHopClustering(2)),
)

#: Lookup for worker processes: the lambdas above are not picklable, so
#: tasks carry the algorithm *name* and workers resolve it here.
_FACTORIES = dict(ALL_ALGORITHMS)


def _maintenance_rate(
    params: NetworkParameters, factory, duration: float, warmup: float, seed: int
) -> float:
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, epoch=1.0), seed=seed
    )
    maintenance = ClusterMaintenanceProtocol(factory())
    sim.attach(maintenance)
    stats = sim.run(duration=duration, warmup=warmup)
    return stats.per_node_frequency("cluster")


def _formation_task(task) -> tuple[float, float, float, bool]:
    """Picklable per-(algorithm, seed) worker: one formation's metrics."""
    name, n_nodes, range_fraction, seed = task
    region = SquareRegion(1.0, Boundary.OPEN)
    positions = region.uniform_positions(n_nodes, seed)
    edges = compute_edges(region, positions, range_fraction)
    csr = edges_to_csr(edges, n_nodes)
    state = _FACTORIES[name]().form(csr)
    violations = check_properties(state, csr)
    return (
        float(state.head_ratio()),
        float(state.cluster_count()),
        float(np.mean(state.cluster_sizes())),
        not violations.adjacent_heads,
    )


def _maintenance_task(task) -> float:
    """Picklable per-algorithm worker: reactive CLUSTER rate under mobility."""
    name, params, duration, warmup, seed = task
    return _maintenance_rate(params, _FACTORIES[name], duration, warmup, seed)


def run_clustering_comparison(
    quick: bool = False, jobs: int | None = None
) -> Table:
    """Formation metrics for all algorithms; maintenance rate for one-hop."""
    scale = scale_for(quick)
    n_nodes = scale.n_nodes
    range_fraction = 0.15
    table = Table(
        title=f"Clustering comparison (N={n_nodes}, r={range_fraction}a)",
        headers=[
            "algorithm",
            "P",
            "clusters",
            "mean size",
            "P1 ok",
            "f_cluster (maint)",
        ],
        notes=[
            "P1 violations are inherent to LCA (predates P1) and to d-hop "
            "schemes (Max-Min, MobDHop) whose members sit >1 hop from heads",
            "f_cluster only defined for one-hop algorithms under reactive "
            "maintenance",
        ],
    )
    params = NetworkParameters.from_fractions(
        n_nodes=n_nodes, range_fraction=range_fraction, velocity_fraction=0.04
    )
    maintenance_names = {name for name, _ in ONE_HOP_ALGORITHMS}
    seeds = scale.seeds + 1
    formation_results = run_tasks(
        _formation_task,
        [
            (name, n_nodes, range_fraction, seed)
            for name, _ in ALL_ALGORITHMS
            for seed in range(seeds)
        ],
        jobs=jobs,
    )
    maintenance_rates = dict(
        zip(
            sorted(maintenance_names),
            run_tasks(
                _maintenance_task,
                [
                    (name, params, scale.duration / 2, scale.warmup, 0)
                    for name in sorted(maintenance_names)
                ],
                jobs=jobs,
            ),
        )
    )
    for index, (name, _) in enumerate(ALL_ALGORITHMS):
        per_seed = formation_results[index * seeds : (index + 1) * seeds]
        ratios = [r[0] for r in per_seed]
        counts = [r[1] for r in per_seed]
        sizes = [r[2] for r in per_seed]
        p1_ok = all(r[3] for r in per_seed)
        rate: float | str = maintenance_rates.get(name, "-")
        table.add_row(
            name,
            float(np.mean(ratios)),
            float(np.mean(counts)),
            float(np.mean(sizes)),
            p1_ok,
            rate,
        )
    return table
