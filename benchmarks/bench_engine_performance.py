"""Kernel micro-benchmarks: simulator step cost and formation cost.

Not a paper artifact — these track the substrate's own performance so
regressions in the hot paths (adjacency recomputation, event diffing,
LID formation) are visible.
"""

from __future__ import annotations

import numpy as np

from repro.clustering import LowestIdClustering
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import Simulation
from repro.spatial import Boundary, SquareRegion, compute_edges, diff_edge_sets


def test_simulation_step_cost(benchmark):
    params = NetworkParameters.from_fractions(
        n_nodes=400, range_fraction=0.1, velocity_fraction=0.05
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=0
    )
    benchmark(sim.step)


def test_neighbor_rows_cost(benchmark):
    """80 point queries after one incremental step at N=2000, about the
    LID maintenance load of a step: the engine's pair index answers
    them, so no CSR of the whole edge set is built."""
    params = NetworkParameters.from_fractions(
        n_nodes=2000, range_fraction=0.1, velocity_fraction=0.05
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=0
    )
    sim.step()
    nodes = range(0, params.n_nodes, params.n_nodes // 80)

    def queries():
        return [sim.neighbors_of(node) for node in nodes]

    rows = benchmark(queries)
    assert len(rows) == 80
    assert sim._neighbor_csr is None


def test_validation_step_cost(benchmark):
    """One ``Simulation.step`` at N=2000 whose engine step is a full
    validation.  The validation returns its own link events, so the
    step diffs no edge sets."""
    params = NetworkParameters.from_fractions(
        n_nodes=2000, range_fraction=0.1, velocity_fraction=0.05
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=0
    )
    sim.step()
    engine = sim._incremental
    results = []
    engine_step = engine.step

    def recorded(positions):
        results.append(engine_step(positions))
        return results[-1]

    engine.step = recorded

    def force_validation():
        # A validation reference one margin away from every node makes
        # the next step validate; the motion itself stays ordinary.
        engine._ref = engine._ref + engine.margin

    benchmark.pedantic(sim.step, setup=force_validation, rounds=5)
    assert results
    assert all(r.rebuilt and r.events is not None for r in results)


def test_compute_edges_tree_cost(benchmark):
    region = SquareRegion(1.0, Boundary.TORUS)
    positions = region.uniform_positions(2000, 0)
    edges = benchmark(compute_edges, region, positions, 0.05, method="tree")
    assert len(edges) > 0


def test_diff_edge_sets_cost(benchmark):
    region = SquareRegion(1.0, Boundary.TORUS)
    edges_a = compute_edges(
        region, region.uniform_positions(2000, 0), 0.05, method="tree"
    )
    edges_b = compute_edges(
        region, region.uniform_positions(2000, 1), 0.05, method="tree"
    )
    events = benchmark(diff_edge_sets, edges_a, edges_b)
    assert events.change_count > 0


def test_lid_formation_cost(benchmark):
    region = SquareRegion(1.0, Boundary.OPEN)
    positions = region.uniform_positions(400, 0)
    adjacency = region.adjacency(positions, 0.1)
    algorithm = LowestIdClustering()
    state = benchmark(algorithm.form, adjacency)
    assert state.cluster_count() > 0


def test_dense_adjacency_cost(benchmark):
    region = SquareRegion(1.0, Boundary.TORUS)
    positions = region.uniform_positions(400, 0)
    result = benchmark(region.adjacency, positions, 0.1)
    assert result.shape == (400, 400)
