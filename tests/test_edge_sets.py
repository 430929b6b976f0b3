"""Tests for the edge-set connectivity representation.

The engine's primary connectivity state is a sorted ``(E, 2)`` edge
array; these tests pin its exact equivalence to the dense adjacency
representation — conversions roundtrip, ``diff_edge_sets`` produces the
same events as ``diff_adjacency``, every compute method yields the same
edge set, and the engine's lazy dense view stays consistent with its
edge state (including under node failure).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import Simulation
from repro.spatial import (
    GRID_CROSSOVER_NODES,
    Boundary,
    SquareRegion,
    adjacency_to_edges,
    compute_edges,
    degree_counts,
    degree_counts_from_edges,
    diff_adjacency,
    diff_edge_sets,
    edges_to_adjacency,
    select_connectivity_method,
)


def _random_adjacency(n, density, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1)
    return upper | upper.T


class TestConversions:
    def test_roundtrip_via_edges(self):
        adjacency = _random_adjacency(40, 0.2, 0)
        edges = adjacency_to_edges(adjacency)
        np.testing.assert_array_equal(
            edges_to_adjacency(edges, 40), adjacency
        )

    def test_edges_sorted_upper_triangle(self):
        edges = adjacency_to_edges(_random_adjacency(30, 0.3, 1))
        assert np.all(edges[:, 0] < edges[:, 1])
        keys = edges[:, 0] * 30 + edges[:, 1]
        assert np.all(np.diff(keys) > 0)

    def test_empty_graph(self):
        edges = adjacency_to_edges(np.zeros((5, 5), dtype=bool))
        assert edges.shape == (0, 2)
        assert not edges_to_adjacency(edges, 5).any()

    def test_full_graph(self):
        adjacency = ~np.eye(6, dtype=bool)
        edges = adjacency_to_edges(adjacency)
        assert len(edges) == 15
        np.testing.assert_array_equal(edges_to_adjacency(edges, 6), adjacency)

    def test_degree_counts_agree(self):
        adjacency = _random_adjacency(50, 0.15, 2)
        np.testing.assert_array_equal(
            degree_counts_from_edges(adjacency_to_edges(adjacency), 50),
            degree_counts(adjacency),
        )


class TestDiffEdgeSets:
    @pytest.mark.parametrize("boundary", [Boundary.TORUS, Boundary.OPEN])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_diff_adjacency_random_motion(self, boundary, seed):
        region = SquareRegion(1.0, boundary)
        rng = np.random.default_rng(seed)
        before = region.uniform_positions(120, seed)
        after = np.clip(
            before + rng.normal(0.0, 0.02, before.shape), 0.0, region.side
        )
        if boundary is Boundary.TORUS:
            after = after % region.side
        adj_before = region.adjacency(before, 0.15)
        adj_after = region.adjacency(after, 0.15)
        dense_events = diff_adjacency(adj_before, adj_after)
        edge_events = diff_edge_sets(
            adjacency_to_edges(adj_before), adjacency_to_edges(adj_after)
        )
        np.testing.assert_array_equal(
            edge_events.generated, dense_events.generated
        )
        np.testing.assert_array_equal(edge_events.broken, dense_events.broken)

    def test_no_change(self):
        edges = adjacency_to_edges(_random_adjacency(20, 0.3, 4))
        events = diff_edge_sets(edges, edges)
        assert events.change_count == 0

    def test_empty_to_full(self):
        full = adjacency_to_edges(~np.eye(7, dtype=bool))
        empty = np.empty((0, 2), dtype=np.int64)
        events = diff_edge_sets(empty, full)
        assert events.generation_count == 21
        assert events.break_count == 0
        events = diff_edge_sets(full, empty)
        assert events.break_count == 21
        assert events.generation_count == 0

    def test_events_sorted(self):
        before = adjacency_to_edges(_random_adjacency(60, 0.1, 5))
        after = adjacency_to_edges(_random_adjacency(60, 0.1, 6))
        events = diff_edge_sets(before, after)
        for pairs in (events.generated, events.broken):
            keys = pairs[:, 0] * 60 + pairs[:, 1]
            assert np.all(np.diff(keys) > 0)


class TestComputeEdges:
    @pytest.mark.parametrize("boundary", [Boundary.TORUS, Boundary.OPEN])
    def test_dense_equals_grid(self, boundary):
        region = SquareRegion(1.0, boundary)
        positions = region.uniform_positions(200, 7)
        dense = compute_edges(region, positions, 0.1, method="dense")
        grid = compute_edges(region, positions, 0.1, method="grid")
        np.testing.assert_array_equal(dense, grid)

    def test_matches_region_adjacency(self, unit_torus):
        positions = unit_torus.uniform_positions(150, 8)
        edges = compute_edges(unit_torus, positions, 0.12)
        np.testing.assert_array_equal(
            edges_to_adjacency(edges, 150),
            unit_torus.adjacency(positions, 0.12),
        )

    def test_unknown_method_rejected(self, unit_torus):
        positions = unit_torus.uniform_positions(10, 0)
        with pytest.raises(ValueError):
            compute_edges(unit_torus, positions, 0.1, method="fancy")


class TestConnectivitySelection:
    def test_small_network_stays_dense(self):
        assert select_connectivity_method(50, 0.1, 1.0) == "dense"

    def test_large_sparse_uses_grid(self):
        assert (
            select_connectivity_method(GRID_CROSSOVER_NODES + 1, 0.1, 1.0)
            == "grid"
        )

    def test_at_crossover_stays_dense(self):
        assert (
            select_connectivity_method(GRID_CROSSOVER_NODES, 0.1, 1.0)
            == "dense"
        )

    def test_large_but_dense_range_stays_dense(self):
        # The grid needs >= MIN_GRID_CELLS_PER_SIDE cells to prune.
        assert select_connectivity_method(5000, 0.3, 1.0) == "dense"

    def test_engine_resolves_auto(self):
        small = NetworkParameters.from_fractions(
            n_nodes=40, range_fraction=0.1, velocity_fraction=0.05
        )
        sim = Simulation(
            small, EpochRandomWaypointModel(small.velocity, 1.0), seed=0
        )
        assert sim.connectivity == "dense"
        # A large sparse network with the recommended step's small
        # per-step displacement qualifies for the incremental engine.
        large = NetworkParameters.from_fractions(
            n_nodes=300, range_fraction=0.05, velocity_fraction=0.05
        )
        sim = Simulation(
            large, EpochRandomWaypointModel(large.velocity, 1.0), seed=0
        )
        assert sim.connectivity == "incremental"

    def test_fast_steps_fall_back_to_grid(self):
        # A step so large that nodes cross a sizable fraction of the
        # candidate margin each step cannot amortize validations; the
        # mobility-aware selection must fall back to the grid.
        assert (
            select_connectivity_method(
                300, 0.05, 1.0, velocity=0.05, dt=10.0
            )
            == "grid"
        )

    def test_static_network_prefers_incremental(self):
        assert (
            select_connectivity_method(300, 0.05, 1.0, velocity=0.0, dt=0.1)
            == "incremental"
        )

    def test_expanded_radius_density_guard(self):
        # Sparse enough for the plain grid but not for the expanded
        # candidate radius: stay on the grid.
        assert select_connectivity_method(500, 0.2, 1.0) == "grid"
        assert (
            select_connectivity_method(500, 0.2, 1.0, velocity=0.0, dt=0.1)
            == "grid"
        )

    def test_engine_rejects_unknown_connectivity(self):
        params = NetworkParameters.from_fractions(
            n_nodes=30, range_fraction=0.1, velocity_fraction=0.05
        )
        with pytest.raises(ValueError):
            Simulation(
                params,
                EpochRandomWaypointModel(params.velocity, 1.0),
                seed=0,
                connectivity="sparse",
            )


class TestEngineEdgeState:
    def _sim(self, n_nodes=80, connectivity="auto", seed=0):
        params = NetworkParameters.from_fractions(
            n_nodes=n_nodes, range_fraction=0.12, velocity_fraction=0.05
        )
        return Simulation(
            params,
            EpochRandomWaypointModel(params.velocity, 1.0),
            seed=seed,
            connectivity=connectivity,
        )

    def test_adjacency_view_matches_edges(self):
        sim = self._sim()
        for _ in range(5):
            sim.step()
            np.testing.assert_array_equal(
                sim.adjacency,
                edges_to_adjacency(sim.edges, sim.n_nodes),
            )
            np.testing.assert_array_equal(
                sim.adjacency,
                sim.region.adjacency(sim.positions, sim.params.tx_range),
            )

    def test_adjacency_cache_invalidated_per_step(self):
        sim = self._sim()
        before = sim.adjacency
        assert sim.adjacency is before  # cached within a step
        sim.step()
        assert sim.adjacency is not before

    def test_has_link_answers_from_edges_without_a_dense_build(self):
        sim = self._sim(n_nodes=60)
        for _ in range(3):
            sim.step()
            oracle = edges_to_adjacency(sim.edges, sim.n_nodes)
            for u in range(sim.n_nodes):
                for v in range(sim.n_nodes):
                    assert sim.has_link(u, v) == oracle[u, v]
            assert sim._adjacency_cache is None

    def test_dense_and_grid_engines_agree(self):
        dense = self._sim(connectivity="dense")
        grid = self._sim(connectivity="grid")
        for _ in range(5):
            dense_events = dense.step()
            grid_events = grid.step()
            np.testing.assert_array_equal(dense.edges, grid.edges)
            np.testing.assert_array_equal(
                dense_events.generated, grid_events.generated
            )
            np.testing.assert_array_equal(
                dense_events.broken, grid_events.broken
            )

    def test_edge_count_and_degrees(self):
        sim = self._sim()
        assert sim.edge_count == len(sim.edges)
        np.testing.assert_array_equal(
            sim.degrees(), degree_counts(sim.adjacency)
        )
        assert sim.degrees().sum() == 2 * sim.edge_count

    def test_failed_node_absent_from_edges(self):
        sim = self._sim()
        node = int(sim.degrees().argmax())
        sim.fail_node(node)
        sim.step()
        assert not np.any(sim.edges == node)
        assert sim.degree_of(node) == 0
        sim.recover_node(node)
        sim.step()
        assert sim.degree_of(node) > 0
