"""Tests for the edge-set connectivity representation.

The engine's primary connectivity state is a sorted ``(E, 2)`` edge
array; these tests pin its exact equivalence to the dense adjacency
representation — conversions roundtrip, ``diff_edge_sets`` produces the
same events as ``diff_adjacency``, the KD-tree sweep yields the dense
metric's edge set, and the engine's lazy neighbor views stay consistent with
its edge state (including under node failure).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import Simulation
from repro.spatial import (
    Boundary,
    SquareRegion,
    adjacency_to_edges,
    compute_edges,
    degree_counts,
    degree_counts_from_edges,
    diff_adjacency,
    diff_edge_sets,
    edges_to_adjacency,
    pairs_within,
)
from repro.spatial.neighbors import _pair_distances


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


@st.composite
def _layouts(draw):
    """A region, raw positions and a range for the tree-vs-dense test.

    Coordinates include the square's borders (on the torus a coordinate
    equal to ``side``, and ``-1e-18 * side``, which ``np.mod`` rounds up
    to ``side``), OPEN positions reach outside the square, some nodes
    are copies of others and some pairs sit exactly ``r`` apart along
    an axis.
    """
    boundary = draw(st.sampled_from(list(Boundary)))
    side = draw(st.sampled_from([1.0, 1.0 / 3.0, 1000.0]))
    radius = draw(st.floats(1e-3, 1.5)) * side
    low, high = (-0.5, 1.5) if boundary is Boundary.OPEN else (0.0, 1.0)
    borders = st.sampled_from([0.0, 1.0, -1e-18])
    coordinate = st.one_of(st.floats(low, high), borders)
    n = draw(st.integers(0, 60))
    unit = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n)
    )
    positions = np.array(unit, dtype=float).reshape(n, 2) * side
    if n:
        node = st.integers(0, n - 1)
        for a, b in draw(st.lists(st.tuples(node, node), max_size=4)):
            positions[a] = positions[b]
        for a, b in draw(st.lists(st.tuples(node, node), max_size=4)):
            x = positions[b, 0] + radius
            if boundary is Boundary.OPEN or x <= side:
                positions[a] = (x, positions[b, 1])
    return SquareRegion(side, boundary), positions, radius


class TestComputeEdges:
    @pytest.mark.parametrize("boundary", [Boundary.TORUS, Boundary.OPEN])
    def test_dense_equals_tree(self, boundary):
        region = SquareRegion(1.0, boundary)
        positions = region.uniform_positions(200, 7)
        dense = compute_edges(region, positions, 0.1, method="dense")
        tree = compute_edges(region, positions, 0.1, method="tree")
        np.testing.assert_array_equal(dense, tree)

    @given(_layouts())
    @settings(max_examples=300, deadline=None)
    def test_tree_equals_dense_and_is_canonical(self, layout):
        region, positions, radius = layout
        tree = compute_edges(region, positions, radius, method="tree")
        dense = compute_edges(region, positions, radius, method="dense")
        np.testing.assert_array_equal(tree, dense)
        assert tree.shape == (len(tree), 2)
        assert np.all(tree[:, 0] < tree[:, 1])
        keys = tree[:, 0] * len(positions) + tree[:, 1]
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("boundary", [Boundary.TORUS, Boundary.OPEN])
    @pytest.mark.parametrize("side", [1.0, 1.0 / 3.0, 1000.0])
    def test_pair_exactly_at_the_radius(self, boundary, side):
        # The KD-tree compares squared distances, which can round above
        # radius ** 2 for a pair whose bit-exact distance equals the
        # radius; without the query slack it drops about a quarter of
        # these pairs.
        region = SquareRegion(side, boundary)
        rng = np.random.default_rng(31)
        pair = np.array([0]), np.array([1])
        for k in range(200):
            first = rng.random(2) * side
            if k % 2:
                second = first + rng.uniform(-0.05, 0.05, 2) * side
            else:
                second = rng.random(2) * side
            positions = np.array([first, second])
            if boundary is Boundary.TORUS:
                positions %= side
            radius = float(_pair_distances(region, positions, *pair)[0])
            i, j, dist = pairs_within(region, positions, radius)
            assert (i.tolist(), j.tolist(), dist.tolist()) == (
                [0], [1], [radius]
            )
            np.testing.assert_array_equal(
                compute_edges(region, positions, radius, method="tree"),
                compute_edges(region, positions, radius, method="dense"),
            )

    @pytest.mark.parametrize("method", ["tree", "dense"])
    def test_negative_range_rejected(self, unit_torus, method):
        positions = unit_torus.uniform_positions(10, 0)
        with pytest.raises(ValueError, match="tx_range must be non-negative"):
            compute_edges(unit_torus, positions, -0.1, method=method)

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


class TestEngineEdgeState:
    def _sim(self, n_nodes=80, seed=0):
        params = NetworkParameters.from_fractions(
            n_nodes=n_nodes, range_fraction=0.12, velocity_fraction=0.05
        )
        return Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
        )

    def test_adjacency_view_matches_edges(self):
        sim = self._sim()
        for _ in range(5):
            sim.step()
            dense = sim.region.adjacency(sim.positions, sim.params.tx_range)
            np.testing.assert_array_equal(
                edges_to_adjacency(sim.edges, sim.n_nodes), dense
            )
            for node in range(sim.n_nodes):
                np.testing.assert_array_equal(
                    sim.neighbors_of(node), np.flatnonzero(dense[node])
                )

    def test_neighbor_views_invalidated_per_step(self):
        sim = self._sim()
        csr, lists = sim.neighbor_csr, sim.adjacency_lists
        # Cached within a step.
        assert sim.neighbor_csr is csr and sim.adjacency_lists is lists
        sim.step()
        assert sim.neighbor_csr is not csr and sim.adjacency_lists is not lists

    def test_has_link_answers_from_edges_without_a_dense_build(self):
        sim = self._sim(n_nodes=60)
        for _ in range(3):
            sim.step()
            oracle = edges_to_adjacency(sim.edges, sim.n_nodes)
            for u in range(sim.n_nodes):
                for v in range(sim.n_nodes):
                    assert sim.has_link(u, v) == oracle[u, v]
            # The sorted edge keys answer it: no neighbor view is built.
            assert sim._neighbor_csr is None

    def test_edge_count_and_degrees(self):
        sim = self._sim()
        assert sim.edge_count == len(sim.edges)
        np.testing.assert_array_equal(
            sim.degrees(),
            degree_counts(edges_to_adjacency(sim.edges, sim.n_nodes)),
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
