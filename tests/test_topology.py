"""Tests for clustered-topology structural metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.topology import (
    StructureSummary,
    backbone_graph,
    backbone_nodes,
    backbone_reachability,
    cluster_diameters,
    gateway_nodes,
    head_separations,
    summarize_structure,
)
from repro.clustering import (
    ClusterState,
    LowestIdClustering,
    MaxMinDCluster,
    Role,
)
from repro.spatial import Boundary, SquareRegion

from conftest import csr


@pytest.fixture
def clustered():
    region = SquareRegion(1.0, Boundary.OPEN)
    positions = region.uniform_positions(150, 5)
    adjacency = region.adjacency(positions, 0.15)
    state = LowestIdClustering().form(csr(adjacency))
    return region, positions, adjacency, state


class TestGateways:
    def test_gateways_are_members_with_foreign_neighbors(self, clustered):
        _, _, adjacency, state = clustered
        for node in gateway_nodes(state, csr(adjacency)):
            assert state.roles[node] == Role.MEMBER
            neighbors = np.flatnonzero(adjacency[node])
            assert np.any(state.head_of[neighbors] != state.head_of[node])

    def test_backbone_is_heads_union_gateways(self, clustered):
        _, _, adjacency, state = clustered
        backbone = set(backbone_nodes(state, csr(adjacency)).tolist())
        heads = set(state.heads().tolist())
        gateways = set(gateway_nodes(state, csr(adjacency)).tolist())
        assert backbone == heads | gateways


class TestBackboneGraph:
    def test_graph_nodes_match(self, clustered):
        _, _, adjacency, state = clustered
        graph = backbone_graph(state, csr(adjacency))
        assert set(graph.nodes) == set(backbone_nodes(state, csr(adjacency)).tolist())

    def test_edges_are_real_links(self, clustered):
        _, _, adjacency, state = clustered
        graph = backbone_graph(state, csr(adjacency))
        for u, v in graph.edges:
            assert adjacency[u, v]

    def test_reachability_near_one_for_dense_lid(self, clustered):
        _, _, adjacency, state = clustered
        value = backbone_reachability(state, csr(adjacency), samples=150, rng=0)
        assert value > 0.95

    def test_reachability_nan_for_isolated(self):
        adjacency = np.zeros((4, 4), dtype=bool)
        state = LowestIdClustering().form(csr(adjacency))
        import math

        assert math.isnan(
            backbone_reachability(state, csr(adjacency), samples=20, rng=0)
        )


class TestDiametersAndSeparation:
    def test_one_hop_diameters_at_most_two(self, clustered):
        _, _, adjacency, state = clustered
        diameters = cluster_diameters(state, csr(adjacency))
        assert np.all(diameters <= 2.0)

    def test_dhop_diameters_can_exceed_two(self):
        region = SquareRegion(1.0, Boundary.OPEN)
        positions = region.uniform_positions(200, 1)
        adjacency = region.adjacency(positions, 0.1)
        state = MaxMinDCluster(2).form(csr(adjacency))
        diameters = cluster_diameters(state, csr(adjacency))
        finite = diameters[np.isfinite(diameters)]
        assert np.max(finite) > 2.0

    def test_p1_implies_head_separation_beyond_range(self, clustered):
        region, positions, _, state = clustered
        separations = head_separations(state, positions, region)
        assert np.min(separations) > 0.15  # the transmission range

    def test_single_head_no_separations(self):
        adjacency = np.ones((3, 3), dtype=bool)
        np.fill_diagonal(adjacency, False)
        state = LowestIdClustering().form(csr(adjacency))
        region = SquareRegion(1.0, Boundary.OPEN)
        positions = region.uniform_positions(3, 0)
        assert len(head_separations(state, positions, region)) == 0


class TestSummary:
    def test_summary_fields_consistent(self, clustered):
        region, positions, adjacency, state = clustered
        summary = summarize_structure(
            state, csr(adjacency), positions, region, samples=100, rng=1
        )
        assert isinstance(summary, StructureSummary)
        assert summary.n_nodes == 150
        assert summary.cluster_count == state.cluster_count()
        assert summary.head_ratio == pytest.approx(state.head_ratio())
        assert summary.backbone_ratio >= summary.gateway_ratio
        assert summary.backbone_ratio >= summary.head_ratio
        assert summary.backbone_ratio <= summary.gateway_ratio + summary.head_ratio + 1e-12
        assert summary.max_cluster_diameter <= 2.0
        assert summary.min_head_separation > 0.15
