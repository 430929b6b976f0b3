"""Tests for the clustering algorithm implementations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    DmacClustering,
    HighestConnectivityClustering,
    LinkedClusterArchitecture,
    LowestIdClustering,
    MaxMinDCluster,
    MobDHopClustering,
    Role,
    check_properties,
    relative_mobility,
)
from repro.spatial import Boundary, SquareRegion

from conftest import csr


def _random_topology(n=150, r=0.14, seed=0):
    region = SquareRegion(1.0, Boundary.OPEN)
    positions = region.uniform_positions(n, seed)
    return region.adjacency(positions, r), positions


class TestLowestId:
    def test_lowest_id_in_component_is_head(self):
        adjacency, _ = _random_topology(seed=1)
        state = LowestIdClustering().form(csr(adjacency))
        # Node 0 has the globally lowest id: always a head.
        assert state.is_head(0)

    def test_satisfies_p1_p2(self):
        for seed in range(5):
            adjacency, _ = _random_topology(seed=seed)
            state = LowestIdClustering().form(csr(adjacency))
            assert check_properties(state, csr(adjacency)).ok

    def test_member_joins_lowest_id_head(self):
        # Star: center 2 with leaves 0, 1, 3 — 0 and 1 not adjacent.
        adjacency = np.zeros((4, 4), dtype=bool)
        for leaf in (0, 1, 3):
            adjacency[2, leaf] = adjacency[leaf, 2] = True
        state = LowestIdClustering().form(csr(adjacency))
        # 0 is head; 2 joins 0; 1 and 3 have no head neighbor -> heads.
        assert state.is_head(0)
        assert state.head_of[2] == 0
        assert state.is_head(1) and state.is_head(3)

    def test_custom_ids_change_outcome(self):
        adjacency = np.zeros((2, 2), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        default = LowestIdClustering().form(csr(adjacency))
        assert default.is_head(0)
        swapped = LowestIdClustering(ids=np.array([5, 1])).form(csr(adjacency))
        assert swapped.is_head(1)
        assert swapped.head_of[0] == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            LowestIdClustering(ids=np.array([1, 1, 2]))

    def test_id_count_mismatch(self):
        algorithm = LowestIdClustering(ids=np.arange(5))
        with pytest.raises(ValueError):
            algorithm.form(csr(np.zeros((3, 3), dtype=bool)))

    def test_matches_paper_head_criterion(self):
        """A node is a head iff every lower-id closed-neighbor is a
        member of another cluster (the Section 5 criterion)."""
        adjacency, _ = _random_topology(n=80, seed=3)
        state = LowestIdClustering().form(csr(adjacency))
        for node in range(80):
            lower_neighbors = [
                v for v in np.flatnonzero(adjacency[node]) if v < node
            ]
            if state.is_head(node):
                for neighbor in lower_neighbors:
                    assert state.roles[neighbor] == Role.MEMBER
                    assert state.head_of[neighbor] != node


class TestHighestConnectivity:
    def test_satisfies_p1_p2(self):
        for seed in range(5):
            adjacency, _ = _random_topology(seed=seed)
            state = HighestConnectivityClustering().form(csr(adjacency))
            assert check_properties(state, csr(adjacency)).ok

    def test_max_degree_node_is_head(self):
        adjacency, _ = _random_topology(seed=7)
        degrees = adjacency.sum(axis=1)
        best = int(np.argmax(degrees))
        state = HighestConnectivityClustering().form(csr(adjacency))
        assert state.is_head(best)

    def test_star_center_wins(self):
        adjacency = np.zeros((5, 5), dtype=bool)
        adjacency[4, :4] = adjacency[:4, 4] = True
        state = HighestConnectivityClustering().form(csr(adjacency))
        assert state.is_head(4)
        assert state.cluster_count() == 1

    def test_degree_ties_break_by_lower_id(self):
        # Two disconnected edges: all degrees 1; lower ids head.
        adjacency = np.zeros((4, 4), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        adjacency[2, 3] = adjacency[3, 2] = True
        state = HighestConnectivityClustering().form(csr(adjacency))
        assert state.is_head(0) and state.is_head(2)


class TestDmac:
    def test_satisfies_p1_p2(self):
        adjacency, _ = _random_topology(seed=2)
        state = DmacClustering(seed=3).form(csr(adjacency))
        assert check_properties(state, csr(adjacency)).ok

    def test_highest_weight_is_head(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        adjacency[1, 2] = adjacency[2, 1] = True
        weights = np.array([0.1, 0.9, 0.5])
        state = DmacClustering(weights=weights).form(csr(adjacency))
        assert state.is_head(1)
        assert state.head_of[0] == 1 and state.head_of[2] == 1

    def test_weight_count_mismatch(self):
        algorithm = DmacClustering(weights=np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            algorithm.form(csr(np.zeros((3, 3), dtype=bool)))

    def test_deterministic_for_seed(self):
        adjacency, _ = _random_topology(seed=4)
        a = DmacClustering(seed=9).form(csr(adjacency))
        b = DmacClustering(seed=9).form(csr(adjacency))
        np.testing.assert_array_equal(a.roles, b.roles)
        np.testing.assert_array_equal(a.head_of, b.head_of)


class TestMaxMin:
    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            MaxMinDCluster(0)

    def test_everyone_assigned(self):
        adjacency, _ = _random_topology(seed=5)
        state = MaxMinDCluster(2).form(csr(adjacency))
        assert np.all(state.head_of >= 0)
        assert not np.any(state.roles == Role.UNASSIGNED)

    def test_members_within_d_hops(self):
        import networkx as nx

        adjacency, _ = _random_topology(n=100, seed=6)
        d = 2
        state = MaxMinDCluster(d).form(csr(adjacency))
        graph = nx.from_numpy_array(adjacency)
        for node in range(100):
            head = int(state.head_of[node])
            if head != node:
                assert nx.shortest_path_length(graph, node, head) <= d

    def test_fewer_clusters_than_one_hop(self):
        adjacency, _ = _random_topology(n=200, r=0.1, seed=7)
        one_hop = LowestIdClustering().form(csr(adjacency)).cluster_count()
        two_hop = MaxMinDCluster(2).form(csr(adjacency)).cluster_count()
        assert two_hop <= one_hop

    def test_isolated_node_is_its_own_head(self):
        adjacency = np.zeros((4, 4), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        state = MaxMinDCluster(2).form(csr(adjacency))
        assert state.is_head(2) and state.is_head(3)


class TestLca:
    def test_highest_id_is_head(self):
        adjacency, _ = _random_topology(seed=8)
        state = LinkedClusterArchitecture().form(csr(adjacency))
        assert state.is_head(len(adjacency) - 1)

    def test_everyone_assigned_and_members_adjacent(self):
        adjacency, _ = _random_topology(seed=9)
        state = LinkedClusterArchitecture().form(csr(adjacency))
        violations = check_properties(state, csr(adjacency))
        # LCA guarantees P2-style affiliation but not P1.
        assert not violations.unaffiliated
        assert not violations.detached_members
        assert not violations.dangling_members

    def test_rule2_orphan_rescue(self):
        # Path 0-1-2: node 2 heads (highest); node 0's neighborhood max
        # is 1, so 1 must head too (rule 2), else 0 would be orphaned.
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        adjacency[1, 2] = adjacency[2, 1] = True
        state = LinkedClusterArchitecture().form(csr(adjacency))
        assert state.is_head(2)
        assert state.is_head(1)
        assert state.head_of[0] == 1


class TestMobDHop:
    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            MobDHopClustering(0)

    def test_everyone_assigned(self):
        adjacency, _ = _random_topology(seed=10)
        state = MobDHopClustering(2).form(csr(adjacency))
        assert np.all(state.head_of >= 0)

    def test_members_within_d_hops(self):
        import networkx as nx

        adjacency, _ = _random_topology(n=100, seed=11)
        state = MobDHopClustering(3).form(csr(adjacency))
        graph = nx.from_numpy_array(adjacency)
        for node in range(100):
            head = int(state.head_of[node])
            if head != node:
                assert nx.shortest_path_length(graph, node, head) <= 3

    def test_stable_nodes_become_heads(self):
        # Two snapshots: nodes 0,1 static; node 2 moves fast near them.
        adjacency = np.ones((3, 3), dtype=bool)
        np.fill_diagonal(adjacency, False)
        snapshots = [
            np.array([[0.0, 0.0], [0.05, 0.0], [0.1, 0.0]]),
            np.array([[0.0, 0.0], [0.05, 0.0], [0.4, 0.0]]),
        ]
        state = MobDHopClustering(1, snapshots=snapshots).form(csr(adjacency))
        # The most stable node (0 or 1) heads; both 0 and 1 have equal
        # stability... node 2's movement makes it least stable.
        head = int(state.heads()[0])
        assert head in (0, 1)

    def test_merge_threshold_blocks_unstable_links(self):
        adjacency = np.ones((2, 2), dtype=bool)
        np.fill_diagonal(adjacency, False)
        snapshots = [
            np.array([[0.0, 0.0], [0.1, 0.0]]),
            np.array([[0.0, 0.0], [0.5, 0.0]]),
        ]
        state = MobDHopClustering(
            1, snapshots=snapshots, merge_threshold=0.1
        ).form(csr(adjacency))
        # Relative mobility 0.4 exceeds the threshold: two singletons.
        assert state.cluster_count() == 2

    def test_relative_mobility_requires_two_snapshots(self):
        with pytest.raises(ValueError):
            relative_mobility([np.zeros((2, 2))], csr(np.ones((2, 2), dtype=bool)))

    def test_relative_mobility_values(self):
        adjacency = np.ones((2, 2), dtype=bool)
        np.fill_diagonal(adjacency, False)
        snapshots = [
            np.array([[0.0, 0.0], [0.1, 0.0]]),
            np.array([[0.0, 0.0], [0.3, 0.0]]),
            np.array([[0.0, 0.0], [0.2, 0.0]]),
        ]
        mobility = relative_mobility(snapshots, csr(adjacency))
        # One value per CSR entry: (0, 1) then (1, 0).  Mean |distance
        # change| = (0.2 + 0.1) / 2.
        assert mobility == pytest.approx([0.15, 0.15])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.05, max_value=0.5),
    st.integers(min_value=0, max_value=500),
)
def test_one_hop_algorithms_always_valid_property(n, r, seed):
    """LID/HCC/DMAC formations satisfy P1+P2 on any random topology."""
    region = SquareRegion(1.0, Boundary.OPEN)
    positions = region.uniform_positions(n, seed)
    adjacency = region.adjacency(positions, r)
    for algorithm in (
        LowestIdClustering(),
        HighestConnectivityClustering(),
        DmacClustering(seed=seed),
    ):
        state = algorithm.form(csr(adjacency))
        assert check_properties(state, csr(adjacency)).ok
