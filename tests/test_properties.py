"""Tests for the P1/P2 property validators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusterState, assert_valid, check_properties

from conftest import csr


def _two_cluster_state(n=6):
    state = ClusterState.unassigned(n)
    state.make_head(0)
    state.make_member(1, 0)
    state.make_member(2, 0)
    state.make_head(3)
    state.make_member(4, 3)
    state.make_member(5, 3)
    return state


class TestCheckProperties:
    def test_valid_structure(self, small_adjacency):
        # small_adjacency: 0-1-2-3-4, 3-5, 4-5.
        state = ClusterState.unassigned(6)
        state.make_head(0)
        state.make_member(1, 0)
        state.make_head(2)
        state.make_member(3, 2)
        state.make_head(4)  # adjacent to 3? 3-4 yes but 3 is member: fine
        state.make_member(5, 4)
        violations = check_properties(state, csr(small_adjacency))
        assert violations.ok
        assert violations.describe().startswith("cluster structure satisfies")

    def test_p1_adjacent_heads(self, small_adjacency):
        state = _two_cluster_state()
        # Heads 0 and 3 are not adjacent in small_adjacency (0-1-2-3),
        # so make 2 a head adjacent to 3.
        state.make_head(2)
        violations = check_properties(state, csr(small_adjacency))
        assert (2, 3) in violations.adjacent_heads
        assert not violations.ok

    def test_p2_unaffiliated(self, small_adjacency):
        state = _two_cluster_state()
        state.roles[5] = 0  # Role.UNASSIGNED
        state.head_of[5] = -1
        violations = check_properties(state, csr(small_adjacency))
        assert 5 in violations.unaffiliated

    def test_p2_detached_member(self, small_adjacency):
        state = ClusterState.unassigned(6)
        state.make_head(0)
        for node in range(1, 6):
            state.make_member(node, 0)  # nodes 2..5 are not neighbors of 0
        violations = check_properties(state, csr(small_adjacency))
        assert set(violations.detached_members) == {2, 3, 4, 5}

    def test_p2_dangling_member(self, small_adjacency):
        state = _two_cluster_state()
        # Demote head 0 without re-homing member 1.
        state.roles[0] = 1  # Role.MEMBER
        state.head_of[0] = 3
        violations = check_properties(state, csr(small_adjacency))
        assert 1 in violations.dangling_members

    def test_dense_matrix_entry_matches_csr(self, small_adjacency):
        # The frozen benchmark's structure check passes a dense matrix.
        state = _two_cluster_state()
        state.make_head(2)
        state.roles[5] = 0  # Role.UNASSIGNED
        dense = check_properties(state, small_adjacency)
        assert not dense.ok
        assert dense == check_properties(state, csr(small_adjacency))

    def test_shape_mismatch_rejected(self):
        state = ClusterState.unassigned(4)
        with pytest.raises(ValueError):
            check_properties(state, csr(np.zeros((3, 3), dtype=bool)))


class TestAssertValid:
    def test_passes_on_valid(self, small_adjacency):
        state = ClusterState.unassigned(6)
        for node in range(6):
            state.make_head(node)
        # All heads adjacent -> P1 violated; build a valid one instead.
        state = ClusterState.unassigned(6)
        state.make_head(0)
        state.make_member(1, 0)
        state.make_head(2)
        state.make_member(3, 2)
        state.make_head(4)
        state.make_member(5, 4)
        assert_valid(state, csr(small_adjacency))  # does not raise

    def test_raises_with_description(self, small_adjacency):
        state = ClusterState.unassigned(6)
        for node in range(6):
            state.make_head(node)
        with pytest.raises(AssertionError, match="P1"):
            assert_valid(state, csr(small_adjacency))
