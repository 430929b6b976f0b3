"""Tests for cluster state and the sequential formation skeleton."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import ClusterState, Role, sequential_formation

from conftest import csr


class TestClusterState:
    def test_unassigned_fresh(self):
        state = ClusterState.unassigned(5)
        assert state.n_nodes == 5
        assert np.all(state.roles == Role.UNASSIGNED)
        assert np.all(state.head_of == -1)
        assert state.cluster_count() == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ClusterState.unassigned(0)

    def test_make_head_and_member(self):
        state = ClusterState.unassigned(4)
        state.make_head(0)
        state.make_member(1, 0)
        assert state.is_head(0)
        assert not state.is_head(1)
        assert state.head_of[1] == 0
        np.testing.assert_array_equal(state.members_of(0), [1])
        np.testing.assert_array_equal(state.cluster_nodes(0), [0, 1])

    def test_member_of_non_head_rejected(self):
        state = ClusterState.unassigned(3)
        with pytest.raises(ValueError):
            state.make_member(1, 0)

    def test_self_membership_rejected(self):
        state = ClusterState.unassigned(3)
        state.make_head(0)
        with pytest.raises(ValueError):
            state.make_member(0, 0)

    def test_head_ratio_and_sizes(self):
        state = ClusterState.unassigned(6)
        state.make_head(0)
        state.make_head(3)
        for node, head in [(1, 0), (2, 0), (4, 3), (5, 3)]:
            state.make_member(node, head)
        assert state.head_ratio() == pytest.approx(2 / 6)
        np.testing.assert_array_equal(state.cluster_sizes(), [3, 3])

    def test_same_cluster(self):
        state = ClusterState.unassigned(4)
        state.make_head(0)
        state.make_member(1, 0)
        state.make_head(2)
        assert state.same_cluster(0, 1)
        assert not state.same_cluster(1, 2)
        # Unassigned nodes belong to no cluster.
        assert not state.same_cluster(3, 3)

    def test_copy_is_deep(self):
        state = ClusterState.unassigned(3)
        state.make_head(0)
        clone = state.copy()
        clone.make_head(1)
        assert not state.is_head(1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ClusterState(np.zeros(3, dtype=np.int8), np.zeros(4, dtype=np.int64))


def _expected_sizes(state: ClusterState) -> np.ndarray:
    head_of = state.head_of
    return np.bincount(head_of[head_of >= 0], minlength=state.n_nodes)


class TestClusterSizes:
    """``sizes`` stays the per-head node count under every mutation."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mutations_keep_sizes_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        state = ClusterState.unassigned(n)
        np.testing.assert_array_equal(state.sizes, np.zeros(n))
        for _ in range(400):
            node = int(rng.integers(n))
            heads = state.heads()
            heads = heads[heads != node]
            if len(heads) and rng.uniform() < 0.7:
                state.make_member(node, int(rng.choice(heads)))
            else:
                state.make_head(node)
            np.testing.assert_array_equal(state.sizes, _expected_sizes(state))
            if rng.uniform() < 0.05:
                clone = state.copy()
                np.testing.assert_array_equal(clone.sizes, state.sizes)
                clone.make_head(node)
                np.testing.assert_array_equal(clone.sizes, _expected_sizes(clone))
                np.testing.assert_array_equal(state.sizes, _expected_sizes(state))

    def test_construction_from_arrays(self):
        roles = np.array([2, 1, 1, 2, 1, 0], dtype=np.int8)
        head_of = np.array([0, 0, 3, 3, 0, -1])
        state = ClusterState(roles, head_of)
        np.testing.assert_array_equal(state.sizes, [3, 0, 0, 2, 0, 0])
        np.testing.assert_array_equal(state.cluster_sizes(), [3, 2])

    def test_members_of_a_resigned_head_stay_counted(self):
        # A resigning head's former members keep pointing at it until
        # they re-affiliate; sizes counts them by head_of, not by role.
        state = ClusterState.unassigned(4)
        state.make_head(0)
        state.make_head(2)
        state.make_member(1, 0)
        state.make_member(0, 2)
        np.testing.assert_array_equal(state.sizes, [1, 0, 2, 0])
        np.testing.assert_array_equal(state.sizes, _expected_sizes(state))

    def test_formation_sizes_match_cluster_nodes(self, unit_open, rng):
        positions = unit_open.uniform_positions(80, rng)
        adjacency = unit_open.adjacency(positions, 0.2)
        state = sequential_formation(csr(adjacency), -np.arange(80, dtype=float))
        for head in state.heads():
            assert state.sizes[head] == len(state.cluster_nodes(int(head)))


def _assert_index_exact(state: ClusterState) -> None:
    """Every cluster read equals the ``O(N)`` scan it replaces."""
    everyone = np.arange(state.n_nodes)
    for head in set(state.head_of.tolist()) | set(state.heads().tolist()):
        expected = np.flatnonzero(state.head_of == head)
        nodes = state.cluster_nodes(head)
        assert nodes.dtype == np.int64 and not nodes.flags.writeable
        np.testing.assert_array_equal(nodes, expected)
        np.testing.assert_array_equal(
            state.members_of(head),
            np.flatnonzero((state.head_of == head) & (everyone != head)),
        )


class TestMemberIndex:
    """The member index stays in lockstep with ``head_of``."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        read_first=st.booleans(),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 11), st.integers(0, 11)),
            max_size=40,
        ),
    )
    def test_random_mutations_keep_the_index_exact(self, n, read_first, ops):
        state = ClusterState.unassigned(n)
        if read_first:  # build the index before any mutation
            _assert_index_exact(state)
        for member, node, pick in ops:
            node %= n
            heads = state.heads()
            heads = heads[heads != node]
            before = state.cluster_nodes(state.head_of.item(node))
            kept = before.copy()
            if member and len(heads):
                state.make_member(node, int(heads[pick % len(heads)]))
            else:
                state.make_head(node)
            np.testing.assert_array_equal(before, kept)  # reads are snapshots
            _assert_index_exact(state)
        _assert_index_exact(state.copy())

    def test_state_built_from_arrays(self):
        roles = np.array([2, 1, 1, 2, 1, 0], dtype=np.int8)
        head_of = np.array([0, 0, 3, 3, 0, -1])
        state = ClusterState(roles, head_of)
        _assert_index_exact(state)
        np.testing.assert_array_equal(state.cluster_nodes(0), [0, 1, 4])
        np.testing.assert_array_equal(state.cluster_nodes(-1), [5])
        np.testing.assert_array_equal(state.cluster_nodes(np.int64(3)), [2, 3])
        np.testing.assert_array_equal(state.cluster_nodes(1), [])
        state.make_member(5, 3)
        _assert_index_exact(state)


class TestSequentialFormation:
    def test_path_topology(self, small_adjacency):
        # Priorities = -index: node 0 first.
        priority = -np.arange(6, dtype=float)
        state = sequential_formation(csr(small_adjacency), priority)
        # 0 heads {0,1}; 2 heads {2,3}; 4 heads {4,5}.
        assert state.is_head(0) and state.head_of[1] == 0
        assert state.is_head(2) and state.head_of[3] == 2
        assert state.is_head(4) and state.head_of[5] == 4

    def test_star_topology_center_first(self):
        n = 5
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[0, 1:] = adjacency[1:, 0] = True
        priority = np.array([10.0, 1.0, 2.0, 3.0, 4.0])
        state = sequential_formation(csr(adjacency), priority)
        assert state.cluster_count() == 1
        assert state.is_head(0)
        np.testing.assert_array_equal(np.sort(state.members_of(0)), [1, 2, 3, 4])

    def test_isolated_nodes_become_heads(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        state = sequential_formation(csr(adjacency), np.array([3.0, 2.0, 1.0]))
        assert state.cluster_count() == 3

    def test_everyone_assigned(self, unit_open, rng):
        positions = unit_open.uniform_positions(120, rng)
        adjacency = unit_open.adjacency(positions, 0.15)
        state = sequential_formation(
            csr(adjacency), -rng.permutation(120).astype(float)
        )
        assert not np.any(state.roles == Role.UNASSIGNED)
        assert np.all(state.head_of >= 0)

    def test_member_joins_highest_priority_head(self):
        # Triangle 0-1-2 plus pendant 3 attached to 1 and 2.
        adjacency = np.zeros((4, 4), dtype=bool)
        for u, v in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]:
            adjacency[u, v] = adjacency[v, u] = True
        # Node 3 processed last, sees heads... 0 heads first, 1 and 2
        # join 0; 3 has no neighboring head (1,2 members) -> head.
        priority = np.array([4.0, 3.0, 2.0, 1.0])
        state = sequential_formation(csr(adjacency), priority)
        assert state.is_head(0)
        assert state.is_head(3)

    def test_duplicate_priorities_rejected(self, small_adjacency):
        with pytest.raises(ValueError, match="unique"):
            sequential_formation(csr(small_adjacency), np.ones(6))

    def test_priority_shape_mismatch(self, small_adjacency):
        with pytest.raises(ValueError):
            sequential_formation(csr(small_adjacency), np.arange(4, dtype=float))
