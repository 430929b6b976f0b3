"""Tests for reactive cluster maintenance (the CLUSTER message source)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    ClusterMaintenanceProtocol,
    HighestConnectivityClustering,
    LowestIdClustering,
    Role,
    check_properties,
)
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import Simulation


def _sim_with_maintenance(n=80, rf=0.18, vf=0.05, seed=0, algorithm=None):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=rf, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    maintenance = ClusterMaintenanceProtocol(algorithm or LowestIdClustering())
    sim.attach(maintenance)
    return sim, maintenance


class TestFormationOnAttach:
    def test_initial_state_valid(self):
        sim, maintenance = _sim_with_maintenance()
        assert check_properties(maintenance.state, sim.adjacency).ok

    def test_head_ratio_accessors(self):
        sim, maintenance = _sim_with_maintenance()
        assert maintenance.head_ratio() == pytest.approx(
            maintenance.cluster_count() / sim.n_nodes
        )


class TestInvariantPreservation:
    """The core maintenance guarantee: P1/P2 hold after every step."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lid_stays_valid_under_mobility(self, seed):
        sim, maintenance = _sim_with_maintenance(seed=seed)
        for _ in range(150):
            sim.step()
            violations = check_properties(maintenance.state, sim.adjacency)
            assert violations.ok, violations.describe()

    def test_hcc_stays_valid_under_mobility(self):
        sim, maintenance = _sim_with_maintenance(
            algorithm=HighestConnectivityClustering(), seed=3
        )
        for _ in range(100):
            sim.step()
            violations = check_properties(maintenance.state, sim.adjacency)
            assert violations.ok, violations.describe()

    def test_fast_mobility_stress(self):
        sim, maintenance = _sim_with_maintenance(vf=0.2, seed=4)
        for _ in range(100):
            sim.step()
            assert check_properties(maintenance.state, sim.adjacency).ok


class TestMessageAccounting:
    def test_no_messages_without_cluster_changes(self):
        # Static network: no link events, no CLUSTER messages.
        sim, maintenance = _sim_with_maintenance(vf=0.0)
        sim.stats.start_measuring()
        for _ in range(20):
            sim.step()
        assert sim.stats.message_count("cluster") == 0

    def test_messages_recorded_under_mobility(self):
        sim, maintenance = _sim_with_maintenance(seed=5)
        sim.stats.start_measuring()
        for _ in range(200):
            sim.step()
        assert sim.stats.message_count("cluster") > 0
        assert sim.stats.bit_count("cluster") == pytest.approx(
            sim.stats.message_count("cluster")
            * sim.params.messages.p_cluster
        )

    def test_member_head_break_sends_one_message(self):
        """Manufacture a member-head break and count exactly 1 CLUSTER."""
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=6)
        state = maintenance.state
        members = np.flatnonzero(state.roles == Role.MEMBER)
        # Find a member with another head in range (so it re-affiliates
        # rather than becoming a head; either way it is one message).
        member = int(members[0])
        head = int(state.head_of[member])
        sim.adjacency[member, head] = sim.adjacency[head, member] = False
        sim.stats.start_measuring()
        maintenance.on_link_down(sim, min(member, head), max(member, head), 0.0)
        assert sim.stats.message_count("cluster") == 1
        # The member found a new affiliation.
        assert state.head_of[member] != head or state.is_head(member)

    def test_head_merge_sends_cluster_size_messages(self):
        """A P1 violation re-affiliates the loser's whole cluster."""
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=7)
        state = maintenance.state
        heads = state.heads()
        assert len(heads) >= 2
        # Pick the two heads and force a link-up between them.
        winner, loser = int(heads[0]), int(heads[1])  # lid: lower id wins
        loser_cluster_size = len(state.cluster_nodes(loser))
        sim.adjacency[winner, loser] = sim.adjacency[loser, winner] = True
        sim.stats.start_measuring()
        maintenance.on_link_up(sim, winner, loser, 0.0)
        # Loser resigns (1 message) + each former member re-affiliates.
        assert sim.stats.message_count("cluster") == loser_cluster_size
        assert not state.is_head(loser)
        assert check_properties(maintenance.state, sim.adjacency).ok

    def test_irrelevant_link_events_are_free(self):
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=8)
        state = maintenance.state
        members = np.flatnonzero(state.roles == Role.MEMBER)
        # A link between two members of different clusters is ignored.
        pairs = [
            (int(a), int(b))
            for i, a in enumerate(members)
            for b in members[i + 1 :]
            if state.head_of[a] != state.head_of[b]
        ]
        if not pairs:
            pytest.skip("topology produced no cross-cluster member pair")
        u, v = pairs[0]
        sim.stats.start_measuring()
        sim.adjacency[u, v] = sim.adjacency[v, u] = True
        maintenance.on_link_up(sim, min(u, v), max(u, v), 0.0)
        assert sim.stats.message_count("cluster") == 0


class TestChangeListeners:
    def test_listener_fires_per_affected_node(self):
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=9)
        state = maintenance.state
        heads = state.heads()
        winner, loser = int(heads[0]), int(heads[1])
        changed = []
        maintenance.add_change_listener(
            lambda _sim, node, _time: changed.append(node)
        )
        loser_cluster = set(int(x) for x in state.cluster_nodes(loser))
        sim.adjacency[winner, loser] = sim.adjacency[loser, winner] = True
        maintenance.on_link_up(sim, winner, loser, 0.0)
        assert set(changed) == loser_cluster

    def test_lcc_member_does_not_switch_heads(self):
        """LCC: a member gaining a link to a better head stays put."""
        sim, maintenance = _sim_with_maintenance(vf=0.0, seed=10)
        state = maintenance.state
        members = np.flatnonzero(state.roles == Role.MEMBER)
        heads = state.heads()
        for member in members:
            for head in heads:
                if head != state.head_of[member] and not sim.adjacency[member, head]:
                    sim.adjacency[member, head] = True
                    sim.adjacency[head, member] = True
                    before = int(state.head_of[member])
                    maintenance.on_link_up(
                        sim, min(member, head), max(member, head), 0.0
                    )
                    assert int(state.head_of[member]) == before
                    return
        pytest.skip("no member/foreign-head pair available")


class _HeadPairRefreshReference(ClusterMaintenanceProtocol):
    """Reference link-up rule: ``Role`` enum reads, no early return.

    HCC's live-degree priority is refreshed on a link generation between
    two heads, and only there; every other repair reads the vector from
    the latest such refresh.
    """

    name = "cluster-maintenance-reference"

    def on_link_up(self, sim, u, v, time):
        state = self.state
        if (
            self.dynamic_priority
            and state.roles[u] == Role.HEAD
            and state.roles[v] == Role.HEAD
        ):
            self._priority = np.asarray(
                self.algorithm.head_priority(sim.adjacency), dtype=float
            )
        if state.roles[u] == Role.HEAD and state.roles[v] == Role.HEAD:
            if self._priority[u] >= self._priority[v]:
                self._resign_head(sim, v, u, time)
            else:
                self._resign_head(sim, u, v, time)


def _hcc_pair(vf, seed):
    """An HCC sim with the maintenance protocol and the reference rule."""
    sim, maintenance = _sim_with_maintenance(
        vf=vf, seed=seed, algorithm=HighestConnectivityClustering()
    )
    maintenance.dynamic_priority = True
    reference = _HeadPairRefreshReference(
        HighestConnectivityClustering(), dynamic_priority=True
    )
    sim.attach(reference)
    return sim, maintenance, reference


def _assert_same_structure(a, b):
    np.testing.assert_array_equal(a.state.roles, b.state.roles)
    np.testing.assert_array_equal(a.state.head_of, b.state.head_of)
    np.testing.assert_array_equal(a._priority, b._priority)


class TestHccPriorityRefresh:
    """HCC (``dynamic_priority``) repairs match the reference rule."""

    def test_stale_priority_ranks_p2_candidates(self):
        """Non-head link-ups leave the priority; a P2 repair then uses it."""
        sim, maintenance, reference = _hcc_pair(vf=0.0, seed=11)
        state = maintenance.state
        adjacency = sim.adjacency
        stale = maintenance._priority.copy()

        def link_up(u, v):
            adjacency[u, v] = adjacency[v, u] = True
            for protocol in (maintenance, reference):
                protocol.on_link_up(sim, min(u, v), max(u, v), 0.0)

        heads = [int(h) for h in state.heads()]
        members = [int(m) for m in np.flatnonzero(state.roles == Role.MEMBER)]
        # An orphan-to-be with two other heads in range: B ranks first
        # by the stale priority among all of its candidate heads.
        orphan = members[0]
        own = int(state.head_of[orphan])
        others = [h for h in heads if h != own]
        for head in others[:2]:
            if not adjacency[orphan, head]:
                link_up(orphan, head)
        candidates = [h for h in others if adjacency[orphan, h]]
        b = max(candidates, key=lambda h: stale[h])
        a = next(h for h in candidates if h != b)
        # Member links raise A's live degree above B's: non-head
        # generations, so no priority refresh.
        degree = adjacency.sum(axis=1)
        for member in members:
            if degree[a] > degree[b]:
                break
            if member != orphan and not adjacency[a, member]:
                link_up(a, member)
                degree = adjacency.sum(axis=1)
        fresh = HighestConnectivityClustering().head_priority(adjacency)
        assert fresh[a] > fresh[b] and stale[b] > stale[a]
        np.testing.assert_array_equal(maintenance._priority, stale)
        _assert_same_structure(maintenance, reference)

        adjacency[orphan, own] = adjacency[own, orphan] = False
        for protocol in (maintenance, reference):
            protocol.on_link_down(sim, min(orphan, own), max(orphan, own), 0.0)
        assert int(state.head_of[orphan]) == b
        _assert_same_structure(maintenance, reference)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_under_mobility(self, seed):
        sim, maintenance, reference = _hcc_pair(vf=0.2, seed=seed)
        refreshes = 0
        previous = maintenance._priority
        for _ in range(120):
            sim.step()
            _assert_same_structure(maintenance, reference)
            refreshes += maintenance._priority is not previous
            previous = maintenance._priority
        assert refreshes > 0
