"""Tests for d-hop reactive cluster maintenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    DHopClusterMaintenanceProtocol,
    MaxMinDCluster,
    MobDHopClustering,
)
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import Simulation


def _dhop_sim(d=2, algorithm=None, n=80, vf=0.04, seed=0, rf=0.12):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=rf, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    maintenance = DHopClusterMaintenanceProtocol(
        algorithm or MobDHopClustering(d), d=d
    )
    sim.attach(maintenance)
    return sim, maintenance


class TestConstruction:
    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            DHopClusterMaintenanceProtocol(MobDHopClustering(2), d=0)

    def test_initial_structure_valid(self):
        sim, maintenance = _dhop_sim()
        assert maintenance.violations(sim) == []

    def test_works_with_maxmin(self):
        sim, maintenance = _dhop_sim(algorithm=MaxMinDCluster(2))
        assert maintenance.violations(sim) == []


class TestInvariantUnderMobility:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_p2d_holds_after_every_step(self, d):
        sim, maintenance = _dhop_sim(d=d, algorithm=MobDHopClustering(d), seed=d)
        for _ in range(100):
            sim.step()
            assert maintenance.violations(sim) == [], f"d={d}"

    def test_fast_mobility_stress(self):
        sim, maintenance = _dhop_sim(vf=0.15, seed=4)
        for _ in range(80):
            sim.step()
            assert maintenance.violations(sim) == []

    def test_under_node_failures(self):
        sim, maintenance = _dhop_sim(seed=5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            victim = int(rng.integers(0, sim.n_nodes))
            if sim.active[victim]:
                sim.fail_node(victim)
            for _ in range(5):
                sim.step()
                assert maintenance.violations(sim) == []


class TestRepairSemantics:
    def test_orphan_rehomes_or_becomes_head(self, set_link):
        sim, maintenance = _dhop_sim(vf=0.0, seed=6)
        state = maintenance.state
        # Find a member at depth >= 1 whose sole connection runs through
        # one bridge node: break that bridge link.
        for head in state.heads():
            head = int(head)
            members = state.members_of(head)
            for member in members:
                member = int(member)
                # Break every link of the member inside its cluster.
                cluster = set(int(x) for x in state.cluster_nodes(head))
                sim.stats.start_measuring()
                for neighbor in sim.neighbors_of(member).tolist():
                    if neighbor in cluster:
                        set_link(sim, member, neighbor, False)
                        maintenance.on_link_down(
                            sim, min(member, neighbor), max(member, neighbor), 0.0
                        )
                assert maintenance.violations(sim) == []
                assert sim.stats.message_count("cluster") >= 1
                # The orphan either switched clusters or heads one.
                assert (
                    state.head_of[member] != head
                    or state.is_head(member)
                )
                return
        pytest.skip("no member found")

    def test_cross_cluster_break_is_free(self, set_link):
        sim, maintenance = _dhop_sim(vf=0.0, seed=7)
        state = maintenance.state
        for u, v in sim.edges.tolist():
            if state.head_of[u] != state.head_of[v]:
                sim.stats.start_measuring()
                set_link(sim, u, v, False)
                maintenance.on_link_down(sim, u, v, 0.0)
                assert sim.stats.message_count("cluster") == 0
                return
        pytest.skip("no cross-cluster link")


class TestMaintenanceCost:
    def test_deeper_clusters_fewer_heads(self):
        """d=2 forms fewer clusters than d=1 on the same topology."""
        sim1, m1 = _dhop_sim(d=1, algorithm=MobDHopClustering(1), seed=8)
        sim2, m2 = _dhop_sim(d=2, algorithm=MobDHopClustering(2), seed=8)
        assert m2.cluster_count() < m1.cluster_count()

    def test_maintenance_traffic_measured(self):
        sim, maintenance = _dhop_sim(seed=9)
        sim.stats.start_measuring()
        for _ in range(200):
            sim.step()
        assert sim.stats.message_count("cluster") > 0
