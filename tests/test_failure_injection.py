"""Failure-injection tests: node crashes and recoveries.

The engine's `fail_node`/`recover_node` mask a node's radio; protocols
observe plain link events and must keep their invariants.  These tests
crash cluster-heads, partition whole regions, and recover nodes, and
assert the stack survives every scenario.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    ClusterMaintenanceProtocol,
    LowestIdClustering,
    Role,
    check_properties,
)
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import (
    AodvProtocol,
    DsdvProtocol,
    HybridRoutingProtocol,
    IntraClusterRoutingProtocol,
)
from repro.sim import HelloProtocol, Simulation


def _clustered_stack(n=80, vf=0.02, seed=0):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=0.2, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    sim.attach(HelloProtocol("event"))
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    intra = IntraClusterRoutingProtocol(maintenance)
    sim.attach(intra)
    sim.attach(maintenance)
    hybrid = sim.attach(HybridRoutingProtocol(maintenance, intra))
    return sim, maintenance, intra, hybrid


class TestEngineFailureSemantics:
    def test_failed_node_loses_links_next_step(self):
        sim, *_ = _clustered_stack(vf=0.0)
        node = 0
        assert sim.degree_of(node) > 0
        sim.fail_node(node)
        events = sim.step()
        assert sim.degree_of(node) == 0
        assert any(node in pair for pair in events.broken)

    def test_failed_nodes_listed(self):
        sim, *_ = _clustered_stack()
        sim.fail_node(3)
        sim.fail_node(7)
        np.testing.assert_array_equal(sim.failed_nodes, [3, 7])

    def test_recovery_restores_links(self):
        sim, *_ = _clustered_stack(vf=0.0)
        node = 0
        before = sim.degree_of(node)
        sim.fail_node(node)
        sim.step()
        sim.recover_node(node)
        sim.step()
        assert sim.degree_of(node) == before

    def test_failed_pairs_generate_no_events(self):
        sim, *_ = _clustered_stack(vf=0.0)
        sim.fail_node(0)
        sim.step()
        events = sim.step()
        assert not any(0 in pair for pair in events.broken)
        assert not any(0 in pair for pair in events.generated)


class TestClusteringUnderFailure:
    def test_head_crash_reclusters_members(self):
        sim, maintenance, *_ = _clustered_stack(vf=0.0, seed=1)
        state = maintenance.state
        # Crash the head with the most members.
        heads = state.heads()
        victim = max(
            (int(h) for h in heads), key=lambda h: len(state.members_of(h))
        )
        orphans = [int(m) for m in state.members_of(victim)]
        assert orphans, "pick a head with members"
        sim.fail_node(victim)
        sim.step()
        violations = check_properties(maintenance.state, sim.neighbor_csr)
        assert violations.ok, violations.describe()
        for orphan in orphans:
            assert state.head_of[orphan] != victim or state.is_head(orphan)
        # The crashed node itself degraded to an isolated head.
        assert state.is_head(victim)

    def test_mass_failure_keeps_invariants(self):
        sim, maintenance, *_ = _clustered_stack(vf=0.02, seed=2)
        rng = np.random.default_rng(0)
        victims = rng.choice(sim.n_nodes, size=sim.n_nodes // 3, replace=False)
        for victim in victims:
            sim.fail_node(int(victim))
        for _ in range(30):
            sim.step()
            assert check_properties(maintenance.state, sim.neighbor_csr).ok

    def test_crash_recover_cycle_invariants(self):
        sim, maintenance, *_ = _clustered_stack(vf=0.02, seed=3)
        rng = np.random.default_rng(1)
        for round_index in range(10):
            node = int(rng.integers(0, sim.n_nodes))
            if sim.active[node]:
                sim.fail_node(node)
            else:
                sim.recover_node(node)
            for _ in range(5):
                sim.step()
                violations = check_properties(
                    maintenance.state, sim.neighbor_csr
                )
                assert violations.ok, violations.describe()

    def test_recovered_head_rejoins_cleanly(self):
        sim, maintenance, *_ = _clustered_stack(vf=0.0, seed=4)
        state = maintenance.state
        victim = int(state.heads()[0])
        sim.fail_node(victim)
        sim.step()
        sim.recover_node(victim)
        sim.step()
        assert check_properties(maintenance.state, sim.neighbor_csr).ok


class TestRoutingUnderFailure:
    def test_hybrid_reroutes_around_crash(self):
        sim, maintenance, intra, hybrid = _clustered_stack(vf=0.0, seed=5)
        path = hybrid.route(sim, 0, 40)
        if path is None or len(path) < 3:
            pytest.skip("need a multi-hop route")
        victim = path[1]
        sim.fail_node(victim)
        sim.step()
        fresh = hybrid.route(sim, 0, 40)
        if fresh is not None:
            assert victim not in fresh
            for a, b in zip(fresh, fresh[1:]):
                assert sim.has_link(a, b)

    def test_dsdv_purges_crashed_next_hops(self):
        params = NetworkParameters.from_fractions(
            n_nodes=60, range_fraction=0.25, velocity_fraction=0.0
        )
        sim = Simulation(params, EpochRandomWaypointModel(0.0, 1.0), seed=6)
        dsdv = sim.attach(DsdvProtocol(periodic_interval=0.5))
        victim = 5
        sim.fail_node(victim)
        for _ in range(int(round(4.0 / sim.dt))):
            sim.step()
        # No table may still route *through* the dead node...
        for node in range(sim.n_nodes):
            if node == victim:
                continue
            for destination, entry in dsdv.tables[node].items():
                if entry.next_hop == victim and entry.reachable:
                    pytest.fail(f"{node} still routes via dead node {victim}")

    def test_aodv_rerr_on_crash(self):
        sim = Simulation(
            NetworkParameters.from_fractions(
                n_nodes=60, range_fraction=0.25, velocity_fraction=0.0
            ),
            EpochRandomWaypointModel(0.0, 1.0),
            seed=7,
        )
        aodv = sim.attach(AodvProtocol())
        path = aodv.discover(sim, 0, 30)
        if path is None or len(path) < 3:
            pytest.skip("need a multi-hop route")
        sim.stats.start_measuring()
        sim.fail_node(path[1])
        sim.step()
        assert sim.stats.message_count("aodv_rerr") >= 1
