"""Tests for backbone route discovery (repro.routing.inter_cluster)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering, Role
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import discover_route, is_gateway
from repro.sim import Simulation


@pytest.fixture
def clustered_sim():
    params = NetworkParameters.from_fractions(
        n_nodes=120, range_fraction=0.18, velocity_fraction=0.0
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=21
    )
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    sim.attach(maintenance)
    return sim, maintenance


class TestGateway:
    def test_head_is_not_gateway(self, clustered_sim):
        sim, maintenance = clustered_sim
        state = maintenance.state
        head = int(state.heads()[0])
        assert not is_gateway(state, sim.adjacency, head)

    def test_member_with_foreign_neighbor_is_gateway(self, clustered_sim):
        sim, maintenance = clustered_sim
        state = maintenance.state
        found = False
        for node in np.flatnonzero(state.roles == Role.MEMBER):
            neighbors = sim.neighbors_of(int(node))
            foreign = [
                v for v in neighbors if state.head_of[v] != state.head_of[node]
            ]
            expected = bool(foreign)
            assert is_gateway(state, sim.adjacency, int(node)) == expected
            found = found or expected
        assert found, "topology should contain at least one gateway"


class TestDiscovery:
    def test_trivial_self_route(self, clustered_sim):
        sim, maintenance = clustered_sim
        result = discover_route(sim, maintenance.state, 5, 5, record_stats=False)
        assert result.path == [5]
        assert result.total_transmissions == 0

    def test_path_is_valid_walk(self, clustered_sim):
        sim, maintenance = clustered_sim
        result = discover_route(sim, maintenance.state, 0, 60, record_stats=False)
        if not result.found:
            pytest.skip("0 and 60 in different components")
        path = result.path
        assert path[0] == 0 and path[-1] == 60
        for u, v in zip(path, path[1:]):
            assert sim.has_link(u, v)

    def test_interior_members_do_not_forward(self, clustered_sim):
        sim, maintenance = clustered_sim
        state = maintenance.state
        result = discover_route(sim, maintenance.state, 0, 60, record_stats=False)
        if not result.found:
            pytest.skip("unreachable pair")
        # Intermediate path nodes must be heads, gateways, or endpoints.
        for node in result.path[1:-1]:
            assert (
                state.roles[node] == Role.HEAD
                or is_gateway(state, sim.adjacency, node)
            )

    def test_fewer_transmissions_than_full_flood(self, clustered_sim):
        sim, maintenance = clustered_sim
        result = discover_route(sim, maintenance.state, 0, 99, record_stats=False)
        if not result.found:
            pytest.skip("unreachable pair")
        # A full flood would cost ~N transmissions; the backbone flood
        # must be strictly cheaper (that is its purpose).
        assert result.rreq_transmissions < sim.n_nodes

    def test_unreachable_destination(self, clustered_sim):
        sim, maintenance = clustered_sim
        # Disconnect node 7 completely: its radio fails, and the next
        # step breaks all its links (the fixture is static).
        sim.fail_node(7)
        sim.step()
        result = discover_route(sim, maintenance.state, 0, 7, record_stats=False)
        assert not result.found
        assert result.path is None
        assert result.rrep_transmissions == 0

    def test_stats_recording(self, clustered_sim):
        sim, maintenance = clustered_sim
        sim.stats.start_measuring()
        result = discover_route(sim, maintenance.state, 0, 60)
        if result.found:
            assert sim.stats.message_count("route_discovery") == (
                result.total_transmissions
            )
            expected_bits = (
                result.total_transmissions * sim.params.messages.p_route
            )
            assert sim.stats.bit_count("route_discovery") == pytest.approx(
                expected_bits
            )

    def test_rrep_hops_match_path(self, clustered_sim):
        sim, maintenance = clustered_sim
        result = discover_route(sim, maintenance.state, 3, 90, record_stats=False)
        if result.found:
            assert result.rrep_transmissions == len(result.path) - 1


class TestBroadcastFlood:
    def test_blind_flood_reaches_component(self, clustered_sim):
        import networkx as nx
        from repro.routing import broadcast_flood

        sim, _ = clustered_sim
        graph = nx.from_numpy_array(sim.adjacency)
        component = nx.node_connected_component(graph, 0)
        result = broadcast_flood(sim, 0, state=None, record_stats=False)
        assert result.reached == len(component)
        # Blind flooding: every reached node retransmits.
        assert result.transmissions == result.reached
        assert result.savings == 0

    def test_backbone_flood_same_reach_fewer_transmissions(self, clustered_sim):
        from repro.routing import broadcast_flood

        sim, maintenance = clustered_sim
        blind = broadcast_flood(sim, 0, state=None, record_stats=False)
        clustered = broadcast_flood(
            sim, 0, state=maintenance.state, record_stats=False
        )
        assert clustered.reached == blind.reached
        assert clustered.transmissions < blind.transmissions
        assert clustered.savings > 0

    def test_stats_recorded(self, clustered_sim):
        from repro.routing import broadcast_flood

        sim, maintenance = clustered_sim
        sim.stats.start_measuring()
        result = broadcast_flood(sim, 0, state=maintenance.state)
        assert sim.stats.message_count("broadcast") == result.transmissions
