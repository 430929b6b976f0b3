"""Tests for the flat AODV baseline."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import AodvProtocol
from repro.sim import Simulation
from repro.spatial import edges_to_adjacency


def _sim(n=60, vf=0.0, seed=51):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=0.25, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    aodv = sim.attach(AodvProtocol())
    return sim, aodv


class TestDiscovery:
    def test_self_route(self):
        sim, aodv = _sim()
        assert aodv.discover(sim, 2, 2) == [2]

    def test_discovers_shortest_path(self):
        sim, aodv = _sim()
        graph = nx.from_numpy_array(edges_to_adjacency(sim.edges, sim.n_nodes))
        for source, destination in [(0, 30), (10, 50)]:
            if not nx.has_path(graph, source, destination):
                continue
            path = aodv.discover(sim, source, destination)
            assert path is not None
            assert len(path) - 1 == nx.shortest_path_length(
                graph, source, destination
            )

    def test_flood_reaches_whole_component(self):
        sim, aodv = _sim()
        sim.stats.start_measuring()
        graph = nx.from_numpy_array(edges_to_adjacency(sim.edges, sim.n_nodes))
        component = nx.node_connected_component(graph, 0)
        far = max(
            component,
            key=lambda node: nx.shortest_path_length(graph, 0, node),
        )
        if far == 0:
            pytest.skip("node 0 isolated")
        aodv.discover(sim, 0, int(far))
        # Every non-destination component node rebroadcasts once.
        rreq = sim.stats.message_count("aodv") - (
            nx.shortest_path_length(graph, 0, far)
        )
        assert rreq == len(component) - 1

    def test_unreachable_destination(self):
        sim, aodv = _sim()
        # Node 9's radio fails; the next step breaks all its links (the
        # network is static).
        sim.fail_node(9)
        sim.step()
        assert aodv.discover(sim, 0, 9) is None
        assert aodv.discoveries == 1

    def test_installs_forward_and_reverse_state(self):
        sim, aodv = _sim(seed=52)
        path = aodv.discover(sim, 0, 40)
        if path is None:
            pytest.skip("unreachable")
        for position, node in enumerate(path[:-1]):
            entry = aodv.routes[node][40]
            assert entry.next_hop == path[position + 1]
        for position, node in enumerate(path[1:], start=1):
            entry = aodv.routes[node][0]
            assert entry.next_hop == path[position - 1]


class TestRouteReuse:
    def test_cache_hit_avoids_second_flood(self):
        sim, aodv = _sim(seed=53)
        first = aodv.route(sim, 0, 35)
        if first is None:
            pytest.skip("unreachable")
        sim.stats.start_measuring()
        second = aodv.route(sim, 0, 35)
        assert second == first
        assert aodv.cache_hits == 1
        assert sim.stats.message_count("aodv") == 0

    def test_intermediate_nodes_can_reuse_reverse_routes(self):
        sim, aodv = _sim(seed=54)
        path = aodv.discover(sim, 0, 45)
        if path is None or len(path) < 3:
            pytest.skip("no multi-hop route")
        midpoint = path[len(path) // 2]
        back = aodv.route(sim, midpoint, 0)
        assert back is not None
        assert aodv.discoveries == 1  # reverse state reused, no new flood


class TestErrorHandling:
    def test_link_break_invalidates_and_rerrs(self, set_link):
        sim, aodv = _sim(seed=55)
        path = aodv.discover(sim, 0, 45)
        if path is None or len(path) < 2:
            pytest.skip("no route")
        u, v = path[0], path[1]
        set_link(sim, u, v, False)
        sim.stats.start_measuring()
        aodv.on_link_down(sim, min(u, v), max(u, v), 0.0)
        assert sim.stats.message_count("aodv_rerr") >= 1
        assert 45 not in aodv.routes[u] or aodv.routes[u][45].next_hop != v

    def test_stale_route_triggers_rediscovery(self):
        sim, aodv = _sim(vf=0.05, seed=56)
        path = aodv.route(sim, 0, 30)
        if path is None:
            pytest.skip("unreachable")
        # Move until the cached route's first hop breaks.
        for _ in range(400):
            sim.step()
            if not sim.has_link(path[0], path[1]):
                break
        else:
            pytest.skip("route never broke")
        before = aodv.discoveries
        fresh = aodv.route(sim, 0, 30)
        if fresh is not None:
            for a, b in zip(fresh, fresh[1:]):
                assert sim.has_link(a, b)
        assert aodv.discoveries == before + 1

    def test_installed_entries_accounting(self):
        sim, aodv = _sim(seed=57)
        assert aodv.installed_entries == 0
        path = aodv.discover(sim, 0, 45)
        if path is not None:
            assert aodv.installed_entries == 2 * (len(path) - 1)
