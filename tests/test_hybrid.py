"""Tests for the hybrid routing protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import HybridRoutingProtocol, IntraClusterRoutingProtocol
from repro.sim import Simulation


def _stack(n=100, vf=0.0, seed=31):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=0.2, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    intra = IntraClusterRoutingProtocol(maintenance)
    sim.attach(intra)
    sim.attach(maintenance)
    hybrid = sim.attach(HybridRoutingProtocol(maintenance, intra))
    return sim, maintenance, intra, hybrid


class TestRouting:
    def test_self_route(self):
        sim, _, _, hybrid = _stack()
        assert hybrid.route(sim, 4, 4) == [4]

    def test_same_cluster_uses_proactive_tables(self):
        sim, maintenance, intra, hybrid = _stack()
        state = maintenance.state
        head = int(state.heads()[0])
        members = state.members_of(head)
        if not len(members):
            pytest.skip("head without members")
        member = int(members[0])
        sim.stats.start_measuring()
        path = hybrid.route(sim, member, head)
        assert path == [member, head]
        assert hybrid.discoveries == 0
        assert sim.stats.message_count("route_discovery") == 0

    def test_cross_cluster_triggers_discovery(self):
        sim, maintenance, _, hybrid = _stack()
        state = maintenance.state
        heads = state.heads()
        a, b = int(heads[0]), int(heads[-1])
        path = hybrid.route(sim, a, b)
        assert hybrid.discoveries == 1
        if path is not None:
            for u, v in zip(path, path[1:]):
                assert sim.has_link(u, v)

    def test_cache_hit_on_repeat(self):
        sim, maintenance, _, hybrid = _stack()
        heads = maintenance.state.heads()
        a, b = int(heads[0]), int(heads[-1])
        first = hybrid.route(sim, a, b)
        if first is None:
            pytest.skip("unreachable")
        second = hybrid.route(sim, a, b)
        assert second == first
        assert hybrid.discoveries == 1
        assert hybrid.cache_hits == 1
        assert hybrid.cached_routes == 1


class TestCacheInvalidation:
    def test_link_break_evicts_and_emits_rerr(self):
        sim, maintenance, _, hybrid = _stack()
        heads = maintenance.state.heads()
        a, b = int(heads[0]), int(heads[-1])
        path = hybrid.route(sim, a, b)
        if path is None or len(path) < 2:
            pytest.skip("no multi-hop route")
        u, v = path[0], path[1]
        sim.stats.start_measuring()
        hybrid.on_link_down(sim, min(u, v), max(u, v), 0.0)
        assert hybrid.cached_routes == 0
        assert sim.stats.message_count("route_error") >= 1

    def test_unrelated_break_keeps_cache(self):
        sim, maintenance, _, hybrid = _stack()
        heads = maintenance.state.heads()
        a, b = int(heads[0]), int(heads[-1])
        path = hybrid.route(sim, a, b)
        if path is None:
            pytest.skip("unreachable")
        on_path = {frozenset(pair) for pair in zip(path, path[1:])}
        # Find a link not on the path.
        for u, v in sim.edges.tolist():
            if frozenset((u, v)) not in on_path:
                hybrid.on_link_down(sim, u, v, 0.0)
                assert hybrid.cached_routes == 1
                return
        pytest.skip("every link on path")


class TestUnderMobility:
    def test_delivery_with_rediscovery(self):
        sim, maintenance, _, hybrid = _stack(vf=0.05, seed=32)
        rng = np.random.default_rng(0)
        successes = attempts = 0
        for _ in range(40):
            for _ in range(3):
                sim.step()
            u, v = rng.integers(0, sim.n_nodes, 2)
            if u == v:
                continue
            attempts += 1
            path = hybrid.route(sim, int(u), int(v))
            if path is not None:
                for a, b in zip(path, path[1:]):
                    assert sim.has_link(a, b)
                successes += 1
        # A dense connected network should deliver most requests.
        assert successes / attempts > 0.8
