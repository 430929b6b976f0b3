"""Tests for the packet-level data plane (repro.sim.traffic)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import (
    AodvProtocol,
    DsdvProtocol,
    HybridRoutingProtocol,
    IntraClusterRoutingProtocol,
)
from repro.sim import (
    AodvRouterAdapter,
    CbrFlow,
    DsdvRouterAdapter,
    HybridRouterAdapter,
    HelloProtocol,
    Simulation,
    TrafficProtocol,
    TrafficStats,
)
from repro.spatial import edges_to_adjacency


def _dsdv_sim(n=60, vf=0.0, seed=61):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=0.25, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    dsdv = sim.attach(DsdvProtocol(periodic_interval=0.5))
    return sim, dsdv


class TestFlowValidation:
    def test_rejects_self_flow(self):
        with pytest.raises(ValueError):
            CbrFlow(1, 1, 1.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            CbrFlow(0, 1, 0.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            CbrFlow(0, 1, 1.0, start=-1.0)

    def test_rejects_bad_ttl(self):
        with pytest.raises(ValueError):
            TrafficProtocol([], DsdvRouterAdapter(None), max_hops=0)


class TestStats:
    def test_empty_stats_nan(self):
        stats = TrafficStats()
        assert np.isnan(stats.delivery_ratio())
        assert np.isnan(stats.mean_latency())
        assert np.isnan(stats.mean_hops())

    def test_ratios(self):
        stats = TrafficStats(generated=10, delivered=6, dropped=2)
        assert stats.delivery_ratio() == pytest.approx(0.75)
        assert stats.in_flight == 2


class TestDsdvForwarding:
    def test_static_network_delivers_everything(self):
        sim, dsdv = _dsdv_sim()
        flows = [CbrFlow(0, 30, interval=0.5), CbrFlow(10, 50, interval=0.7)]
        traffic = sim.attach(
            TrafficProtocol(flows, DsdvRouterAdapter(dsdv))
        )
        for _ in range(int(round(8.0 / sim.dt))):
            sim.step()
        assert traffic.traffic.generated > 10
        assert traffic.traffic.dropped == 0
        assert traffic.traffic.delivered > 0

    def test_latency_matches_hops_times_dt(self):
        """One hop per step: latency == hops * dt exactly (modulo the
        emission step alignment)."""
        sim, dsdv = _dsdv_sim(seed=62)
        traffic = sim.attach(
            TrafficProtocol([CbrFlow(0, 30, interval=1.0)], DsdvRouterAdapter(dsdv))
        )
        for _ in range(int(round(6.0 / sim.dt))):
            sim.step()
        stats = traffic.traffic
        assert stats.delivered > 0
        for latency, hops in zip(stats.latencies, stats.hop_counts):
            # Emission happens during the step, so latency spans
            # [hops-1, hops] steps.
            assert latency <= hops * sim.dt + 1e-9
            assert latency >= (hops - 1) * sim.dt - 1e-9

    def test_hop_counts_are_shortest_paths(self):
        import networkx as nx

        sim, dsdv = _dsdv_sim(seed=63)
        traffic = sim.attach(
            TrafficProtocol([CbrFlow(0, 45, interval=1.0)], DsdvRouterAdapter(dsdv))
        )
        graph = nx.from_numpy_array(edges_to_adjacency(sim.edges, sim.n_nodes))
        if not nx.has_path(graph, 0, 45):
            pytest.skip("pair unreachable")
        shortest = nx.shortest_path_length(graph, 0, 45)
        for _ in range(int(round(5.0 / sim.dt))):
            sim.step()
        assert traffic.traffic.delivered > 0
        assert all(h == shortest for h in traffic.traffic.hop_counts)

    def test_unreachable_destination_drops(self):
        sim, dsdv = _dsdv_sim(seed=64)
        sim.fail_node(30)
        for _ in range(int(round(2.0 / sim.dt))):
            sim.step()
        traffic = sim.attach(
            TrafficProtocol([CbrFlow(0, 30, interval=0.5)], DsdvRouterAdapter(dsdv))
        )
        for _ in range(int(round(3.0 / sim.dt))):
            sim.step()
        assert traffic.traffic.delivered == 0
        assert traffic.traffic.dropped > 0


class TestHybridForwarding:
    def test_hybrid_delivers_static(self):
        params = NetworkParameters.from_fractions(
            n_nodes=80, range_fraction=0.2, velocity_fraction=0.0
        )
        sim = Simulation(params, EpochRandomWaypointModel(0.0, 1.0), seed=65)
        sim.attach(HelloProtocol("event"))
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        intra = IntraClusterRoutingProtocol(maintenance)
        sim.attach(intra)
        sim.attach(maintenance)
        hybrid = sim.attach(HybridRoutingProtocol(maintenance, intra))
        traffic = sim.attach(
            TrafficProtocol(
                [CbrFlow(0, 40, 0.5), CbrFlow(20, 70, 0.5)],
                HybridRouterAdapter(hybrid),
            )
        )
        for _ in range(int(round(8.0 / sim.dt))):
            sim.step()
        stats = traffic.traffic
        assert stats.delivered > 0
        assert stats.delivery_ratio() > 0.9


class TestAodvForwarding:
    def test_aodv_delivers_under_mobility(self):
        params = NetworkParameters.from_fractions(
            n_nodes=80, range_fraction=0.22, velocity_fraction=0.02
        )
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=66
        )
        aodv = sim.attach(AodvProtocol())
        traffic = sim.attach(
            TrafficProtocol(
                [CbrFlow(0, 40, 0.5)], AodvRouterAdapter(aodv)
            )
        )
        for _ in range(int(round(10.0 / sim.dt))):
            sim.step()
        stats = traffic.traffic
        assert stats.generated >= 18
        assert stats.delivery_ratio() > 0.8


class TestTtl:
    def test_ttl_drops_looping_packets(self):
        """A router that bounces packets between two nodes must hit TTL."""

        class PingPongRouter:
            def next_hop(self, sim, node, destination):
                neighbors = sim.neighbors_of(node)
                return int(neighbors[0]) if len(neighbors) else None

        sim, _ = _dsdv_sim(seed=67)
        traffic = sim.attach(
            TrafficProtocol(
                [CbrFlow(0, 30, interval=10.0)], PingPongRouter(), max_hops=5
            )
        )
        for _ in range(int(round(3.0 / sim.dt))):
            sim.step()
        assert traffic.traffic.dropped >= 1
        assert traffic.traffic.delivered == 0
