"""Tests for the flat DSDV baseline."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import DsdvProtocol
from repro.sim import Simulation
from repro.spatial import edges_to_adjacency


def _sim(n=60, vf=0.0, seed=41, interval=1.0):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=0.25, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    dsdv = sim.attach(DsdvProtocol(periodic_interval=interval))
    return sim, dsdv


class TestConstruction:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            DsdvProtocol(periodic_interval=0.0)

    def test_initial_convergence_is_free(self):
        sim, dsdv = _sim()
        # on_attach converged tables without recording traffic.
        assert sim.stats.message_count("dsdv") == 0


class TestConvergence:
    def test_tables_match_shortest_paths_static(self):
        sim, dsdv = _sim()
        graph = nx.from_numpy_array(edges_to_adjacency(sim.edges, sim.n_nodes))
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        for source in range(0, sim.n_nodes, 7):
            for destination in range(0, sim.n_nodes, 11):
                if source == destination:
                    continue
                entry = dsdv.tables[source].get(destination)
                if destination in lengths.get(source, {}):
                    assert entry is not None and entry.reachable
                    assert entry.metric == lengths[source][destination]
                else:
                    assert entry is None or not entry.reachable

    def test_path_following_delivers(self):
        sim, dsdv = _sim(seed=42)
        graph = nx.from_numpy_array(edges_to_adjacency(sim.edges, sim.n_nodes))
        for source, destination in [(0, 30), (5, 55), (12, 48)]:
            if nx.has_path(graph, source, destination):
                path = dsdv.path(sim, source, destination)
                assert path is not None
                assert path[0] == source and path[-1] == destination
                assert len(path) - 1 == nx.shortest_path_length(
                    graph, source, destination
                )

    def test_self_route(self):
        sim, dsdv = _sim()
        assert dsdv.path(sim, 3, 3) == [3]
        assert dsdv.next_hop(3, 3) == 3


class TestPeriodicTraffic:
    def test_broadcast_rate_matches_interval(self):
        sim, dsdv = _sim(vf=0.0, interval=0.5)
        sim.stats.start_measuring()
        duration = 4.0
        for _ in range(int(round(duration / sim.dt))):
            sim.step()
        rate = sim.stats.per_node_frequency("dsdv")
        assert rate == pytest.approx(2.0, rel=0.15)

    def test_update_bits_scale_with_table_size(self):
        sim, dsdv = _sim(vf=0.0)
        sim.stats.start_measuring()
        for _ in range(int(round(1.5 / sim.dt))):
            sim.step()
        messages = sim.stats.message_count("dsdv")
        bits = sim.stats.bit_count("dsdv")
        # Connected-ish network: each dump carries ~N entries.
        mean_entries = bits / (messages * sim.params.messages.p_route)
        assert mean_entries > sim.n_nodes * 0.5


class TestLinkBreakHandling:
    def test_break_marks_routes_infinite(self, set_link):
        sim, dsdv = _sim(seed=43)
        # Break one link and deliver the event directly.
        u, v = (int(x) for x in sim.edges[0])
        set_link(sim, u, v, False)
        dsdv.on_link_down(sim, u, v, 0.0)
        # Every route of u through v is now infinite with an odd seqno.
        for destination, entry in dsdv.tables[u].items():
            if entry.next_hop == v and destination != u:
                assert not entry.reachable
                assert entry.sequence % 2 == 1

    @pytest.mark.parametrize("seed", [44, 46])
    def test_reconvergence_after_churn(self, seed):
        """Churn the topology, freeze it, and require full reconvergence.

        The mobile phase scrambles routes; the static tail (several
        periodic intervals long) must let DSDV's sequence numbers
        repair every reachable pair.
        """
        from repro.mobility import TraceRecorder, TraceReplayModel

        params = NetworkParameters.from_fractions(
            n_nodes=60, range_fraction=0.25, velocity_fraction=0.03
        )
        recorder = TraceRecorder(EpochRandomWaypointModel(params.velocity, 1.0))
        scratch = Simulation(params, recorder, seed=seed)
        for _ in range(int(round(4.0 / scratch.dt))):
            scratch.step()
        # Static tail: hold the final frame for 6 more seconds.
        recorder.trace.append(scratch.time + 6.0, recorder.trace.frames[-1])

        sim = Simulation(
            params, TraceReplayModel(recorder.trace), dt=scratch.dt, seed=0
        )
        dsdv = sim.attach(DsdvProtocol(periodic_interval=1.0))
        for _ in range(int(round(10.0 / sim.dt))):
            sim.step()
        graph = nx.from_numpy_array(edges_to_adjacency(sim.edges, sim.n_nodes))
        checked = passed = 0
        for source in range(0, sim.n_nodes, 7):
            for destination in range(0, sim.n_nodes, 11):
                if source == destination:
                    continue
                if not nx.has_path(graph, source, destination):
                    continue
                checked += 1
                if dsdv.path(sim, source, destination) is not None:
                    passed += 1
        assert checked > 0
        assert passed == checked

    def test_sequence_numbers_monotone(self):
        sim, dsdv = _sim(vf=0.05, seed=45)
        seen = {node: 0 for node in range(sim.n_nodes)}
        for _ in range(40):
            sim.step()
            for node in range(sim.n_nodes):
                own = dsdv.tables[node][node]
                assert own.sequence >= seen[node]
                assert own.sequence % 2 == 0  # own entries always even
                seen[node] = own.sequence

    def test_sequence_provenance_invariant(self):
        """No node may hold a sequence for destination d newer than
        d's own sequence plus one (the break-marker increment) — DSDV
        sequence numbers originate at the destination only."""
        sim, dsdv = _sim(vf=0.06, seed=46)
        for _ in range(60):
            sim.step()
            own = dsdv._own_sequence
            for node in range(0, sim.n_nodes, 7):
                seqs = dsdv._sequence[node]
                assert np.all(seqs <= own + 1)

    def test_own_entry_never_corrupted(self):
        sim, dsdv = _sim(vf=0.08, seed=47)
        for _ in range(60):
            sim.step()
            for node in range(0, sim.n_nodes, 11):
                own = dsdv.tables[node][node]
                assert own.metric == 0.0
                assert own.next_hop == node
                assert own.reachable
