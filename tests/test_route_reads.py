"""Property tests of the routing layer's O(degree) read paths.

* ``edges_to_lists`` / ``Simulation.adjacency_lists`` equal the dense
  view's ``flatnonzero`` rows (isolated nodes, empty edge sets, failed
  nodes included);
* the vectorized ``backbone_mask`` equals the scalar head-or-gateway
  definition node by node;
* the intra-cluster router's lazy per-source tables equal an eager
  all-pairs rebuild over the dense view;
* the hybrid router's link -> route index holds exactly the links of
  its cached paths after every step, and a break emits the same RERR
  sequence as a scan of the whole cache.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.clustering.base import HEAD, MEMBER, UNASSIGNED, ClusterState
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import (
    HybridRoutingProtocol,
    IntraClusterRoutingProtocol,
    is_gateway,
)
from repro.routing import hybrid as hybrid_module
from repro.routing.inter_cluster import backbone_mask
from repro.sim import CbrFlow, HybridRouterAdapter, Simulation, TrafficProtocol
from repro.spatial import edges_to_adjacency, edges_to_lists


def _sim(n: int, range_fraction: float, seed: int, velocity: float = 0.05):
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=range_fraction, velocity_fraction=velocity
    )
    return Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )


def _dense_rows(edges: np.ndarray, n: int) -> list[list[int]]:
    adjacency = edges_to_adjacency(edges, n)
    return [np.flatnonzero(adjacency[i]).tolist() for i in range(n)]


def _data_plane(seed: int, n: int = 120, flows: int = 10):
    sim = _sim(n, 0.15, seed)
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    intra = sim.attach(IntraClusterRoutingProtocol(maintenance))
    sim.attach(maintenance)
    hybrid = sim.attach(HybridRoutingProtocol(maintenance, intra))
    rng = np.random.default_rng(seed)
    demand = [
        CbrFlow(int(a), int(b), 0.1)
        for a, b in (rng.choice(n, size=2, replace=False) for _ in range(flows))
    ]
    sim.attach(TrafficProtocol(demand, HybridRouterAdapter(hybrid)))
    return sim, maintenance, intra, hybrid


# ----------------------------------------------------------------------
# Neighbor lists
# ----------------------------------------------------------------------
@st.composite
def edge_sets(draw, min_nodes=0):
    n = draw(st.integers(min_value=min_nodes, max_value=25))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    )
    edges = np.array(sorted(chosen), dtype=np.int64).reshape(-1, 2)
    return edges, n


class TestAdjacencyLists:
    @settings(max_examples=200, deadline=None)
    @given(edge_sets())
    def test_lists_equal_dense_rows(self, case):
        edges, n = case
        assert edges_to_lists(edges, n) == _dense_rows(edges, n)

    def test_empty_edge_set_gives_empty_lists(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert edges_to_lists(empty, 4) == [[], [], [], []]
        assert edges_to_lists(empty, 0) == []

    def test_sparse_simulation_has_isolated_nodes(self):
        sim = _sim(40, 0.001, seed=3, velocity=0.0)
        assert sim.edge_count == 0
        assert sim.adjacency_lists == [[] for _ in range(40)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lists_follow_the_edge_set_every_step(self, seed):
        sim = _sim(80, 0.15, seed)
        for step in range(12):
            if step == 4:
                sim.fail_node(5)
                sim.fail_node(17)
            if step == 8:
                sim.recover_node(5)
            lists = sim.adjacency_lists
            assert lists is sim.adjacency_lists  # cached within the step
            assert lists == _dense_rows(sim.edges, sim.n_nodes)
            if 4 < step <= 8:
                assert lists[5] == [] and lists[17] == []
            sim.step()


# ----------------------------------------------------------------------
# Backbone mask
# ----------------------------------------------------------------------
@st.composite
def clustered_graphs(draw):
    """Any edge set with any roles / affiliations, stale ones included."""
    edges, n = draw(edge_sets(min_nodes=1))
    role = st.sampled_from([UNASSIGNED, MEMBER, HEAD])
    roles = draw(st.lists(role, min_size=n, max_size=n))
    head_of = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    return edges, ClusterState(np.array(roles), np.array(head_of))


def _head_or_gateway(state, adjacency) -> list[bool]:
    return [
        state.roles[node] == HEAD or is_gateway(state, adjacency, node)
        for node in range(state.n_nodes)
    ]


@settings(max_examples=200, deadline=None)
@given(clustered_graphs())
def test_backbone_mask_equals_head_or_gateway_on_any_state(case):
    edges, state = case
    adjacency = edges_to_adjacency(edges, state.n_nodes)
    assert backbone_mask(state, edges).tolist() == _head_or_gateway(state, adjacency)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_backbone_mask_equals_head_or_gateway(seed):
    sim, maintenance, _, _ = _data_plane(seed)
    for _ in range(10):
        sim.step()
        state = maintenance.state
        expected = _head_or_gateway(state, sim.adjacency)
        assert backbone_mask(state, sim.edges).tolist() == expected


# ----------------------------------------------------------------------
# Lazy intra-cluster tables
# ----------------------------------------------------------------------
def _eager_tables(state, adjacency) -> dict[tuple[int, int], int]:
    """All-pairs next hops over every cluster subgraph (BFS)."""
    next_hop = {}
    for head in state.heads():
        nodes = {int(x) for x in state.cluster_nodes(int(head))}
        for source in nodes:
            parents = {source: source}
            queue = deque([source])
            while queue:
                current = queue.popleft()
                for neighbor in np.flatnonzero(adjacency[current]).tolist():
                    if neighbor in nodes and neighbor not in parents:
                        parents[neighbor] = current
                        queue.append(neighbor)
            for destination in parents:
                if destination == source:
                    continue
                hop = destination
                while parents[hop] != source:
                    hop = parents[hop]
                next_hop[(source, destination)] = hop
    return next_hop


@settings(max_examples=200, deadline=None)
@given(clustered_graphs())
def test_lazy_tables_equal_an_eager_rebuild_on_any_state(case):
    edges, state = case
    n = state.n_nodes
    sim = SimpleNamespace(adjacency_lists=edges_to_lists(edges, n), n_nodes=n)
    intra = IntraClusterRoutingProtocol(SimpleNamespace(state=state))
    expected = _eager_tables(state, edges_to_adjacency(edges, n))
    for source in range(n):
        for destination in range(n):
            assert intra.next_hop(sim, source, destination) == expected.get(
                (source, destination)
            )


@pytest.mark.parametrize("seed", [0, 1])
def test_lazy_tables_equal_an_eager_rebuild(seed):
    sim, maintenance, intra, _ = _data_plane(seed)
    n = sim.n_nodes
    for _ in range(8):
        sim.step()
        expected = _eager_tables(maintenance.state, sim.adjacency)
        for source in range(n):
            for destination in range(n):
                assert intra.next_hop(sim, source, destination) == expected.get(
                    (source, destination)
                )
            assert intra.table_size(sim, source) == sum(
                1 for (src, _dst) in expected if src == source
            )


# ----------------------------------------------------------------------
# Link -> route index
# ----------------------------------------------------------------------
def _path_links(path) -> set[tuple[int, int]]:
    return {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_link_index_holds_exactly_the_cached_links(seed):
    sim, _, _, hybrid = _data_plane(seed)
    for _ in range(30):
        sim.step()
        expected: dict[tuple[int, int], list] = {}
        for key, path in hybrid._cache.items():
            for link in _path_links(path):
                expected.setdefault(link, []).append(key)
        indexed = {
            link: list(routes) for link, routes in hybrid._routes_by_link.items()
        }
        assert indexed == expected


def _scan_rerrs(cache: dict, u: int, v: int) -> tuple[list, dict]:
    """Reference: scan the whole cache for routes over ``(u, v)``."""
    rerrs = []
    survivors = {}
    for key, path in cache.items():
        hops = list(zip(path, path[1:]))
        position = next(
            (i for i, hop in enumerate(hops) if hop in ((u, v), (v, u))), None
        )
        if position is None:
            survivors[key] = path
        else:
            rerrs.append((position + 1, path[: position + 1]))
    return rerrs, survivors


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_breaks_emit_the_rerrs_of_a_full_cache_scan(seed, monkeypatch):
    sim, _, _, hybrid = _data_plane(seed)
    emitted: list = []

    class Recording:
        def __init__(self, sim, cause, nodes):
            self.nodes = list(nodes)

        def __enter__(self):
            emitted.append(self.nodes)

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(hybrid_module, "attributed", Recording)
    record = sim.stats.record

    def recording_record(category, messages, bits):
        if category == "route_error":
            emitted[-1] = (messages, emitted[-1])
        return record(category, messages, bits)

    monkeypatch.setattr(sim.stats, "record", recording_record)
    on_link_down = hybrid.on_link_down
    checked = 0

    def checked_on_link_down(sim, u, v, time):
        nonlocal checked
        expected, survivors = _scan_rerrs(dict(hybrid._cache), u, v)
        emitted.clear()
        on_link_down(sim, u, v, time)
        assert emitted == expected
        assert list(hybrid._cache.items()) == list(survivors.items())
        checked += len(expected)

    monkeypatch.setattr(hybrid, "on_link_down", checked_on_link_down)
    for _ in range(30):
        sim.step()
    assert checked > 0, "the run should break some cached routes"
