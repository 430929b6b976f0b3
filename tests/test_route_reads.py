"""Property tests of the routing layer's O(degree) read paths.

* ``edges_to_lists`` / ``Simulation.adjacency_lists`` equal the dense
  matrix's ``flatnonzero`` rows (isolated nodes, empty edge sets, failed
  nodes included);
* the vectorized ``backbone_mask`` equals the scalar head-or-gateway
  definition node by node;
* the intra-cluster router's lazy per-source tables equal an eager
  all-pairs rebuild over the dense matrix;
* the hybrid router's link -> route index holds exactly the links of
  its cached paths after every step, and a break emits the same RERR
  sequence as a scan of the whole cache;
* backbone discovery and broadcast floods return the paths and counts
  of a test-local copy of the FIFO BFS loops over ascending neighbor
  lists, on any edge set and cluster state (this pins the visit order
  whatever traversal the implementation uses), every discovery a live
  faulted hybrid stack makes equals that reference, and the cached
  flood graph follows cluster-state mutations and steps;
* ``edges_to_csr`` / ``Simulation.neighbor_csr`` rows equal the dense
  matrix's rows (and rows built pair by pair at node counts whose ids
  need one and four bytes), and ``ClusterState.version`` moves on every mutation.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.clustering.base import (
    HEAD,
    MEMBER,
    UNASSIGNED,
    ClusterState,
    sequential_formation,
)
from repro.core.params import NetworkParameters
from repro.faults import FaultConfig, attach_faults, build_plan
from repro.mobility import EpochRandomWaypointModel
from repro.routing import (
    HybridRoutingProtocol,
    IntraClusterRoutingProtocol,
    broadcast_flood,
    discover_route,
    is_gateway,
)
from repro.routing import hybrid as hybrid_module
from repro.routing.inter_cluster import backbone_mask
from repro.sim import (
    CbrFlow,
    HelloProtocol,
    HybridRouterAdapter,
    Simulation,
    TrafficProtocol,
)
from repro.spatial import edges_to_adjacency, edges_to_csr, edges_to_lists


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


def _head_or_gateway(state, csr) -> list[bool]:
    return [
        state.roles[node] == HEAD or is_gateway(state, csr, node)
        for node in range(state.n_nodes)
    ]


@settings(max_examples=200, deadline=None)
@given(clustered_graphs())
def test_backbone_mask_equals_head_or_gateway_on_any_state(case):
    edges, state = case
    csr = edges_to_csr(edges, state.n_nodes)
    assert backbone_mask(state, edges).tolist() == _head_or_gateway(state, csr)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_backbone_mask_equals_head_or_gateway(seed):
    sim, maintenance, _, _ = _data_plane(seed)
    for _ in range(10):
        sim.step()
        state = maintenance.state
        expected = _head_or_gateway(state, sim.neighbor_csr)
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
        expected = _eager_tables(
            maintenance.state, edges_to_adjacency(sim.edges, sim.n_nodes)
        )
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
    record = sim.stats.record

    def recording_record(category, messages, bits, **attribution):
        if category == "route_error":
            emitted.append((messages, list(attribution["nodes"])))
        return record(category, messages, bits, **attribution)

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


# ----------------------------------------------------------------------
# Backbone discovery and broadcast floods
# ----------------------------------------------------------------------
def _reference_discovery(lists, forwards, source, destination):
    """The FIFO BFS loop of backbone discovery: (path, rreq, rrep).

    The source always transmits; a reached node retransmits iff it
    forwards; the destination absorbs the request.
    """
    if source == destination:
        return [source], 0, 0
    parents = {source: source}
    queue = deque([source])
    transmissions = 0
    found = False
    while queue:
        current = queue.popleft()
        if current != source and not forwards[current]:
            continue
        transmissions += 1
        for neighbor in lists[current]:
            if neighbor in parents:
                continue
            parents[neighbor] = current
            if neighbor == destination:
                found = True
                queue.clear()
                break
            queue.append(neighbor)
    if not found:
        return None, transmissions, 0
    path = [destination]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path, transmissions, len(path) - 1


def _reference_broadcast(lists, forwards, source):
    """The FIFO BFS loop of a flood: (reached, transmissions).

    ``forwards=None`` is a blind flood: every reached node transmits.
    """
    reached = {source}
    queue = deque([source])
    transmissions = 0
    while queue:
        current = queue.popleft()
        if current != source and forwards is not None and not forwards[current]:
            continue
        transmissions += 1
        for neighbor in lists[current]:
            if neighbor not in reached:
                reached.add(neighbor)
                queue.append(neighbor)
    return len(reached), transmissions


class _StaticSim:
    """A frozen topology exposing the simulation's neighbor views."""

    def __init__(self, edges: np.ndarray, n: int) -> None:
        self.edges = edges
        self.n_nodes = n
        self.params = NetworkParameters.from_fractions(
            n_nodes=max(n, 2), range_fraction=0.1, velocity_fraction=0.0
        )
        self.adjacency_lists = _dense_rows(edges, n)
        self.neighbor_csr = (
            np.cumsum([0] + [len(row) for row in self.adjacency_lists]),
            np.array(
                [v for row in self.adjacency_lists for v in row], dtype=np.int64
            ),
        )


def _flood_case(n: int, density: float, heads: float, formed: bool, seed: int):
    """A random edge set over ``n`` nodes and a cluster state on it.

    ``formed`` states come from the one-hop formation skeleton (P1 and
    P2 hold, the real backbone); the others affiliate members to random
    heads anywhere and leave some nodes unassigned.
    """
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1)
    edges = np.argwhere(upper).astype(np.int64).reshape(-1, 2)
    if formed:
        state = sequential_formation(edges_to_csr(edges, n), rng.permutation(n))
    else:
        state = ClusterState.unassigned(n)
        chosen = np.flatnonzero(rng.random(n) < heads)
        for head in chosen.tolist():
            state.make_head(head)
        for node in range(n):
            if state.roles[node] != HEAD and len(chosen) and rng.random() < 0.9:
                state.make_member(node, int(rng.choice(chosen)))
    return _StaticSim(edges, n), state


def _check_floods(sim, state, pairs) -> set[str]:
    """Compare every flood against the reference; returns the cases hit."""
    lists = sim.adjacency_lists
    forwards = _head_or_gateway(state, edges_to_csr(sim.edges, sim.n_nodes))
    hit = set()
    if len(sim.edges) == 0:
        hit.add("empty edge set")
    for source in range(sim.n_nodes):
        for flood_state, flood_forwards in ((state, forwards), (None, None)):
            result = broadcast_flood(sim, source, flood_state, record_stats=False)
            assert (result.reached, result.transmissions) == _reference_broadcast(
                lists, flood_forwards, source
            ), (source, flood_state is None)
    for source, destination in pairs:
        result = discover_route(sim, state, source, destination, record_stats=False)
        path, rreq, rrep = _reference_discovery(lists, forwards, source, destination)
        assert result.path == path, (source, destination)
        assert result.rreq_transmissions == rreq, (source, destination)
        assert result.rrep_transmissions == rrep, (source, destination)
        neighbors = lists[source]
        if source == destination:
            hit.add("source is destination")
        elif not neighbors:
            hit.add("isolated source")
        elif destination in neighbors:
            hit.add("adjacent destination")
        elif path is None:
            hit.add("unreachable destination")
        if neighbors and not forwards[source]:
            hit.add("non-forwarder source")
        if forwards[source] and any(forwards[v] for v in neighbors):
            hit.add("forwarder source re-discovered by a neighbor")
    return hit


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    density=st.sampled_from([0.0, 0.03, 0.08, 0.15, 0.3, 0.7]),
    heads=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    formed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    pair_seed=st.integers(0, 2**32 - 1),
)
def test_floods_equal_the_reference_bfs(n, density, heads, formed, seed, pair_seed):
    sim, state = _flood_case(n, density, heads, formed, seed)
    rng = np.random.default_rng(pair_seed)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(40, 2))]
    pairs += [(source, source) for source in range(min(n, 3))]
    _check_floods(sim, state, pairs)


def test_floods_cover_every_named_case():
    hit = set()
    for seed, (n, density, heads, formed) in enumerate(
        [
            (1, 0.0, 1.0, True),
            (12, 0.0, 0.5, False),
            (30, 0.08, 0.3, True),
            (30, 0.08, 0.2, False),
            (40, 0.15, 0.5, False),
            (60, 0.05, 0.2, True),
            (60, 0.3, 0.0, False),
        ]
    ):
        sim, state = _flood_case(n, density, heads, formed, seed)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        hit |= _check_floods(sim, state, pairs)
    assert hit == {
        "empty edge set",
        "source is destination",
        "isolated source",
        "adjacent destination",
        "unreachable destination",
        "non-forwarder source",
        "forwarder source re-discovered by a neighbor",
    }


def _faulted_hybrid_stack(
    seed: int, n: int = 300, flows: int = 12, range_fraction: float = 0.15
):
    """LID + event HELLO + hybrid router + CBR, crashes and loss on."""
    sim = _sim(n, range_fraction, seed)
    config = FaultConfig(
        crash_rate=0.01, crash_recover_after=1.0, loss_rate=0.08, hello_miss_limit=3
    )
    attach_faults(sim, build_plan(config, n, horizon=3.0, seed=seed))
    sim.attach(HelloProtocol(mode="event"))
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
    return sim, maintenance, hybrid


def _reference_on(sim, state, source, destination):
    """The reference discovery over the dense matrix and scalar backbone."""
    return _reference_discovery(
        _dense_rows(sim.edges, sim.n_nodes),
        _head_or_gateway(state, sim.neighbor_csr),
        source,
        destination,
    )


def _as_tuple(result):
    return result.path, result.rreq_transmissions, result.rrep_transmissions


@pytest.mark.parametrize("seed", [0, 1])
def test_router_discoveries_equal_the_reference_bfs(seed, monkeypatch):
    sim, _, hybrid = _faulted_hybrid_stack(seed)
    real = hybrid_module.discover_route
    checked = []

    def checked_discover(sim, state, source, destination, record_stats=True):
        expected = _reference_on(sim, state, source, destination)
        result = real(sim, state, source, destination, record_stats)
        assert _as_tuple(result) == expected, (sim.time, source, destination)
        checked.append(result.found)
        return result

    monkeypatch.setattr(hybrid_module, "discover_route", checked_discover)
    sim.run(duration=2.0, warmup=0.5)
    assert sim.faults.crashes_total > 0
    assert hybrid.discoveries == len(checked) > 50
    assert any(checked) and not all(checked)


def test_discovery_sees_a_reaffiliation_within_the_step():
    # A sparser stack, so that some members stay silent.
    sim, maintenance, _ = _faulted_hybrid_stack(0, range_fraction=0.08)
    for _ in range(10):
        sim.step()
    state = maintenance.state
    lists = sim.adjacency_lists
    heads = state.heads().tolist()

    def quick(trial, source, destination):
        return _reference_discovery(
            lists, backbone_mask(trial, sim.edges).tolist(), source, destination
        )

    # A reaffiliation that changes some discovery's path or RREQ count:
    # it can silence gateways or make a silent member a gateway.
    change = None
    for source in range(0, sim.n_nodes, 7):
        destination = (source * 31 + 11) % sim.n_nodes
        before = quick(state, source, destination)
        if before[0] is None or state.same_cluster(source, destination):
            continue
        near = sorted({v for u in before[0] for v in lists[u]} | set(before[0]))
        for node in near:
            if state.roles[node] != MEMBER:
                continue
            nearby = {state.head_of.item(v) for v in lists[node]}
            for head in sorted(nearby | set(heads[:3])):
                if head < 0 or head == state.head_of[node] or head not in heads:
                    continue
                trial = state.copy()
                trial.make_member(node, head)
                if quick(trial, source, destination) != before:
                    change = source, destination, node, head
                    break
            if change:
                break
        if change:
            break
    assert change is not None
    source, destination, node, head = change

    first = discover_route(sim, state, source, destination, record_stats=False)
    assert _as_tuple(first) == _reference_on(sim, state, source, destination)
    version = state.version
    state.make_member(node, head)
    assert state.version != version
    second = discover_route(sim, state, source, destination, record_stats=False)
    assert _as_tuple(second) == _reference_on(sim, state, source, destination)
    assert _as_tuple(second) != _as_tuple(first)


def test_discovery_sees_the_next_steps_edges():
    # No router: nothing floods during the step, so the graph cached by
    # the first calls is still there when the step has moved the edges.
    sim = _sim(300, 0.15, 1)
    maintenance = sim.attach(ClusterMaintenanceProtocol(LowestIdClustering()))
    for _ in range(10):
        sim.step()
    # A detached copy: the maintenance protocol never mutates it, so
    # only the edge set changes across the step.
    state = maintenance.state.copy()
    pairs = [(s, (s * 31 + 11) % sim.n_nodes) for s in range(0, sim.n_nodes, 5)]
    before = [
        _as_tuple(discover_route(sim, state, s, d, record_stats=False))
        for s, d in pairs
    ]
    edges = sim.edges
    version = state.version
    sim.step()
    assert sim.edges is not edges and state.version == version
    after = [
        _as_tuple(discover_route(sim, state, s, d, record_stats=False))
        for s, d in pairs
    ]
    assert after == [_reference_on(sim, state, s, d) for s, d in pairs]
    assert after != before
    floods = [broadcast_flood(sim, s, state, record_stats=False) for s, _ in pairs]
    lists = _dense_rows(sim.edges, sim.n_nodes)
    forwards = _head_or_gateway(state, edges_to_csr(sim.edges, sim.n_nodes))
    assert [(f.reached, f.transmissions) for f in floods] == [
        _reference_broadcast(lists, forwards, s) for s, _ in pairs
    ]


def test_cluster_state_version_moves_on_every_mutation():
    state = ClusterState.unassigned(5)
    seen = [state.version]
    for mutate in (
        lambda: state.make_head(0),
        lambda: state.make_head(3),
        lambda: state.make_member(1, 0),
        lambda: state.make_member(1, 3),
        lambda: state.make_head(1),
        lambda: state.make_member(2, 1),
    ):
        mutate()
        assert state.version not in seen
        seen.append(state.version)


# ----------------------------------------------------------------------
# CSR neighbor view
# ----------------------------------------------------------------------
def _csr_rows(indptr, indices) -> list[list[int]]:
    return [
        indices[indptr[i] : indptr[i + 1]].tolist() for i in range(len(indptr) - 1)
    ]


def _random_edge_set(n: int, pairs: int, seed: int):
    """A sorted edge set of up to ``pairs`` random links over ``n`` nodes."""
    ends = np.sort(np.random.default_rng(seed).integers(0, n, (pairs, 2)), axis=1)
    edges = np.unique(ends[ends[:, 0] < ends[:, 1]], axis=0)
    return edges.astype(np.int64), n


def _listed_rows(edges: np.ndarray, n: int) -> list[list[int]]:
    """Ascending neighbor rows built pair by pair, without a dense matrix."""
    rows = [[] for _ in range(n)]
    for u, v in edges.tolist():
        rows[u].append(v)
        rows[v].append(u)
    return [sorted(row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(edge_sets())
# Node counts whose owner ids fit one byte and need four bytes.
@example(_random_edge_set(200, 3000, seed=0))
@example(_random_edge_set(70_000, 20_000, seed=1))
def test_csr_rows_equal_dense_rows(case):
    edges, n = case
    indptr, indices = edges_to_csr(edges, n)
    assert len(indptr) == n + 1 and indptr[-1] == len(indices) == 2 * len(edges)
    assert indptr.dtype == indices.dtype == np.int64
    rows = _csr_rows(indptr, indices)
    assert rows == _listed_rows(edges, n)
    if n <= 1000:
        assert rows == _dense_rows(edges, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_neighbor_csr_follows_the_edge_set_every_step(seed):
    sim = _sim(80, 0.15, seed)
    for step in range(8):
        if step == 3:
            sim.fail_node(9)
        csr = sim.neighbor_csr
        assert csr is sim.neighbor_csr  # cached within the step
        assert _csr_rows(*csr) == _dense_rows(sim.edges, sim.n_nodes)
        assert sim.adjacency_lists == _csr_rows(*csr)
        sim.step()
