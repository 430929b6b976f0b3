"""Pinned formation states, structure summaries and P1/P2 violation lists.

Every ``form`` runs on seeded unit-disk snapshots (open and torus
regions, a sparse one with isolated nodes, and a single node), and the
``(roles, head_of)`` of each resulting state is pinned by digest.  The
structural summary fields and the violation lists of deliberately
broken states are pinned literally, list order included.  A change to
how the static-snapshot API reads the topology must leave all of them
unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis.topology import (
    backbone_nodes,
    gateway_nodes,
    summarize_structure,
)
from repro.clustering import (
    DmacClustering,
    HighestConnectivityClustering,
    LinkedClusterArchitecture,
    LowestIdClustering,
    MaxMinDCluster,
    MobDHopClustering,
    check_properties,
)
from repro.clustering.base import HEAD, MEMBER, UNASSIGNED
from repro.spatial import (
    Boundary,
    SquareRegion,
    compute_edges,
    edges_to_csr,
)

#: ``name -> (boundary, n_nodes, range, seed)`` of each pinned snapshot.
GRAPHS = {
    "open": (Boundary.OPEN, 90, 0.14, 0),
    "torus": (Boundary.TORUS, 90, 0.14, 1),
    "sparse": (Boundary.OPEN, 60, 0.07, 2),
    "single": (Boundary.TORUS, 1, 0.2, 3),
}


def _snapshot(edges: np.ndarray, n: int):
    """The topology argument the static-snapshot API takes."""
    return edges_to_csr(edges, n)


def _graph(name: str):
    boundary, n, r, seed = GRAPHS[name]
    region = SquareRegion(1.0, boundary)
    positions = region.uniform_positions(n, seed)
    edges = compute_edges(region, positions, r)
    return region, positions, edges, n, seed


def _snapshots(positions: np.ndarray, seed: int) -> list[np.ndarray]:
    """Three position snapshots, the given positions last."""
    rng = np.random.default_rng(seed + 100)
    older = positions - rng.normal(0.0, 0.01, positions.shape)
    oldest = older - rng.normal(0.0, 0.01, positions.shape)
    return [oldest, older, positions]


def _algorithms(positions: np.ndarray, seed: int) -> dict:
    n = len(positions)
    return {
        "lid": LowestIdClustering(),
        "lid-permuted": LowestIdClustering(
            np.random.default_rng(seed + 10).permutation(n)
        ),
        "hcc": HighestConnectivityClustering(),
        "dmac": DmacClustering(seed=seed),
        "lca": LinkedClusterArchitecture(),
        "maxmin-1": MaxMinDCluster(1),
        "maxmin-2": MaxMinDCluster(2),
        "maxmin-3": MaxMinDCluster(3),
        "mobdhop": MobDHopClustering(2),
        "mobdhop-snapshots": MobDHopClustering(
            2, snapshots=_snapshots(positions, seed), merge_threshold=0.012
        ),
    }


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


FORMATION_PINS = {
    "open": {
        "lid": "fb71ca758b5574a3",
        "lid-permuted": "598b036a9460ea43",
        "hcc": "c1fde203013c086d",
        "dmac": "ab4bf55e02269706",
        "lca": "55fa72253e8e086c",
        "maxmin-1": "311504f8775c030f",
        "maxmin-2": "ba8595f8dda74b6b",
        "maxmin-3": "cbcb4dde4542046b",
        "mobdhop": "adbb7d72a81103a7",
        "mobdhop-snapshots": "85290cefcebbe17d",
    },
    "single": {
        "lid": "4322fd2bc0a137d1",
        "lid-permuted": "4322fd2bc0a137d1",
        "hcc": "4322fd2bc0a137d1",
        "dmac": "4322fd2bc0a137d1",
        "lca": "4322fd2bc0a137d1",
        "maxmin-1": "4322fd2bc0a137d1",
        "maxmin-2": "4322fd2bc0a137d1",
        "maxmin-3": "4322fd2bc0a137d1",
        "mobdhop": "4322fd2bc0a137d1",
        "mobdhop-snapshots": "4322fd2bc0a137d1",
    },
    "sparse": {
        "lid": "2fbfffd8fa0fd667",
        "lid-permuted": "13a85528c1406c79",
        "hcc": "17173cecbf5558c8",
        "dmac": "cdaa422730113915",
        "lca": "7fb0e9a1db64794b",
        "maxmin-1": "d3ce46ad64f151e9",
        "maxmin-2": "070b6413e88c8481",
        "maxmin-3": "070b6413e88c8481",
        "mobdhop": "cb177b772a0ec846",
        "mobdhop-snapshots": "b81e3314d2a56f7e",
    },
    "torus": {
        "lid": "7ddde41276572c52",
        "lid-permuted": "043a6d7c5e38f236",
        "hcc": "ad3d8968e563c24d",
        "dmac": "4cf4f6df0e30f83e",
        "lca": "5683410d3c8fb216",
        "maxmin-1": "46ec32f3de5a34c7",
        "maxmin-2": "53be07df71d475e2",
        "maxmin-3": "38bb6a9c1cb4afe1",
        "mobdhop": "d5077284048f76c4",
        "mobdhop-snapshots": "56a1188166cdfcd5",
    },
}

#: Summary fields (NaN: no connected pair sampled), gateway and
#: backbone digests.
STRUCTURE_PINS = {
    ("open", "lid"): (
        (
            90, 26, 0.28888888888888886, 0.5666666666666667,
            0.8555555555555555, 1.0, 2.0, 0.14415134915171016,
        ),
        "04eabfd0f806836f",
        "7ad391cd6ff87474",
    ),
    ("open", "maxmin-2"): (
        (
            90, 19, 0.2111111111111111, 0.4777777777777778, 0.6888888888888889,
            0.7722772277227723, 4.0, 0.024548569685779772,
        ),
        "75e3283f62d0fe53",
        "175e53fadb98b0f5",
    ),
    ("torus", "lid"): (
        (
            90, 22, 0.24444444444444444, 0.7111111111111111,
            0.9555555555555556, 1.0, 2.0, 0.14102384588712916,
        ),
        "457adbaf57c1ef2c",
        "37632ca6ab76a2a3",
    ),
    ("torus", "maxmin-2"): (
        (
            90, 14, 0.15555555555555556, 0.7222222222222222,
            0.8777777777777778, 0.9916666666666667, 4.0, 0.1186998168787951,
        ),
        "20dc100c3fa72fa9",
        "b68f44eeb3920535",
    ),
    ("sparse", "lid"): (
        (
            60, 40, 0.6666666666666666, 0.06666666666666667,
            0.7333333333333333, float("nan"), 2.0, 0.07613543074572783,
        ),
        "187f63bf41f94f85",
        "e565f7d9658db761",
    ),
    ("sparse", "maxmin-2"): (
        (
            60, 38, 0.6333333333333333, 0.0, 0.6333333333333333, float("nan"),
            3.0, 0.07613543074572783,
        ),
        "e3b0c44298fc1c14",
        "62f068db7e4c0f0c",
    ),
}

VIOLATION_PINS = {
    "open": {
        "adjacent_heads": [
            (2, 43), (4, 18), (4, 53), (4, 72), (4, 81), (5, 6), (6, 78),
            (18, 22), (18, 53), (18, 72), (18, 81), (22, 53), (22, 72),
            (22, 81), (27, 34), (27, 62), (53, 72), (53, 81), (72, 81),
        ],
        "unaffiliated": [7, 10],
        "detached_members": [11],
        "dangling_members": [14, 18],
    },
    "torus": {
        "adjacent_heads": [
            (0, 4), (2, 78), (3, 22), (3, 32), (3, 52), (4, 15), (5, 22),
            (8, 70), (8, 78), (9, 78), (10, 32), (10, 43), (10, 52), (13, 62),
            (18, 70), (32, 43), (32, 52), (42, 43), (43, 57), (50, 86),
        ],
        "unaffiliated": [7, 11],
        "detached_members": [14],
        "dangling_members": [19, 22],
    },
}


def test_sparse_graph_has_isolated_nodes():
    _, _, edges, n, _ = _graph("sparse")
    assert len(np.setdiff1d(np.arange(n), edges.ravel())) > 0


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_formation_states_are_pinned(graph):
    _, positions, edges, n, seed = _graph(graph)
    topology = _snapshot(edges, n)
    found = {}
    for name, algorithm in _algorithms(positions, seed).items():
        state = algorithm.form(topology)
        found[name] = _digest(state.roles, state.head_of)
    assert found == FORMATION_PINS[graph]


@pytest.mark.parametrize("graph", ["open", "torus", "sparse"])
@pytest.mark.parametrize("algorithm", ["lid", "maxmin-2"])
def test_structure_summaries_are_pinned(graph, algorithm):
    region, positions, edges, n, seed = _graph(graph)
    topology = _snapshot(edges, n)
    state = _algorithms(positions, seed)[algorithm].form(topology)
    summary = summarize_structure(
        state, topology, positions, region, samples=120, rng=seed
    )
    gateways = gateway_nodes(state, topology)
    backbone = backbone_nodes(state, topology)
    fields, gateway_digest, backbone_digest = STRUCTURE_PINS[graph, algorithm]
    # ``assert_array_equal`` is exact and counts NaN equal to NaN.
    np.testing.assert_array_equal(dataclasses.astuple(summary), fields)
    assert _digest(gateways.astype(np.int64)) == gateway_digest
    assert _digest(backbone.astype(np.int64)) == backbone_digest


def _broken_state(graph: str):
    """A LID state on ``graph`` with every kind of P1/P2 violation."""
    _, positions, edges, n, _ = _graph(graph)
    state = LowestIdClustering().form(_snapshot(edges, n))
    members = np.flatnonzero(state.roles == MEMBER)
    roles, head_of = state.roles, state.head_of
    # Members promoted in place: each is adjacent to its old head (P1).
    for node in members[::8]:
        roles[node] = HEAD
        head_of[node] = node
    # Unaffiliated nodes (P2), both ways a node can lack a cluster.
    roles[members[1]] = UNASSIGNED
    head_of[members[2]] = -1
    # A member of a head that is not its neighbor (P2).
    node = members[3]
    linked = set(edges[edges[:, 0] == node, 1])
    linked |= set(edges[edges[:, 1] == node, 0])
    far = [h for h in np.flatnonzero(roles == HEAD) if h not in linked]
    head_of[node] = far[-1]
    # A member of a member and a head pointing elsewhere (P2).
    head_of[members[5]] = members[6]
    head_of[members[8]] = members[9]
    return state, edges, n


@pytest.mark.parametrize("graph", ["open", "torus"])
def test_violation_lists_are_pinned(graph):
    state, edges, n = _broken_state(graph)
    violations = check_properties(state, _snapshot(edges, n))
    assert dataclasses.asdict(violations) == VIOLATION_PINS[graph]
