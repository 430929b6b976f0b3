"""Neighbor-set computation and link-event extraction.

Two operations underlie the simulator's core loop: compute the
unit-disk connectivity of the current node positions, and diff two
consecutive snapshots into link *generation* and *break* events (the
event stream that drives HELLO, CLUSTER and ROUTE accounting).  The
simulation steps with the incremental engine
(:mod:`repro.spatial.incremental`), which builds on the sweep below and
reports its own exact events on every step after its first, validation
steps included; edge sets are diffed (:func:`diff_edge_sets`) only
while a radio is failed.

The spatial layer's only connectivity output is the sorted **edge
set** — an ``(E, 2)`` integer array of pairs with ``i < j`` in
lexicographic order, as produced by :func:`compute_edges`.  Edge sets
cost ``O(E)`` memory instead of ``O(N^2)`` and diff in ``O(E log E)``
(:func:`diff_edge_sets`).  The neighbor view built from it is the
ascending per-node rows of a CSR ``(indptr, indices)`` pair
(:func:`edges_to_csr`): the static-snapshot API (formation, the P1/P2
check, gateways and the structure metrics) reads them directly, the
routing layer's ``O(degree)`` walks read them as Python lists
(:func:`edges_to_lists`), and backbone route discovery builds its flood
graph from them.  The dense boolean matrix (:func:`edges_to_adjacency`)
stays only as a test reference.

Every batch pair search is one function, :func:`pairs_within`: a
KD-tree sweep (periodic on the torus) at a slightly inflated radius,
trimmed by the bit-exact :func:`_pair_distances`.  The incremental
engine's full validation calls it at its candidate radius, and
:func:`compute_edges`, for one-shot snapshots and bare benchmark
loops, at the transmission range.  The dense ``N x N`` metric
(``method="dense"``) stays as the test reference.

:func:`_pair_distances` replaces the round-based torus wrap of
:meth:`SquareRegion.displacement` with ``min(|d|, side - |d|)``:
IEEE-754 subtraction rounds symmetrically (``fl(a - b) == -fl(b - a)``),
so both forms produce the same wrapped magnitude bit for bit and the
final ``sqrt(dx*dx + dy*dy)`` matches ``region.distance`` exactly, while
skipping ``np.round``.  Tests assert the bitwise equality directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .region import Boundary, SquareRegion

__all__ = [
    "Csr",
    "LinkEvents",
    "adjacency_to_edges",
    "compute_edges",
    "csr_rows",
    "csr_to_lists",
    "degree_counts",
    "degree_counts_from_edges",
    "diff_adjacency",
    "diff_edge_sets",
    "edge_key",
    "edge_keys",
    "edges_to_adjacency",
    "edges_to_csr",
    "edges_to_lists",
    "pairs_within",
]

#: Relative inflation of the KD-tree query radius: the tree's distances
#: may round differently from :func:`_pair_distances`, so it must return
#: a superset, which the bit-exact filter then trims.
_QUERY_SLACK = 1e-9

#: A CSR ``(indptr, indices)`` pair: row ``i``,
#: ``indices[indptr[i]:indptr[i + 1]]``, holds the ascending neighbors
#: of node ``i`` (:func:`edges_to_csr`).
Csr = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class LinkEvents:
    """Link changes between two consecutive connectivity snapshots.

    ``generated`` and ``broken`` are ``(E, 2)`` arrays of node index
    pairs with ``i < j``, lexicographically sorted.
    """

    generated: np.ndarray
    broken: np.ndarray

    @property
    def generation_count(self) -> int:
        """Number of links that appeared."""
        return len(self.generated)

    @property
    def break_count(self) -> int:
        """Number of links that disappeared."""
        return len(self.broken)

    @property
    def change_count(self) -> int:
        """Total number of link changes."""
        return self.generation_count + self.break_count


def _pair_distances(
    region: SquareRegion, pos: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Distances of the node pairs, bit-equal to ``region.distance``.

    The torus wrap uses ``min(|d|, side - |d|)`` instead of the
    round-based form: identical magnitudes under IEEE-754 (module
    docstring), at a fraction of the cost of ``np.round``.
    """
    x = np.ascontiguousarray(pos[:, 0])
    y = np.ascontiguousarray(pos[:, 1])
    dx = x.take(i)
    dx -= x.take(j)
    dy = y.take(i)
    dy -= y.take(j)
    np.abs(dx, out=dx)
    np.abs(dy, out=dy)
    if region.boundary is Boundary.TORUS:
        side = region.side
        np.minimum(dx, side - dx, out=dx)
        np.minimum(dy, side - dy, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def pairs_within(
    region: SquareRegion, positions: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair within ``radius`` under the region metric, key-sorted.

    Returns ``(i, j, dist)``: ``i < j``, ascending in ``(i, j)``, and
    ``dist`` the bit-exact :func:`_pair_distances` of each pair, all
    ``<= radius``.  One KD-tree sweep at a radius inflated by
    :data:`_QUERY_SLACK` finds a superset; on the torus the tree is
    periodic (``boxsize=side``) over an ``np.mod`` copy of the
    positions.
    """
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    if region.boundary is Boundary.TORUS:
        side = region.side
        # The periodic tree needs coordinates in [0, side); np.mod can
        # round a tiny negative up to exactly side, which folds to 0 as
        # in SquareRegion.apply_boundary.
        points = np.mod(pos, side)
        points[points >= side] = 0.0
        tree = cKDTree(points, boxsize=side)
    else:
        tree = cKDTree(pos)
    pairs = tree.query_pairs(
        radius * (1.0 + _QUERY_SLACK), output_type="ndarray"
    )
    # query_pairs emits i < j, so the keys are canonical and unique: a
    # plain (unstable) sort is deterministic.  The smallest unsigned
    # type that holds n * n sorts and divides faster than int64.
    keys = pairs[:, 0] * n
    keys += pairs[:, 1]
    keys = keys.astype(np.min_scalar_type(max(n * n - 1, 0)))
    keys.sort()
    i = keys // n
    j = keys - i * n
    i = i.astype(np.int64)
    j = j.astype(np.int64)
    dist = _pair_distances(region, pos, i, j)
    keep = dist <= radius
    if not keep.all():
        i, j, dist = i[keep], j[keep], dist[keep]
    return i, j, dist


def adjacency_to_edges(adjacency: np.ndarray) -> np.ndarray:
    """Sorted ``(E, 2)`` edge array of a symmetric boolean adjacency."""
    upper = np.triu(np.asarray(adjacency, dtype=bool), k=1)
    rows, cols = np.nonzero(upper)
    return np.column_stack((rows, cols)).astype(np.int64, copy=False)


def edges_to_adjacency(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Dense boolean adjacency matrix of an ``(E, 2)`` edge array."""
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
    adj = np.zeros((n_nodes, n_nodes), dtype=bool)
    edges = _as_edge_array(edges)
    if len(edges):
        adj[edges[:, 0], edges[:, 1]] = True
        adj[edges[:, 1], edges[:, 0]] = True
    return adj


def edges_to_csr(edges: np.ndarray, n_nodes: int) -> Csr:
    """``(indptr, indices)`` CSR form of a sorted edge set, both directions.

    Row ``i`` is ``indices[indptr[i]:indptr[i + 1]]``, the ascending
    neighbors of ``i``, equal to ``np.flatnonzero(edges_to_adjacency(
    edges, n_nodes)[i])``; built in ``O(N + E)`` plus one stable sort.
    """
    edges = _as_edge_array(edges)
    # Neighbors of x are the e[:, 0] of edges (., x), ascending because
    # the set is sorted, then the e[:, 1] of edges (x, .), ascending and
    # all larger: a stable sort by x keeps both runs in place.
    owners = np.concatenate((edges[:, 1], edges[:, 0]))
    others = np.concatenate((edges[:, 0], edges[:, 1]))
    # Sorting the smallest unsigned type that holds every id gives the
    # same order; numpy radix-sorts keys of up to 16 bits.
    keys = owners.astype(np.min_scalar_type(max(n_nodes - 1, 0)))
    indices = others[np.argsort(keys, kind="stable")]
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n_nodes), out=indptr[1:])
    return indptr, indices


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """Row of every CSR entry: entry ``k`` links it to ``indices[k]``."""
    indptr = np.asarray(indptr)
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def csr_to_lists(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """Per-row Python int lists of a CSR ``(indptr, indices)`` pair."""
    flat = indices.tolist()
    bounds = indptr.tolist()
    return [flat[start:stop] for start, stop in zip(bounds, bounds[1:])]


def edges_to_lists(edges: np.ndarray, n_nodes: int) -> list[list[int]]:
    """Ascending neighbor list of every node of a sorted edge set.

    ``lists[i]`` equals ``np.flatnonzero(edges_to_adjacency(edges,
    n_nodes)[i])`` as Python ints: the rows of :func:`edges_to_csr`.
    """
    return csr_to_lists(*edges_to_csr(edges, n_nodes))


def compute_edges(
    region: SquareRegion,
    positions: np.ndarray,
    tx_range: float,
    method: str = "tree",
) -> np.ndarray:
    """Sorted unit-disk edge set of ``positions`` under the region metric.

    ``method`` selects the KD-tree sweep of :func:`pairs_within`
    (``"tree"``, the default) or the dense ``N x N`` metric
    (``"dense"``, the test reference).  Both return the identical edge
    array.
    """
    if tx_range < 0.0:
        raise ValueError(f"tx_range must be non-negative, got {tx_range}")
    pos = np.asarray(positions, dtype=float)
    if method == "tree":
        i, j, _ = pairs_within(region, pos, tx_range)
        return np.column_stack((i, j))
    if method != "dense":
        raise ValueError(f"method must be 'tree' or 'dense', got {method!r}")
    return adjacency_to_edges(region.adjacency(pos, tx_range))


def _as_edge_array(edges: np.ndarray) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edge sets must be (E, 2) arrays, got {arr.shape}")
    return arr


_EDGE_KEY_SHIFT = 32


def edge_keys(edges: np.ndarray) -> np.ndarray:
    """Unique int64 key per edge, monotone in lexicographic pair order.

    A sorted canonical edge set (``i < j``, lexicographic) therefore has
    sorted keys, which :func:`edge_key` probes by binary search.
    """
    return (edges[:, 0] << np.int64(_EDGE_KEY_SHIFT)) | edges[:, 1]


def edge_key(i: int, j: int) -> int:
    """The :func:`edge_keys` key of the canonical pair ``(i, j)``, ``i < j``."""
    return (int(i) << _EDGE_KEY_SHIFT) | int(j)


def diff_edge_sets(previous: np.ndarray, current: np.ndarray) -> LinkEvents:
    """Extract link events between two sorted ``(E, 2)`` edge sets.

    Both inputs must be unique pairs with ``i < j`` in lexicographic
    order (the canonical form produced by :func:`compute_edges`).  Runs
    in ``O(E log E)`` and returns events identical to
    :func:`diff_adjacency` on the equivalent dense snapshots.
    """
    prev = _as_edge_array(previous)
    curr = _as_edge_array(current)
    prev_keys = edge_keys(prev)
    curr_keys = edge_keys(curr)
    generated = curr.compress(
        ~np.isin(curr_keys, prev_keys, assume_unique=True), axis=0
    )
    broken = prev.compress(
        ~np.isin(prev_keys, curr_keys, assume_unique=True), axis=0
    )
    return LinkEvents(generated=generated, broken=broken)


def _pairs_from_mask(mask: np.ndarray) -> np.ndarray:
    """Upper-triangle True entries of a symmetric mask as sorted pairs."""
    upper = np.triu(mask, k=1)
    rows, cols = np.nonzero(upper)
    return np.column_stack([rows, cols])


def diff_adjacency(previous: np.ndarray, current: np.ndarray) -> LinkEvents:
    """Extract link generation/break events between two adjacencies."""
    prev = np.asarray(previous, dtype=bool)
    curr = np.asarray(current, dtype=bool)
    if prev.shape != curr.shape:
        raise ValueError(
            f"adjacency shapes differ: {prev.shape} vs {curr.shape}"
        )
    generated = _pairs_from_mask(curr & ~prev)
    broken = _pairs_from_mask(prev & ~curr)
    return LinkEvents(generated=generated, broken=broken)


def degree_counts(adjacency: np.ndarray) -> np.ndarray:
    """Per-node degree vector of a boolean adjacency matrix."""
    return np.asarray(adjacency, dtype=bool).sum(axis=1)


def degree_counts_from_edges(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Per-node degree vector of an ``(E, 2)`` edge array."""
    edges = _as_edge_array(edges)
    return np.bincount(edges.ravel(), minlength=n_nodes)
