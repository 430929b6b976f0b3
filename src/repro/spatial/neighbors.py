"""Neighbor-set computation and link-event extraction.

The simulator's core loop needs two operations: compute the unit-disk
connectivity of the current node positions, and diff two consecutive
snapshots into link *generation* and *break* events (the event stream
that drives HELLO, CLUSTER and ROUTE accounting).

The spatial layer's only connectivity output is the sorted **edge
set** — an ``(E, 2)`` integer array of pairs with ``i < j`` in
lexicographic order, as produced by :func:`compute_edges` /
:meth:`~repro.spatial.grid_index.UniformGridIndex.neighbor_pairs`.
Edge sets cost ``O(E)`` memory instead of ``O(N^2)`` and diff in
``O(E log E)`` (:func:`diff_edge_sets`).  The converters below build
the simulation engine's views from it: the dense boolean adjacency
matrix (:func:`edges_to_adjacency`) for clustering consumers that index
into a matrix, and the ascending per-node neighbor rows of a CSR pair
(:func:`edges_to_csr`), which serve both as Python lists
(:func:`edges_to_lists`) for the routing layer's ``O(degree)`` walks and
as the flood graph of backbone route discovery.

Whether an edge set is computed through the dense metric or the uniform
grid index is decided by a measured cost model (see
:data:`GRID_CROSSOVER_NODES`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_index import UniformGridIndex
from .region import SquareRegion

__all__ = [
    "GRID_CROSSOVER_NODES",
    "INCREMENTAL_MARGIN_FRACTION",
    "INCREMENTAL_MIN_AMORTIZED_STEPS",
    "MIN_GRID_CELLS_PER_SIDE",
    "LinkEvents",
    "adjacency_to_edges",
    "compute_edges",
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
    "select_connectivity_method",
]

#: Node count above which the grid index beats the dense metric for a
#: full edge-set recompute.  Measured with the engine bench harness
#: (``repro-manet bench --crossover``, recorded in ``BENCH_engine.json``;
#: see the README's Performance section): on the reference container
#: (1-core x86-64, NumPy 2.4) the grid's batched cell-pair sweep breaks
#: even with the dense ``O(N^2)`` distance matrix near N=64 at
#: r/a = 0.1, is ~2.5x faster by N=128 and >10x by N=512.  The constant
#: sits at the top of the break-even band so small networks keep the
#: allocation-free dense path.
GRID_CROSSOVER_NODES = 100

#: Below this many grid cells per side the 3x3 stencil spans most of
#: the region, so the grid degenerates into a slower dense scan.
MIN_GRID_CELLS_PER_SIDE = 4

#: Default candidate-cache margin of the incremental engine, as a
#: fraction of ``tx_range``: candidates are cached out to
#: ``(1 + fraction) * tx_range``.  A wider margin amortizes full
#: validations over more steps but inflates the per-step candidate set;
#: 0.5 balances the two at the paper's default velocities (see the
#: README Performance section).
INCREMENTAL_MARGIN_FRACTION = 0.5

#: The incremental engine only pays off if the margin buys at least
#: this many steps between full validations (worst case every pair
#: closes at ``2 * velocity`` per unit time).
INCREMENTAL_MIN_AMORTIZED_STEPS = 4


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


def select_connectivity_method(
    n_nodes: int,
    tx_range: float,
    side: float,
    velocity: float | None = None,
    dt: float | None = None,
) -> str:
    """Pick ``"dense"``, ``"grid"`` or ``"incremental"`` connectivity.

    The grid wins over the dense metric once the network is large
    (``n_nodes`` above the measured :data:`GRID_CROSSOVER_NODES`) *and*
    sparse enough that the 3x3 stencil prunes most pairs (at least
    :data:`MIN_GRID_CELLS_PER_SIDE` cells per side, i.e.
    ``tx_range * 4 <= side``).

    When the caller also supplies ``velocity`` and ``dt`` (the
    simulation does; one-shot recomputes do not), the incremental
    engine is preferred over the grid whenever temporal coherence pays:
    the *expanded* candidate radius must still be sparse, and the
    per-step displacement bound ``2 * velocity * dt`` must be small
    enough that the candidate margin amortizes a full validation over
    at least :data:`INCREMENTAL_MIN_AMORTIZED_STEPS` steps.  Static
    networks (``velocity == 0``) always qualify.  Without the mobility
    kwargs the historical dense/grid behavior is unchanged.
    """
    sparse_enough = tx_range * MIN_GRID_CELLS_PER_SIDE <= side
    if n_nodes <= GRID_CROSSOVER_NODES or not sparse_enough:
        return "dense"
    if velocity is not None and dt is not None:
        margin = INCREMENTAL_MARGIN_FRACTION * tx_range
        expanded_sparse = (
            (tx_range + margin) * MIN_GRID_CELLS_PER_SIDE <= side
        )
        step_churn = 2.0 * velocity * dt
        if (
            expanded_sparse
            and step_churn * INCREMENTAL_MIN_AMORTIZED_STEPS <= margin
        ):
            return "incremental"
    return "grid"


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


def edges_to_csr(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
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
    method: str = "auto",
) -> np.ndarray:
    """Sorted unit-disk edge set of ``positions`` under the region metric.

    ``method`` selects the dense metric (``"dense"``), a fresh grid
    index (``"grid"``), or the measured cost model (``"auto"``, the
    default).  Every path returns the identical edge array.
    """
    pos = np.asarray(positions, dtype=float)
    if method == "auto":
        method = select_connectivity_method(len(pos), tx_range, region.side)
    if method == "grid":
        index = UniformGridIndex(region, tx_range)
        index.rebuild(pos)
        return index.neighbor_pairs()
    if method != "dense":
        raise ValueError(
            f"method must be 'auto', 'dense' or 'grid', got {method!r}"
        )
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
    generated = curr[~np.isin(curr_keys, prev_keys, assume_unique=True)]
    broken = prev[~np.isin(prev_keys, curr_keys, assume_unique=True)]
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
