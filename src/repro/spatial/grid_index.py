"""Uniform grid spatial index for unit-disk edge sets.

For ``N`` nodes with transmission range ``r`` in a square of side ``a``,
the dense ``O(N^2)`` distance matrix is exact but wasteful once
``r << a``.  The :class:`UniformGridIndex` bins nodes into cells of side
``>= r`` so that all neighbors of a node lie in its 3x3 cell
neighborhood (torus-aware when the region wraps), bringing expected
cost down to ``O(density * r^2)`` per node.

The index has one output, the sorted ``(E, 2)`` edge array of
:meth:`UniformGridIndex.neighbor_pairs`, computed by a *batched
cell-pair sweep*: every occupied cell is paired with its half stencil
in one CSR-style vectorized expansion, with no per-node Python loop.
Dense and per-node views are built from the edge set by the
simulation engine.

The edge set equals the dense metric's; tests assert this equivalence.
"""

from __future__ import annotations

import math

import numpy as np

from .region import Boundary, SquareRegion

__all__ = ["UniformGridIndex"]

#: Half of the 3x3 stencil: pairing each cell with these directed
#: offsets (plus the within-cell pairs) visits every unordered cell
#: pair of the full stencil exactly once.
_HALF_STENCIL = ((0, 1), (1, -1), (1, 0), (1, 1))


def _csr_expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each start/count pair.

    The standard vectorized CSR expansion: one output slot per
    candidate, no Python loop over the (potentially many) groups.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(starts, counts)
    )


class UniformGridIndex:
    """Rebuildable uniform grid over a :class:`SquareRegion`.

    Parameters
    ----------
    region:
        The square region whose metric (torus or Euclidean) governs
        distances.
    tx_range:
        The unit-disk radius; cells are no smaller than it, so the 3x3
        stencil holds every neighbor.
    """

    def __init__(self, region: SquareRegion, tx_range: float) -> None:
        if tx_range <= 0.0:
            raise ValueError(f"tx_range must be positive, got {tx_range}")
        self.region = region
        self.tx_range = tx_range
        # At least one cell; cells no smaller than the query radius.
        self.cells_per_side = max(1, int(math.floor(region.side / tx_range)))
        self.cell_size = region.side / self.cells_per_side
        self._positions: np.ndarray | None = None
        self._flat: np.ndarray | None = None
        self._order: np.ndarray | None = None
        self._start: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._sortkey: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _bin(self, pos: np.ndarray) -> np.ndarray:
        """Flat cell ids for ``pos`` (shared by rebuild and update so
        both paths bin identically)."""
        cells = np.floor(pos / self.cell_size).astype(np.int64)
        np.clip(cells, 0, self.cells_per_side - 1, out=cells)
        return cells[:, 0] * self.cells_per_side + cells[:, 1]

    def rebuild(self, positions: np.ndarray) -> None:
        """(Re)index the given positions."""
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (N, 2), got shape {pos.shape}")
        self._positions = pos
        flat = self._bin(pos)
        self._flat = flat
        self._order = np.argsort(flat, kind="stable")
        self._counts = np.bincount(flat, minlength=self.cells_per_side**2)
        self._start = np.concatenate(([0], np.cumsum(self._counts)))
        # Stable argsort of flat == sort by (cell, node id); keeping the
        # composite key lets update() repair the order by sorted merge.
        self._sortkey = flat[self._order] * np.int64(len(pos)) + self._order

    def update(self, positions: np.ndarray) -> int:
        """Incrementally re-index, re-binning only nodes that changed cell.

        With displacement-bounded mobility almost every node stays in
        its cell between steps, so instead of a fresh counting sort the
        moved nodes are dropped from the sorted order and merged back at
        their new ``(cell, id)`` rank — ``O(N + moved log moved)`` with
        the ``O(N log N)`` argsort skipped entirely.  Falls back to
        :meth:`rebuild` on first use, when the node count changes, or
        when more than a quarter of the nodes moved cell (at that churn
        the merge repair costs more than the counting sort it avoids).

        Returns the number of nodes whose cell changed.  The resulting
        index state is bit-identical to a :meth:`rebuild` at the same
        positions; tests enforce this.
        """
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (N, 2), got shape {pos.shape}")
        if self._flat is None or len(pos) != len(self._flat):
            self.rebuild(pos)
            return len(pos)
        n = len(pos)
        flat = self._bin(pos)
        changed = np.flatnonzero(flat != self._flat)
        self._positions = pos
        if changed.size == 0:
            return 0
        if changed.size * 4 > n:
            self.rebuild(pos)
            return int(changed.size)
        ncells = self.cells_per_side**2
        self._counts -= np.bincount(self._flat[changed], minlength=ncells)
        self._counts += np.bincount(flat[changed], minlength=ncells)
        self._start = np.concatenate(([0], np.cumsum(self._counts)))
        # Merge repair: strip the moved nodes out of the sorted order,
        # then insert them back at their new composite-key rank.
        moved = np.zeros(n, dtype=bool)
        moved[changed] = True
        keep = ~moved[self._order]
        base_order = self._order[keep]
        base_keys = self._sortkey[keep]
        ins_keys = flat[changed] * np.int64(n) + changed
        ins_sort = np.argsort(ins_keys)
        ins_keys = ins_keys[ins_sort]
        slots = np.searchsorted(base_keys, ins_keys)
        self._order = np.insert(base_order, slots, changed[ins_sort])
        self._sortkey = np.insert(base_keys, slots, ins_keys)
        self._flat = flat
        return int(changed.size)

    def candidate_pairs_raw(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw stencil candidate pairs ``(i, j)``, unfiltered.

        The batched cell-pair sweep behind :meth:`neighbor_pairs`:
        within-cell pairs plus the four half-stencil neighbor cells of
        every node's cell, expanded CSR-style.  No distance filtering or
        canonicalization happens here; when a wrapped grid has at most
        two cells per side the aliased stencil may emit duplicate and
        self pairs, which downstream filtering must drop.
        """
        if self._positions is None:
            raise RuntimeError("index not built; call rebuild() first")
        n = len(self._positions)
        empty = np.empty(0, dtype=np.int64)
        if n < 2:
            return empty, empty
        m = self.cells_per_side
        wrap = self.region.boundary is Boundary.TORUS
        order = self._order
        start = self._start
        flat_sorted = self._flat[order]
        seq = np.arange(n, dtype=np.int64)

        left_chunks: list[np.ndarray] = []
        right_chunks: list[np.ndarray] = []

        # Within-cell pairs: node at sorted slot p pairs with every
        # later slot of its own cell's contiguous bucket.
        counts = start[flat_sorted + 1] - seq - 1
        if counts.sum():
            left_chunks.append(np.repeat(seq, counts))
            right_chunks.append(_csr_expand(seq + 1, counts))

        # Cross-cell pairs: each node's cell against its half stencil.
        cell_x = flat_sorted // m
        cell_y = flat_sorted - cell_x * m
        for dx, dy in _HALF_STENCIL:
            tx, ty = cell_x + dx, cell_y + dy
            if wrap:
                sources = seq
                tx, ty = tx % m, ty % m
            else:
                inside = (tx >= 0) & (tx < m) & (ty >= 0) & (ty < m)
                if not inside.any():
                    continue
                sources = seq[inside]
                tx, ty = tx[inside], ty[inside]
            target = tx * m + ty
            counts = start[target + 1] - start[target]
            if counts.sum():
                left_chunks.append(np.repeat(sources, counts))
                right_chunks.append(_csr_expand(start[target], counts))

        if not left_chunks:
            return empty, empty
        return (
            order[np.concatenate(left_chunks)],
            order[np.concatenate(right_chunks)],
        )

    def neighbor_pairs(self) -> np.ndarray:
        """All unordered neighbor pairs as a sorted ``(E, 2)`` edge array.

        Pairs are returned with ``i < j`` and in lexicographic order so
        results are deterministic, directly diffable as edge sets, and
        equal to the dense metric's edge set.

        The computation is batched over *cell pairs*: the candidates of
        :meth:`candidate_pairs_raw`, distance-filtered at ``tx_range``
        in a single vectorized pass.
        """
        if self._positions is None:
            raise RuntimeError("index not built; call rebuild() first")
        n = len(self._positions)
        aliased = (
            self.region.boundary is Boundary.TORUS and self.cells_per_side <= 2
        )
        i, j = self.candidate_pairs_raw()
        if not len(i):
            return np.empty((0, 2), dtype=np.int64)
        dist = self.region.distance(self._positions[i], self._positions[j])
        keep = dist <= self.tx_range
        if aliased:
            # Aliased wrapped offsets can pair a cell with itself,
            # producing self-pairs; drop them before canonicalizing.
            keep &= i != j
        i, j = i[keep], j[keep]
        keys = np.minimum(i, j) * n + np.maximum(i, j)
        if aliased:
            # Aliased offsets also revisit the same cell pair, so the
            # same edge can be emitted more than once.
            keys = np.unique(keys)
        else:
            keys.sort()
        return np.column_stack((keys // n, keys % n))
