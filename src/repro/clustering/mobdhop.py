"""MobDHop — mobility-based d-hop clustering (Er & Seah, WCNC 2004).

The authors' own algorithm from the paper's related-work set.  MobDHop
groups nodes whose *relative mobility* is low, growing clusters up to
``d`` hops around locally stable nodes.  The full protocol estimates
relative mobility from successive received-signal-strength samples; on
our simulator the equivalent observable is the change in pairwise
distance between consecutive position snapshots (same information,
minus radio noise — see DESIGN.md substitutions).

Implementation (documented simplification of the original's three
phases, preserving its head-selection criterion and the d-hop growth):

1. **Relative mobility estimation** — for each adjacent pair (each
   entry of the neighbor rows), the variation of their distance across
   the supplied position snapshots;
   a node's *stability* is the negated mean variation over its
   neighbors (stabler = higher).
2. **Head selection & growth** — nodes are processed from most to
   least stable; an undecided node becomes a head and absorbs all
   undecided nodes within ``d`` hops whose path-wise relative mobility
   stays below ``merge_threshold``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..spatial import Csr, csr_rows
from .base import ClusteringAlgorithm, ClusterState, Role

__all__ = ["MobDHopClustering", "relative_mobility"]


def relative_mobility(snapshots: list[np.ndarray], csr: Csr) -> np.ndarray:
    """Relative mobility of every entry of the neighbor rows ``csr``.

    Entry ``k`` is the mean absolute change, across consecutive
    snapshots, of the distance between node ``csr_rows(indptr)[k]`` and
    node ``indices[k]``.  At least two snapshots are required.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two position snapshots")
    indptr, indices = csr
    rows = csr_rows(indptr)
    total = np.zeros(len(indices))
    previous = None
    for snapshot in snapshots:
        snapshot = np.asarray(snapshot, dtype=float)
        diff = snapshot[rows] - snapshot[indices]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        if previous is not None:
            total += np.abs(dist - previous)
        previous = dist
    total /= len(snapshots) - 1
    return total


class MobDHopClustering(ClusteringAlgorithm):
    """Mobility-based variable-diameter (d-hop) clustering.

    Parameters
    ----------
    d:
        Maximum hop radius of a cluster.
    snapshots:
        Recent position snapshots (most recent last) used to estimate
        relative mobility.  When omitted, all pairs are considered
        equally stable and MobDHop degenerates to a d-hop id-based
        scheme (useful for static topologies).
    merge_threshold:
        Maximum acceptable relative mobility along an absorption path;
        ``None`` disables the stability gate.
    """

    name = "mobdhop"

    def __init__(
        self,
        d: int = 2,
        snapshots: list[np.ndarray] | None = None,
        merge_threshold: float | None = None,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be at least 1, got {d}")
        self.d = d
        self.snapshots = snapshots
        self.merge_threshold = merge_threshold

    def form(self, csr: Csr, rng=None) -> ClusterState:
        indptr, indices = csr
        n = len(indptr) - 1
        stability = np.zeros(n)
        if self.snapshots is not None:
            mobility = relative_mobility(self.snapshots, csr)
            for i in np.flatnonzero(np.diff(indptr)):
                stability[i] = -mobility[indptr[i] : indptr[i + 1]].mean()
        else:
            mobility = np.zeros(len(indices))
        # Unique processing order: stability major, low id minor.
        order = np.lexsort((np.arange(n), -stability))

        state = ClusterState.unassigned(n)
        for node in order.tolist():
            if state.roles[node] != Role.UNASSIGNED:
                continue
            state.make_head(node)
            # Absorb undecided nodes within d hops over acceptable links.
            depth = {node: 0}
            queue: deque[int] = deque([node])
            while queue:
                current = queue.popleft()
                if depth[current] >= self.d:
                    continue
                for entry in range(indptr[current], indptr[current + 1]):
                    neighbor = int(indices[entry])
                    if neighbor in depth:
                        continue
                    if state.roles[neighbor] != Role.UNASSIGNED:
                        continue
                    if (
                        self.merge_threshold is not None
                        and mobility[entry] > self.merge_threshold
                    ):
                        continue
                    depth[neighbor] = depth[current] + 1
                    state.make_member(neighbor, node)
                    queue.append(neighbor)
        return state
