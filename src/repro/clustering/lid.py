"""Lowest-ID (LID) clustering (Gerla & Tsai; Lin & Gerla).

The algorithm the paper analyzes in Section 5: every node has a unique
id; a node becomes a cluster-head iff it has the smallest id among the
nodes of its closed neighborhood that have not yet joined any cluster,
and an undecided node with a neighboring head joins the lowest-id such
head.  Processing nodes in increasing id order is a valid linearization
of the distributed algorithm (a node decides once all lower-id nodes
have), so formation is implemented through the shared sequential
skeleton with priority ``-id``.
"""

from __future__ import annotations

import numpy as np

from .base import ClusteringAlgorithm

__all__ = ["LowestIdClustering"]


class LowestIdClustering(ClusteringAlgorithm):
    """LID clustering with optional id permutation.

    Parameters
    ----------
    ids:
        Explicit node ids (a permutation of ``0..N-1`` or any unique
        integers).  When omitted, ids equal node indices.  Passing a
        random permutation decorrelates ids from any structure the
        caller's node indexing might carry.
    """

    name = "lid"

    def __init__(self, ids: np.ndarray | None = None) -> None:
        self.ids = None if ids is None else np.asarray(ids)
        if self.ids is not None and len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("node ids must be unique")

    def _ids_for(self, n: int) -> np.ndarray:
        if self.ids is None:
            return np.arange(n)
        if len(self.ids) != n:
            raise ValueError(
                f"configured ids cover {len(self.ids)} nodes, topology has {n}"
            )
        return self.ids

    def head_priority(self, degrees: np.ndarray) -> np.ndarray:
        """Lower id wins head contention: priority is ``-id``."""
        return -self._ids_for(len(degrees)).astype(float)
