"""Linked Cluster Architecture (LCA; Baker & Ephremides, 1981).

The earliest of the id-based schemes in the paper's related-work set.
A node ``i`` becomes a cluster-head iff

* it has the highest id in its closed neighborhood, **or**
* it is the highest-id node in the closed neighborhood of at least one
  of its neighbors (i.e. some neighbor would otherwise be left without
  a head).

Every non-head then affiliates to its highest-id neighboring head.
Unlike LID/HCC, LCA can produce *adjacent* heads (it predates property
P1), which is why it participates in the formation comparison but not
in the P1-enforcing reactive maintenance.
"""

from __future__ import annotations

import numpy as np

from ..spatial import Csr, csr_rows
from .base import ClusteringAlgorithm, ClusterState

__all__ = ["LinkedClusterArchitecture"]


class LinkedClusterArchitecture(ClusteringAlgorithm):
    """LCA formation on a static topology."""

    name = "lca"

    def form(self, csr: Csr, rng=None) -> ClusterState:
        indptr, indices = csr
        n = len(indptr) - 1
        rows = csr_rows(indptr)
        ids = np.arange(n)

        # Highest id of each closed neighborhood.
        neighborhood_max = ids.copy()
        np.maximum.at(neighborhood_max, rows, indices)
        # Rule 1: locally highest.
        is_head = neighborhood_max == ids
        # Rule 2: highest in some neighbor's closed neighborhood.
        is_head[rows[neighborhood_max[indices] == rows]] = True

        state = ClusterState.unassigned(n)
        for head in np.flatnonzero(is_head):
            state.make_head(int(head))
        for node in np.flatnonzero(~is_head):
            node = int(node)
            row = indices[indptr[node] : indptr[node + 1]]
            # Rule 2 guarantees at least one neighboring head exists.
            state.make_member(node, int(row[is_head[row]].max()))
        return state
