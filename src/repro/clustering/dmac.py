"""DMAC — Distributed Mobility-Adaptive Clustering (Basagni, 1999).

DMAC generalizes LID/HCC to an arbitrary per-node *weight*: the highest
weight in a neighborhood wins head contention.  Basagni's protocol
specifies exactly the two reactive maintenance rules the paper's
CLUSTER analysis counts — ``CH(v)`` when a node declares itself head
and ``JOIN(v, u)`` when it affiliates — both subsumed by the generic
one-hop maintenance protocol with DMAC's weight as the priority.

Weights default to a seeded random draw (Basagni's generic setting); a
mobility-aware weight can be injected for mobility-adaptive behaviour.
"""

from __future__ import annotations

import numpy as np

from .base import ClusteringAlgorithm

__all__ = ["DmacClustering"]


class DmacClustering(ClusteringAlgorithm):
    """Weight-based clustering with the DMAC contention rule.

    Parameters
    ----------
    weights:
        Per-node weights; higher weight wins.  When omitted, weights
        are drawn uniformly at random with ``seed``.
    seed:
        Seed for the default random weights.
    """

    name = "dmac"

    def __init__(self, weights: np.ndarray | None = None, seed: int = 0) -> None:
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        self.seed = seed

    def _weights_for(self, n: int) -> np.ndarray:
        if self.weights is not None:
            if len(self.weights) != n:
                raise ValueError(
                    f"configured weights cover {len(self.weights)} nodes, "
                    f"topology has {n}"
                )
            return self.weights
        rng = np.random.default_rng(self.seed)
        self.weights = rng.uniform(size=n)
        return self.weights

    def head_priority(self, degrees: np.ndarray) -> np.ndarray:
        """DMAC priority: the node weight, with ``-id`` as tie-break."""
        n = len(degrees)
        weights = self._weights_for(n)
        # Random floats are almost surely unique, but compose the id
        # tie-break anyway so the formation contract (unique priorities)
        # holds for any injected weights.
        order = np.argsort(np.lexsort((np.arange(n), -weights)))
        return -(order.astype(float))
