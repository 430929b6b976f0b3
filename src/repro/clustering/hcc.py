"""Highest Connectivity Clustering (HCC; Gerla & Tsai).

The degree-based alternative to LID from the paper's related-work set:
head contention is won by the node with the highest degree, with lower
id breaking ties.  Because degree is topology-dependent, the priority is
recomputed from the degrees at formation time; during reactive
maintenance the degree at the moment of the triggering event is used.
"""

from __future__ import annotations

import numpy as np

from .base import ClusteringAlgorithm

__all__ = ["HighestConnectivityClustering"]


class HighestConnectivityClustering(ClusteringAlgorithm):
    """HCC: highest degree wins, ties broken by lowest id."""

    name = "hcc"

    def head_priority(self, degrees: np.ndarray) -> np.ndarray:
        """Composite priority: degree major, ``-id`` minor.

        Degrees are integers and ids are unique, so scaling the degree
        by the node count and subtracting the id yields a unique
        priority with the intended lexicographic order.
        """
        degrees = np.asarray(degrees, dtype=float)
        n = len(degrees)
        return degrees * n - np.arange(n)
