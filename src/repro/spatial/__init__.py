"""Spatial substrate: square regions, metrics and the unit-disk pair sweep."""

from .region import Boundary, SquareRegion
from .incremental import (
    INCREMENTAL_MARGIN_FRACTION,
    IncrementalConnectivityEngine,
    IncrementalStepResult,
)
from .neighbors import (
    Csr,
    LinkEvents,
    adjacency_to_edges,
    compute_edges,
    csr_rows,
    csr_to_lists,
    degree_counts,
    degree_counts_from_edges,
    diff_adjacency,
    diff_edge_sets,
    edge_key,
    edge_keys,
    edges_to_adjacency,
    edges_to_csr,
    edges_to_lists,
    pairs_within,
)

__all__ = [
    "Boundary",
    "SquareRegion",
    "IncrementalConnectivityEngine",
    "IncrementalStepResult",
    "INCREMENTAL_MARGIN_FRACTION",
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
