"""Spatial substrate: square regions, metrics and the unit-disk pair sweep."""

from .region import Boundary, SquareRegion
from .incremental import IncrementalConnectivityEngine, IncrementalStepResult
from .neighbors import (
    INCREMENTAL_MARGIN_FRACTION,
    INCREMENTAL_MIN_AMORTIZED_STEPS,
    INCREMENTAL_MIN_NODES,
    LinkEvents,
    adjacency_to_edges,
    compute_edges,
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
    select_connectivity_method,
)

__all__ = [
    "Boundary",
    "SquareRegion",
    "IncrementalConnectivityEngine",
    "IncrementalStepResult",
    "INCREMENTAL_MARGIN_FRACTION",
    "INCREMENTAL_MIN_AMORTIZED_STEPS",
    "INCREMENTAL_MIN_NODES",
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
    "pairs_within",
    "select_connectivity_method",
]
