"""Spatial substrate: square regions, metrics and neighbor indexing."""

from .region import Boundary, SquareRegion
from .grid_index import UniformGridIndex
from .incremental import IncrementalConnectivityEngine, IncrementalStepResult
from .neighbors import (
    GRID_CROSSOVER_NODES,
    INCREMENTAL_MARGIN_FRACTION,
    INCREMENTAL_MIN_AMORTIZED_STEPS,
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
    select_connectivity_method,
)

__all__ = [
    "Boundary",
    "SquareRegion",
    "UniformGridIndex",
    "IncrementalConnectivityEngine",
    "IncrementalStepResult",
    "GRID_CROSSOVER_NODES",
    "INCREMENTAL_MARGIN_FRACTION",
    "INCREMENTAL_MIN_AMORTIZED_STEPS",
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
