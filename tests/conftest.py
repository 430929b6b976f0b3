"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import MessageSizes, NetworkParameters
from repro.spatial import (
    Boundary,
    SquareRegion,
    adjacency_to_edges,
    edges_to_adjacency,
    edges_to_csr,
)


def csr(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` pair of a boolean adjacency matrix.

    The static-snapshot API (formation, the P1/P2 check, gateways and
    the structure metrics) reads CSR rows; hand-built test topologies
    are easiest to write as matrices.
    """
    return edges_to_csr(adjacency_to_edges(matrix), len(matrix))


@pytest.fixture
def params() -> NetworkParameters:
    """A mid-sized parameter point used across unit tests."""
    return NetworkParameters.from_fractions(
        n_nodes=100, range_fraction=0.15, velocity_fraction=0.05
    )


@pytest.fixture
def unit_torus() -> SquareRegion:
    """Unit square with wrap-around (the paper's simulation region)."""
    return SquareRegion(1.0, Boundary.TORUS)


@pytest.fixture
def unit_open() -> SquareRegion:
    """Unit square without wrapping (static-placement analyses)."""
    return SquareRegion(1.0, Boundary.OPEN)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_adjacency() -> np.ndarray:
    """A hand-checkable 6-node topology.

    Path 0-1-2 plus a triangle 3-4-5, with a bridge 2-3::

        0 - 1 - 2 - 3 - 4
                     \\ / |
                      5--+
    """
    n = 6
    adj = np.zeros((n, n), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]:
        adj[u, v] = adj[v, u] = True
    return adj


@pytest.fixture
def set_link():
    """``set_link(sim, u, v, up)``: switch one link of a live simulation.

    Commits the simulation's edge set with the link ``u``-``v`` present
    (``up``) or absent through the same private commit a step uses, so
    a link hook called next reads the changed topology through every
    neighbor view, as it would in a stepped run.
    """

    def set_link(sim, u: int, v: int, up: bool) -> None:
        adjacency = edges_to_adjacency(sim.edges, sim.n_nodes)
        adjacency[u, v] = adjacency[v, u] = up
        sim._set_edges(adjacency_to_edges(adjacency))

    return set_link
