"""Validators for the paper's one-hop clustering properties P1 and P2.

Any violation of these properties is exactly what triggers CLUSTER
messages in the maintenance stage, so the validators double as the
simulator's invariant checks: after every delivered link event the
maintained structure must satisfy both properties again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..spatial import Csr, csr_rows
from .base import HEAD, MEMBER, UNASSIGNED, ClusterState

__all__ = ["PropertyViolations", "check_properties", "assert_valid"]


@dataclass
class PropertyViolations:
    """Violations of P1/P2 found in a cluster state.

    ``adjacent_heads`` lists head pairs violating P1;
    ``unaffiliated`` lists nodes with no cluster (P2);
    ``detached_members`` lists members whose head is not a neighbor (P2);
    ``dangling_members`` lists members affiliated to a non-head (P2).
    """

    adjacent_heads: list[tuple[int, int]] = field(default_factory=list)
    unaffiliated: list[int] = field(default_factory=list)
    detached_members: list[int] = field(default_factory=list)
    dangling_members: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violations were found."""
        return not (
            self.adjacent_heads
            or self.unaffiliated
            or self.detached_members
            or self.dangling_members
        )

    def describe(self) -> str:
        """Human-readable summary (used in assertion messages)."""
        if self.ok:
            return "cluster structure satisfies P1 and P2"
        parts = []
        if self.adjacent_heads:
            parts.append(f"P1: adjacent head pairs {self.adjacent_heads[:5]}")
        if self.unaffiliated:
            parts.append(f"P2: unaffiliated nodes {self.unaffiliated[:5]}")
        if self.detached_members:
            parts.append(f"P2: detached members {self.detached_members[:5]}")
        if self.dangling_members:
            parts.append(f"P2: members of non-heads {self.dangling_members[:5]}")
        return "; ".join(parts)


def check_properties(state: ClusterState, csr: Csr) -> PropertyViolations:
    """Check P1 and P2 of ``state`` against the neighbor rows ``csr``.

    ``adjacent_heads`` is in sorted-edge order, the node lists ascend.
    """
    if isinstance(csr, np.ndarray) and csr.ndim == 2:
        # Only perfbench/workloads.py's check_structure passes a dense
        # matrix; this branch goes when that benchmark next changes.
        rows, indices = np.nonzero(csr)
        csr = np.searchsorted(rows, np.arange(len(csr) + 1)), indices
    indptr, indices = csr
    n = state.n_nodes
    if len(indptr) != n + 1:
        raise ValueError(
            f"CSR has {len(indptr) - 1} rows, the state covers {n} nodes"
        )
    roles, head_of = state.roles, state.head_of
    rows = csr_rows(indptr)
    is_head = roles == HEAD
    p1 = (rows < indices) & is_head[rows] & is_head[indices]
    unaffiliated = (roles == UNASSIGNED) | (head_of < 0)
    members = (roles == MEMBER) & ~unaffiliated
    dangling = is_head & ~unaffiliated & (head_of != np.arange(n))
    dangling[members] = roles[head_of[members]] != HEAD
    detached = members & ~dangling
    detached[rows[indices == head_of[rows]]] = False
    return PropertyViolations(
        adjacent_heads=list(zip(rows[p1].tolist(), indices[p1].tolist())),
        unaffiliated=np.flatnonzero(unaffiliated).tolist(),
        detached_members=np.flatnonzero(detached).tolist(),
        dangling_members=np.flatnonzero(dangling).tolist(),
    )


def assert_valid(state: ClusterState, csr: Csr) -> None:
    """Raise ``AssertionError`` when the structure violates P1 or P2."""
    violations = check_properties(state, csr)
    if not violations.ok:
        raise AssertionError(violations.describe())
