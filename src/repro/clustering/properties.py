"""Validators for the paper's one-hop clustering properties P1 and P2.

Any violation of these properties is exactly what triggers CLUSTER
messages in the maintenance stage, so the validators double as the
simulator's invariant checks: after every delivered link event the
maintained structure must satisfy both properties again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def check_properties(
    state: ClusterState, adjacency: np.ndarray
) -> PropertyViolations:
    """Check P1 and P2 of ``state`` against ``adjacency``."""
    adjacency = np.asarray(adjacency, dtype=bool)
    n = state.n_nodes
    if adjacency.shape != (n, n):
        raise ValueError(
            f"adjacency shape {adjacency.shape} does not match {n} nodes"
        )
    violations = PropertyViolations()

    heads = state.heads()
    head_adjacency = adjacency[np.ix_(heads, heads)]
    for i, j in zip(*np.nonzero(np.triu(head_adjacency, k=1))):
        violations.adjacent_heads.append((int(heads[i]), int(heads[j])))

    for node in range(n):
        role = state.roles[node]
        head = state.head_of[node]
        if role == UNASSIGNED or head < 0:
            violations.unaffiliated.append(node)
            continue
        if role == MEMBER:
            if state.roles[head] != HEAD:
                violations.dangling_members.append(node)
            elif not adjacency[node, head]:
                violations.detached_members.append(node)
        elif role == HEAD and head != node:
            violations.dangling_members.append(node)
    return violations


def assert_valid(state: ClusterState, adjacency: np.ndarray) -> None:
    """Raise ``AssertionError`` when the structure violates P1 or P2."""
    violations = check_properties(state, adjacency)
    if not violations.ok:
        raise AssertionError(violations.describe())
