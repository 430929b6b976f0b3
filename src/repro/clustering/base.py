"""Cluster state representation and the one-hop formation framework.

A cluster structure assigns every node a role — cluster-head or
cluster-member — and every member a head it is affiliated to.  The
paper's properties for 1-HOP clustered networks:

* **P1** — no two cluster-heads are directly connected;
* **P2** — each node is affiliated to exactly one cluster, with its
  cluster-head at most one hop away.

Most classic one-hop algorithms (LID, HCC, DMAC) share one formation
skeleton and differ only in the *priority* that decides who becomes a
head: processing nodes from highest to lowest priority, an undecided
node joins the best neighboring head if one exists and otherwise
becomes a head itself.  :func:`sequential_formation` implements that
skeleton; the algorithm classes supply priorities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..spatial import Csr

__all__ = [
    "HEAD",
    "MEMBER",
    "UNASSIGNED",
    "Role",
    "ClusterState",
    "ClusteringAlgorithm",
    "sequential_formation",
]


class Role(enum.IntEnum):
    """Role of a node in the cluster structure."""

    UNASSIGNED = 0
    MEMBER = 1
    HEAD = 2


#: Plain-int role codes for hot paths.  On Python 3.11 every ``Role.HEAD``
#: attribute read goes through ``EnumType.__getattr__``; comparing the
#: ``roles`` array's raw ints against these costs nothing extra.
HEAD = int(Role.HEAD)
MEMBER = int(Role.MEMBER)
UNASSIGNED = int(Role.UNASSIGNED)


@dataclass
class ClusterState:
    """Roles and affiliations of all nodes.

    ``head_of[i]`` is the node id of ``i``'s cluster-head; heads point
    to themselves; unassigned nodes carry ``-1``.  ``sizes[h]`` counts
    the nodes whose ``head_of`` is ``h`` (the head included), kept up to
    date by :meth:`make_head` / :meth:`make_member` so a cluster's size
    is an ``O(1)`` read.  ``version`` counts those two mutations, so a
    view derived from the state (the backbone flood graph) is current
    while ``(state, version)`` is unchanged; writing ``roles`` or
    ``head_of`` directly bypasses it.
    """

    roles: np.ndarray
    head_of: np.ndarray
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    version: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.roles = np.asarray(self.roles, dtype=np.int8)
        self.head_of = np.asarray(self.head_of, dtype=np.int64)
        if self.roles.shape != self.head_of.shape:
            raise ValueError("roles and head_of must have equal shapes")
        affiliated = self.head_of[self.head_of >= 0]
        self.sizes = np.bincount(affiliated, minlength=len(self.head_of))

    # ------------------------------------------------------------------
    @classmethod
    def unassigned(cls, n: int) -> "ClusterState":
        """A fresh state with every node unassigned."""
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        return cls(
            roles=np.full(n, UNASSIGNED, dtype=np.int8),
            head_of=np.full(n, -1, dtype=np.int64),
        )

    @property
    def n_nodes(self) -> int:
        """Number of nodes covered by this state."""
        return len(self.roles)

    # ------------------------------------------------------------------
    # Mutation (kept here so role and affiliation stay consistent)
    # ------------------------------------------------------------------
    def _move(self, node: int, head: int) -> None:
        old = self.head_of.item(node)
        if old >= 0:
            self.sizes[old] -= 1
        self.sizes[head] += 1
        self.head_of[node] = head
        self.version += 1

    def make_head(self, node: int) -> None:
        """Declare ``node`` a cluster-head of its own cluster."""
        self.roles[node] = HEAD
        self._move(node, node)

    def make_member(self, node: int, head: int) -> None:
        """Affiliate ``node`` to cluster-head ``head``."""
        if self.roles.item(head) != HEAD:
            raise ValueError(f"node {head} is not a cluster-head")
        if node == head:
            raise ValueError("a head cannot be its own member")
        self.roles[node] = MEMBER
        self._move(node, head)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_head(self, node: int) -> bool:
        """Whether ``node`` is a cluster-head."""
        return self.roles[node] == HEAD

    def heads(self) -> np.ndarray:
        """Indices of all cluster-heads."""
        return np.flatnonzero(self.roles == HEAD)

    def members_of(self, head: int) -> np.ndarray:
        """Member indices of the cluster headed by ``head`` (excl. the head)."""
        return np.flatnonzero(
            (self.head_of == head) & (np.arange(self.n_nodes) != head)
        )

    def cluster_count(self) -> int:
        """Number of clusters (= number of heads)."""
        return int(np.sum(self.roles == HEAD))

    def head_ratio(self) -> float:
        """Measured cluster-head ratio ``P`` = heads / nodes."""
        return self.cluster_count() / self.n_nodes

    def cluster_sizes(self) -> np.ndarray:
        """Sizes (head included) of all clusters, sorted by head id."""
        return self.sizes[self.heads()]

    def same_cluster(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` belong to the same cluster."""
        return (
            self.head_of[u] >= 0
            and self.head_of[u] == self.head_of[v]
        )

    def cluster_nodes(self, head: int) -> np.ndarray:
        """All nodes of ``head``'s cluster, head included."""
        return np.flatnonzero(self.head_of == head)

    def copy(self) -> "ClusterState":
        """Deep copy of the state."""
        return ClusterState(self.roles.copy(), self.head_of.copy())


class ClusteringAlgorithm:
    """A clustering algorithm's formation stage.

    ``form`` builds a complete :class:`ClusterState` for a static
    topology.  One-hop algorithms define :meth:`head_priority`, which
    ranks the default ``form`` and which the reactive maintenance
    protocol uses to arbitrate P1 violations and member re-affiliation
    at runtime.
    """

    name: str = "clustering"

    def form(self, csr: Csr, rng=None) -> ClusterState:
        """Run cluster formation on the neighbor rows ``csr``.

        The default is :func:`sequential_formation` ranked by
        :meth:`head_priority` of the row lengths, the degrees.
        """
        priority = self.head_priority(np.diff(csr[0]))
        return sequential_formation(csr, priority)

    def head_priority(self, degrees: np.ndarray) -> np.ndarray:
        """Per-node priority from the degree vector: larger values win.

        ``degrees[i]`` is the current degree of node ``i``, and its
        length is the node count.  The default raises: algorithms that
        support reactive maintenance must override.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a head priority and "
            "cannot drive reactive maintenance"
        )


def sequential_formation(csr: Csr, priority: np.ndarray) -> ClusterState:
    """Shared one-hop formation skeleton over the neighbor rows ``csr``.

    Nodes are processed from highest to lowest ``priority`` (which must
    contain no ties — compose tie-breaks into the values).  An
    undecided node joins the highest-priority neighboring head if one
    exists, else becomes a head.  The resulting structure satisfies P1
    and P2 by construction.
    """
    indptr, indices = csr
    n = len(indptr) - 1
    priority = np.asarray(priority, dtype=float)
    if priority.shape != (n,):
        raise ValueError(
            f"priority must have shape ({n},), got {priority.shape}"
        )
    if len(np.unique(priority)) != n:
        raise ValueError("priority values must be unique (compose tie-breaks)")

    state = ClusterState.unassigned(n)
    bounds = np.asarray(indptr).tolist()
    for node in np.argsort(-priority, kind="stable").tolist():
        neighbor_idx = indices[bounds[node] : bounds[node + 1]]
        head_neighbors = neighbor_idx[state.roles[neighbor_idx] == HEAD]
        if len(head_neighbors):
            best = int(head_neighbors[np.argmax(priority[head_neighbors])])
            state.make_member(node, best)
        else:
            state.make_head(node)
    return state
