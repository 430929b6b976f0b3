"""Reactive maintenance for d-hop clusters (MobDHop / Max-Min style).

The paper's analysis is strictly one-hop, but its related-work set
(MobDHop [18], Max-Min [19]) and the authors' companion overhead study
[16] concern *d-hop* clusters, where a member may sit up to ``d`` hops
from its head along intra-cluster paths.  This protocol maintains that
generalized property reactively:

* **P2(d)** — every member has a path of length ≤ ``d`` to its head
  using only nodes of its own cluster;
* heads are only demoted when their cluster empties into another
  (d-hop structures tolerate nearby heads, so P1 is *not* enforced —
  matching MobDHop's merge-threshold semantics rather than LID/LCC).

Repair rule on a link break: the orphaned member (and transitively its
dependants, whose paths ran through it) re-affiliate — each joins the
adjacent cluster that can host it within ``d`` hops, or becomes a new
head.  Each re-affiliation costs one CLUSTER message, the same
accounting as the one-hop protocol, so the d=1 vs d>1 maintenance
traffic is directly comparable.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..obs.attribution import CAUSE_REAFFILIATION
from ..sim.engine import Protocol, Simulation
from .base import ClusteringAlgorithm, ClusterState, Role

__all__ = ["DHopClusterMaintenanceProtocol"]


class DHopClusterMaintenanceProtocol(Protocol):
    """Maintains P2(d) for a d-hop clustering algorithm.

    Parameters
    ----------
    algorithm:
        The d-hop formation algorithm (e.g.
        :class:`~repro.clustering.mobdhop.MobDHopClustering` or
        :class:`~repro.clustering.maxmin.MaxMinDCluster`).
    d:
        The hop bound members must keep to their head.
    """

    name = "dhop-cluster-maintenance"

    def __init__(self, algorithm: ClusteringAlgorithm, d: int) -> None:
        if d < 1:
            raise ValueError(f"d must be at least 1, got {d}")
        self.algorithm = algorithm
        self.d = d
        self.state: ClusterState | None = None

    # ------------------------------------------------------------------
    def on_attach(self, sim: Simulation) -> None:
        self.state = self.algorithm.form(sim.neighbor_csr)

    # ------------------------------------------------------------------
    # Distance bookkeeping
    # ------------------------------------------------------------------
    def _cluster_depths(self, sim: Simulation, head: int) -> dict[int, int]:
        """BFS depths from ``head`` over its own cluster's subgraph."""
        state = self.state
        members = set(int(x) for x in state.cluster_nodes(head))
        depths = {head: 0}
        queue: deque[int] = deque([head])
        lists = sim.adjacency_lists
        while queue:
            current = queue.popleft()
            if depths[current] >= self.d:
                continue
            for neighbor in lists[current]:
                if neighbor in members and neighbor not in depths:
                    depths[neighbor] = depths[current] + 1
                    queue.append(neighbor)
        return depths

    def _find_orphans(self, sim: Simulation, head: int) -> list[int]:
        """Members of ``head``'s cluster whose P2(d) no longer holds."""
        depths = self._cluster_depths(sim, head)
        return [
            int(node)
            for node in self.state.cluster_nodes(head)
            if int(node) not in depths
        ]

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _admitting_cluster(self, sim: Simulation, node: int) -> int | None:
        """A head whose cluster can host ``node`` within ``d`` hops.

        ``node`` qualifies for a cluster when it neighbors one of its
        nodes at depth ≤ d-1.  Ties resolve to the largest such depth
        margin, then the lowest head id (deterministic).
        """
        state = self.state
        best: tuple[int, int] | None = None  # (depth of contact, head)
        for neighbor in sim.adjacency_lists[node]:
            head = int(state.head_of[neighbor])
            if head < 0 or head == node:
                continue
            depths = self._cluster_depths(sim, head)
            contact_depth = depths.get(neighbor)
            if contact_depth is None or contact_depth + 1 > self.d:
                continue
            key = (contact_depth, head)
            if best is None or key < best:
                best = key
        return None if best is None else best[1]

    def _reaffiliate(self, sim: Simulation, node: int, time: float) -> None:
        host = self._admitting_cluster(sim, node)
        if host is not None:
            self.state.make_member(node, host)
        else:
            self.state.make_head(node)
        sim.stats.record(
            "cluster",
            1,
            sim.params.messages.p_cluster,
            cause=CAUSE_REAFFILIATION,
            node=node,
            cluster=int(node if host is None else host),
        )
        if sim.tracer.enabled:
            became_head = host is None
            sim.tracer.emit(
                "cluster_reaffiliation",
                time,
                sim=sim.sim_id,
                node=int(node),
                head=int(node if became_head else host),
                role="head" if became_head else "member",
            )
            if became_head:
                sim.tracer.emit(
                    "head_change",
                    time,
                    sim=sim.sim_id,
                    node=int(node),
                    kind="elect",
                )

    def _repair_cluster(self, sim: Simulation, head: int, time: float) -> None:
        """Re-home every orphan of ``head``'s cluster, deterministically."""
        state = self.state
        orphans = self._find_orphans(sim, head)
        for node in sorted(orphans):
            # The node may have been adopted while repairing a previous
            # orphan (it can ride along a re-homed neighbor's cluster).
            if state.head_of[node] == head:
                depths = self._cluster_depths(sim, head)
                if node in depths:
                    continue
                self._reaffiliate(sim, node, time)
        # A head whose cluster fully drained stays a singleton head —
        # legal in the d-hop model (no P1), no message needed.

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        state = self.state
        if state.head_of[u] != state.head_of[v]:
            return
        head = int(state.head_of[u])
        if head < 0:
            return
        self._repair_cluster(sim, head, time)

    # Link generations never violate P2(d); nothing to do.

    # ------------------------------------------------------------------
    # Introspection and invariants
    # ------------------------------------------------------------------
    def head_ratio(self) -> float:
        """Current measured cluster-head ratio."""
        return self.state.head_ratio()

    def cluster_count(self) -> int:
        """Current number of clusters."""
        return self.state.cluster_count()

    def violations(self, sim: Simulation) -> list[int]:
        """Nodes currently violating P2(d); empty when healthy."""
        broken: list[int] = []
        for head in self.state.heads():
            broken.extend(self._find_orphans(sim, int(head)))
        unassigned = np.flatnonzero(self.state.head_of < 0)
        broken.extend(int(x) for x in unassigned)
        return broken
