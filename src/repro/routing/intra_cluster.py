"""Proactive intra-cluster routing (the hybrid protocol's inner half).

The paper's ROUTE analysis (Section 3.5.3): within every cluster, all
nodes keep proactive routes to all other nodes of the cluster; every
link change *inside* a cluster triggers one round of route-update
broadcasting in which each node of that cluster transmits once.  This
protocol reproduces exactly that accounting — its measured per-node
message rate is the simulation counterpart of Eqn (13) — and also
maintains real intra-cluster routing tables (shortest paths over the
cluster subgraph) so the hybrid protocol can actually forward packets.

Attach order matters: this protocol must be attached *before* the
cluster maintenance protocol so that, for a link break, it still sees
the pre-repair membership (a member–head break is an intra-cluster
change of the old cluster).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..obs.attribution import CAUSE_INTRA_CLUSTER_UPDATE, attributed
from ..sim.engine import Protocol, Simulation
from ..clustering.maintenance import ClusterMaintenanceProtocol
from .messages import route_update_bits

__all__ = ["IntraClusterRoutingProtocol"]


class IntraClusterRoutingProtocol(Protocol):
    """Cluster-scoped proactive distance-vector routing.

    Parameters
    ----------
    maintenance:
        The cluster maintenance protocol owning the cluster state.
    full_table:
        When true, each update message carries the full intra-cluster
        table (``m`` entries); otherwise a single changed entry.  This
        mirrors the two readings of Eqn (14).
    update_on_membership_change:
        When true, affiliation changes also trigger an update round in
        the node's new cluster — traffic the paper's lower bound
        deliberately omits (ablation knob).
    topology:
        ``"all"`` (default): any link change between two co-clustered
        nodes triggers an update round (the paper's reading).
        ``"star"``: only member↔own-head link changes trigger — the
        routing topology is the cluster star, whose link count the
        analysis knows *exactly* (``N(1-P)``), making the
        analysis/simulation comparison approximation-free.
    """

    name = "intra-cluster-routing"

    def __init__(
        self,
        maintenance: ClusterMaintenanceProtocol,
        full_table: bool = False,
        update_on_membership_change: bool = False,
        topology: str = "all",
    ) -> None:
        if topology not in ("all", "star"):
            raise ValueError(
                f"topology must be 'all' or 'star', got {topology!r}"
            )
        self.maintenance = maintenance
        self.full_table = full_table
        self.update_on_membership_change = update_on_membership_change
        self.topology = topology
        self._tables_dirty = True
        self._next_hop: dict[tuple[int, int], int] = {}
        if update_on_membership_change:
            maintenance.add_change_listener(self._on_membership_change)

    # ------------------------------------------------------------------
    # Overhead accounting
    # ------------------------------------------------------------------
    def _broadcast_round(self, sim: Simulation, head: int) -> None:
        """One update round: every node of ``head``'s cluster transmits."""
        state = self.maintenance.state
        size = state.sizes.item(head)
        entries = size if self.full_table else 1
        bits = route_update_bits(sim.params.messages, entries)
        # One transmission per cluster node, charged to each evenly.
        with attributed(
            sim,
            CAUSE_INTRA_CLUSTER_UPDATE,
            nodes=state.cluster_nodes,
            cluster=head,
        ):
            sim.stats.record("route", size, size * bits)

    def _handle_link_event(self, sim: Simulation, u: int, v: int) -> None:
        head_of = self.maintenance.state.head_of
        head = head_of.item(u)
        if head >= 0 and head == head_of.item(v):
            # Same cluster; a star link joins a member to its head.
            if self.topology == "all" or head == u or head == v:
                self._broadcast_round(sim, head)
        self._tables_dirty = True

    def on_link_up(self, sim: Simulation, u: int, v: int, time: float) -> None:
        self._handle_link_event(sim, u, v)

    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        self._handle_link_event(sim, u, v)

    def _on_membership_change(self, sim: Simulation, node: int, time: float) -> None:
        """Affiliation changed: flood the node's *new* cluster (optional)."""
        head = int(self.maintenance.state.head_of[node])
        self._broadcast_round(sim, head)
        self._tables_dirty = True

    # ------------------------------------------------------------------
    # Actual routing tables
    # ------------------------------------------------------------------
    def _rebuild_tables(self, sim: Simulation) -> None:
        """Recompute next hops over every cluster subgraph (BFS)."""
        self._next_hop = {}
        state = self.maintenance.state
        adjacency = sim.adjacency
        for head in state.heads():
            nodes = state.cluster_nodes(int(head))
            node_set = set(int(x) for x in nodes)
            for source in node_set:
                # BFS restricted to the cluster subgraph.
                parents = {source: source}
                queue = deque([source])
                while queue:
                    current = queue.popleft()
                    for neighbor in np.flatnonzero(adjacency[current]):
                        neighbor = int(neighbor)
                        if neighbor in node_set and neighbor not in parents:
                            parents[neighbor] = current
                            queue.append(neighbor)
                for destination, parent in parents.items():
                    if destination == source:
                        continue
                    # Walk back to find the first hop from source.
                    hop = destination
                    while parents[hop] != source:
                        hop = parents[hop]
                    self._next_hop[(source, destination)] = hop
        self._tables_dirty = False

    def next_hop(self, sim: Simulation, source: int, destination: int) -> int | None:
        """Next hop from ``source`` toward ``destination`` inside a cluster.

        Returns ``None`` when the two nodes are not in the same cluster
        or the cluster subgraph does not connect them (members of a
        one-hop cluster may be mutually unreachable without the head).
        """
        if self._tables_dirty:
            self._rebuild_tables(sim)
        return self._next_hop.get((source, destination))

    def path(self, sim: Simulation, source: int, destination: int) -> list[int] | None:
        """Full intra-cluster path, or ``None`` when not routable."""
        if not self.maintenance.state.same_cluster(source, destination):
            return None
        path = [source]
        current = source
        for _ in range(sim.n_nodes):
            hop = self.next_hop(sim, current, destination)
            if hop is None:
                return None
            path.append(hop)
            if hop == destination:
                return path
            current = hop
        return None  # pragma: no cover - cycle guard

    def table_size(self, sim: Simulation, node: int) -> int:
        """Number of destinations ``node`` keeps routes for.

        The paper notes storage is proportional to the cluster size.
        """
        if self._tables_dirty:
            self._rebuild_tables(sim)
        return sum(1 for (src, _dst) in self._next_hop if src == node)
