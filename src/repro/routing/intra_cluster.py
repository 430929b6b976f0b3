"""Proactive intra-cluster routing (the hybrid protocol's inner half).

The paper's ROUTE analysis (Section 3.5.3): within every cluster, all
nodes keep proactive routes to all other nodes of the cluster; every
link change *inside* a cluster triggers one round of route-update
broadcasting in which each node of that cluster transmits once.  This
protocol reproduces exactly that accounting — its measured per-node
message rate is the simulation counterpart of Eqn (13) — and also
maintains real intra-cluster routing tables (shortest paths over the
cluster subgraph) so the hybrid protocol can actually forward packets.

The tables are lazy and per source.  Any link event (or membership
change) marks them dirty; the next query snapshots the cluster
membership and :attr:`~repro.sim.engine.Simulation.adjacency_lists`,
and each source's table is then built on first use by one BFS over
that snapshot restricted to the source's cluster.  Every table of a
generation is thus computed against the same state an eager rebuild of
all clusters would have used, at the cost of only the sources actually
queried.

Attach order matters: this protocol must be attached *before* the
cluster maintenance protocol so that, for a link break, it still sees
the pre-repair membership (a member–head break is an intra-cluster
change of the old cluster).
"""

from __future__ import annotations

from collections import deque

from ..obs.attribution import CAUSE_INTRA_CLUSTER_UPDATE
from ..sim.engine import Protocol, Simulation
from ..clustering.base import HEAD
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
        #: Snapshot of the current table generation: the neighbor lists
        #: of the step it was taken in (``None`` once a link event made
        #: the tables dirty, so the old lists are freed) and each node's
        #: head (-1 when it belongs to no head's cluster).
        self._lists: list[list[int]] | None = None
        self._cluster_of: list[int] = []
        #: Per-source tables of the generation: destination -> next hop.
        self._tables: dict[int, dict[int, int]] = {}
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
        sim.stats.record(
            "route",
            size,
            size * bits,
            cause=CAUSE_INTRA_CLUSTER_UPDATE,
            nodes=state.cluster_nodes,
            cluster=head,
        )

    def _handle_link_event(self, sim: Simulation, u: int, v: int) -> None:
        head_of = self.maintenance.state.head_of
        head = head_of.item(u)
        if head >= 0 and head == head_of.item(v):
            # Same cluster; a star link joins a member to its head.
            if self.topology == "all" or head == u or head == v:
                self._broadcast_round(sim, head)
        self._lists = None

    def on_link_up(self, sim: Simulation, u: int, v: int, time: float) -> None:
        self._handle_link_event(sim, u, v)

    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        self._handle_link_event(sim, u, v)

    def _on_membership_change(self, sim: Simulation, node: int, time: float) -> None:
        """Affiliation changed: flood the node's *new* cluster (optional)."""
        head = int(self.maintenance.state.head_of[node])
        self._broadcast_round(sim, head)
        self._lists = None

    # ------------------------------------------------------------------
    # Actual routing tables
    # ------------------------------------------------------------------
    def _table(self, sim: Simulation, source: int) -> dict[int, int]:
        """``source``'s next hops, built on first use in this generation."""
        lists = self._lists
        if lists is None:
            state = self.maintenance.state
            roles = state.roles.tolist()
            self._cluster_of = [
                head if head >= 0 and roles[head] == HEAD else -1
                for head in state.head_of.tolist()
            ]
            lists = self._lists = sim.adjacency_lists
            self._tables = {}
        table = self._tables.get(source)
        if table is None:
            table = self._tables[source] = {}
            cluster_of = self._cluster_of
            cluster = cluster_of[source]
            if cluster >= 0:
                # BFS restricted to the cluster subgraph; a destination's
                # next hop is the first hop of the path that reached it.
                for neighbor in lists[source]:
                    if cluster_of[neighbor] == cluster:
                        table[neighbor] = neighbor
                queue = deque(table)
                while queue:
                    current = queue.popleft()
                    hop = table[current]
                    for neighbor in lists[current]:
                        if (
                            cluster_of[neighbor] == cluster
                            and neighbor not in table
                            and neighbor != source
                        ):
                            table[neighbor] = hop
                            queue.append(neighbor)
        return table

    def next_hop(self, sim: Simulation, source: int, destination: int) -> int | None:
        """Next hop from ``source`` toward ``destination`` inside a cluster.

        Returns ``None`` when the two nodes are not in the same cluster
        or the cluster subgraph does not connect them (members of a
        one-hop cluster may be mutually unreachable without the head).
        """
        return self._table(sim, source).get(destination)

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
        return len(self._table(sim, node))
