"""Reactive inter-cluster route discovery (the hybrid protocol's outer half).

The paper assumes "a hybrid routing protocol which uses proactive
intra-cluster routing and reactive inter-cluster routing" and leaves the
reactive half uncounted in its lower bound.  This module implements a
concrete reactive discovery so the hybrid protocol is a complete,
runnable routing system — and so protocol-comparison experiments can
quantify the traffic the clustered structure saves:

Route requests are flooded over the *cluster backbone* only: a node
retransmits an RREQ iff it is a cluster-head or a gateway (a member with
a neighbor outside its own cluster).  Pure interior members stay silent,
which is exactly the flooding reduction clustering buys.  The reply is
unicast back along the discovered path.

Every flood is one compiled breadth-first search over a *flood graph*:
a ``2N``-row CSR matrix whose row ``i < N`` holds ``i``'s ascending
neighbors if ``i`` forwards (:func:`backbone_mask`) and nothing
otherwise, and whose row ``N + s`` holds all of ``s``'s neighbors, a
virtual root for a source that transmits whether or not it forwards.
The graph is built from :attr:`~repro.sim.engine.Simulation.neighbor_csr`
once per ``(edge set, cluster state, state version)`` and reused by
every flood until the topology or the clustering changes.  The search is
FIFO and scans each row in CSR order, like a queue walk over ascending
neighbor lists, so paths and transmission counts are those of that walk
(DESIGN.md "Neighbor views" gives the argument).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from ..obs.attribution import CAUSE_BROADCAST_FLOOD, CAUSE_ROUTE_DISCOVERY
from ..sim.engine import Simulation
from ..clustering.base import HEAD, MEMBER, ClusterState
from ..spatial import Csr
from .messages import rrep_bits, rreq_bits

__all__ = [
    "DiscoveryResult",
    "BroadcastResult",
    "is_gateway",
    "backbone_mask",
    "discover_route",
    "broadcast_flood",
]


@dataclass(frozen=True)
class DiscoveryResult:
    """Outcome of one reactive route discovery.

    ``path`` is the node sequence from source to destination (``None``
    when unreachable over the backbone); ``rreq_transmissions`` counts
    flood rebroadcasts, ``rrep_transmissions`` the reply unicast hops.
    """

    path: list[int] | None
    rreq_transmissions: int
    rrep_transmissions: int

    @property
    def found(self) -> bool:
        """Whether a route was discovered."""
        return self.path is not None

    @property
    def total_transmissions(self) -> int:
        """All control transmissions of the discovery."""
        return self.rreq_transmissions + self.rrep_transmissions


def is_gateway(state: ClusterState, csr: Csr, node: int) -> bool:
    """Whether ``node`` is a gateway (member with out-of-cluster neighbors)."""
    if state.roles[node] != MEMBER:
        return False
    my_head = state.head_of[node]
    indptr, indices = csr
    neighbors = indices[indptr[node] : indptr[node + 1]]
    return bool(np.any(state.head_of[neighbors] != my_head))


def backbone_mask(state: ClusterState, edges: np.ndarray) -> np.ndarray:
    """Per-node mask of heads and gateways over the edge set ``edges``.

    Node by node it equals ``roles == HEAD or is_gateway(...)``: an edge
    whose endpoints have different heads makes both endpoints gateway
    candidates, and only members among them are gateways.
    """
    head_of = state.head_of
    cross = edges[head_of[edges[:, 0]] != head_of[edges[:, 1]]]
    mask = np.zeros(len(head_of), dtype=bool)
    mask[cross.ravel()] = True
    roles = state.roles
    return (mask & (roles == MEMBER)) | (roles == HEAD)


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of one network-wide broadcast.

    ``reached`` counts nodes that received the message (including the
    source); ``transmissions`` counts nodes that retransmitted it.  For
    a blind flood the two are equal; the backbone flood's savings are
    ``reached - transmissions``.
    """

    reached: int
    transmissions: int

    @property
    def savings(self) -> int:
        """Receivers that did not need to retransmit."""
        return self.reached - self.transmissions


def broadcast_flood(
    sim: Simulation,
    source: int,
    state: ClusterState | None = None,
    record_stats: bool = True,
) -> BroadcastResult:
    """Flood a message network-wide, optionally over the cluster backbone.

    With ``state`` given, only cluster-heads and gateways retransmit
    (cluster-based flooding); without it, every reached node does
    (blind flooding, the baseline).  The source always transmits.  One
    search of the flood graph from the source's root row: every node it
    reaches received the message.  Statistics are recorded under
    ``"broadcast"``.
    """
    graph, forwards = _flood_graph(sim, state)
    order = breadth_first_order(
        graph, sim.n_nodes + source, directed=True, return_predecessors=False
    )
    # A forwarding neighbor re-discovers the source as a plain row; it
    # adds no node (the root already reached all its neighbors).
    receivers = order[1:]
    receivers = receivers[receivers != source]
    result = BroadcastResult(
        reached=1 + len(receivers),
        transmissions=1 + int(np.count_nonzero(forwards[receivers])),
    )
    if record_stats:
        bits = result.transmissions * rreq_bits(sim.params.messages)
        # Charged to the initiating source: the flood exists because
        # this node broadcast, even though relays transmit it.
        sim.stats.record(
            "broadcast",
            result.transmissions,
            bits,
            cause=CAUSE_BROADCAST_FLOOD,
            node=source,
        )
    return result


def discover_route(
    sim: Simulation,
    state: ClusterState,
    source: int,
    destination: int,
    record_stats: bool = True,
) -> DiscoveryResult:
    """Flood an RREQ over the backbone and unicast the RREP back.

    The flood is a deterministic FIFO breadth-first search: the source
    always transmits; a reached node retransmits iff it is a head or
    gateway, scanning its neighbors in ascending order; the destination
    absorbs the request and answers, which ends the flood.  The RREQ
    count is therefore the root plus every forwarder the search dequeues
    up to and including the node that discovers the destination (all of
    them when it is unreachable).  Statistics are recorded into
    ``sim.stats`` under ``"route_discovery"`` unless ``record_stats`` is
    false (e.g. for what-if measurements).
    """
    if source == destination:
        return DiscoveryResult(path=[source], rreq_transmissions=0, rrep_transmissions=0)

    graph, forwards = _flood_graph(sim, state)
    root = sim.n_nodes + source
    order, pred = breadth_first_order(
        graph, root, directed=True, return_predecessors=True
    )
    discoverer = pred.item(destination)
    # The flood ends once the discoverer has transmitted, or runs out
    # when the destination is unreachable.
    if discoverer < 0:
        end = len(order)
    else:
        end = int(np.flatnonzero(order == discoverer)[0]) + 1
    dequeued = order[1:end]
    # The source re-discovered by a forwarding neighbor is not dequeued
    # again by the flood: it already transmitted as the root.
    dequeued = dequeued[dequeued != source]
    transmissions = 1 + int(np.count_nonzero(forwards[dequeued]))

    if discoverer < 0:
        result = DiscoveryResult(
            path=None, rreq_transmissions=transmissions, rrep_transmissions=0
        )
    else:
        path = [destination]
        node = discoverer
        while node != root:
            path.append(node)
            node = pred.item(node)
        path.append(source)
        path.reverse()
        result = DiscoveryResult(
            path=path,
            rreq_transmissions=transmissions,
            rrep_transmissions=len(path) - 1,
        )

    if record_stats:
        messages = sim.params.messages
        bits = (
            result.rreq_transmissions * rreq_bits(messages)
            + result.rrep_transmissions * rrep_bits(messages)
        )
        # Charged to the requesting source (see broadcast_flood).
        sim.stats.record(
            "route_discovery",
            result.total_transmissions,
            bits,
            cause=CAUSE_ROUTE_DISCOVERY,
            node=source,
        )
    return result


#: Per simulation: the last flood graph, with the edge set, cluster state
#: and state version it was built from (held, so identity checks stay
#: valid while the entry lives).
_FLOOD_GRAPHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _flood_graph(
    sim: Simulation, state: ClusterState | None
) -> tuple[csr_matrix, np.ndarray]:
    """The ``2N``-row flood graph of ``sim``'s live edges and its forward mask.

    Row ``i < N`` holds ``i``'s neighbors iff ``i`` forwards (a head or
    gateway of ``state``; every node when ``state`` is ``None``); row
    ``N + s`` holds all of ``s``'s neighbors.  Cached per simulation
    until the edge set, the state or its version changes.
    """
    edges = sim.edges
    version = None if state is None else state.version
    cached = _FLOOD_GRAPHS.get(sim)
    if (
        cached is not None
        and cached[0] is edges
        and cached[1] is state
        and cached[2] == version
    ):
        return cached[3], cached[4]
    n = sim.n_nodes
    indptr, indices = sim.neighbor_csr
    if state is None:
        forwards = np.ones(n, dtype=bool)
    else:
        forwards = backbone_mask(state, edges)
    degrees = np.diff(indptr)
    kept = np.where(forwards, degrees, 0)
    graph_indptr = np.zeros(2 * n + 1, dtype=np.int32)
    np.cumsum(kept, out=graph_indptr[1 : n + 1])
    graph_indptr[n + 1 :] = graph_indptr[n] + indptr[1:]
    graph_indices = np.concatenate(
        (indices[np.repeat(forwards, degrees)], indices)
    ).astype(np.int32)
    graph = csr_matrix(
        (np.ones(len(graph_indices)), graph_indices, graph_indptr),
        shape=(2 * n, 2 * n),
    )
    _FLOOD_GRAPHS[sim] = (edges, state, version, graph, forwards)
    return graph, forwards
