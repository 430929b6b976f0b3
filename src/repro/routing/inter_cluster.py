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

Each flood computes its forwarding set once, as one vectorized ``O(E)``
backbone mask over the edge set (:func:`backbone_mask`), and walks the
per-step :attr:`~repro.sim.engine.Simulation.adjacency_lists`, so a
discovery costs ``O(E)`` plus ``O(degree)`` per reached node instead of
an ``O(N)`` dense-row scan per node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..obs.attribution import (
    CAUSE_BROADCAST_FLOOD,
    CAUSE_ROUTE_DISCOVERY,
    attributed,
)
from ..sim.engine import Simulation
from ..clustering.base import HEAD, MEMBER, ClusterState
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


def is_gateway(state: ClusterState, adjacency: np.ndarray, node: int) -> bool:
    """Whether ``node`` is a gateway (member with out-of-cluster neighbors)."""
    if state.roles[node] != MEMBER:
        return False
    my_head = state.head_of[node]
    neighbors = np.flatnonzero(adjacency[node])
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
    (blind flooding, the baseline).  Statistics are recorded under
    ``"broadcast"``.
    """
    lists = sim.adjacency_lists
    forwards = None if state is None else backbone_mask(state, sim.edges).tolist()
    reached: set[int] = {source}
    queue: deque[int] = deque([source])
    transmissions = 0
    while queue:
        current = queue.popleft()
        if current != source and forwards is not None and not forwards[current]:
            continue
        transmissions += 1
        for neighbor in lists[current]:
            if neighbor not in reached:
                reached.add(neighbor)
                queue.append(neighbor)
    result = BroadcastResult(reached=len(reached), transmissions=transmissions)
    if record_stats:
        bits = result.transmissions * rreq_bits(sim.params.messages)
        # Charged to the initiating source: the flood exists because
        # this node broadcast, even though relays transmit it.
        with attributed(sim, CAUSE_BROADCAST_FLOOD, node=source):
            sim.stats.record("broadcast", result.transmissions, bits)
    return result


def discover_route(
    sim: Simulation,
    state: ClusterState,
    source: int,
    destination: int,
    record_stats: bool = True,
) -> DiscoveryResult:
    """Flood an RREQ over the backbone and unicast the RREP back.

    The flood is a deterministic BFS: the source always transmits; a
    reached node retransmits iff it is a head or gateway; the
    destination absorbs the request and answers.  Statistics are
    recorded into ``sim.stats`` under ``"route_discovery"`` unless
    ``record_stats`` is false (e.g. for what-if measurements).
    """
    if source == destination:
        return DiscoveryResult(path=[source], rreq_transmissions=0, rrep_transmissions=0)

    lists = sim.adjacency_lists
    forwards = backbone_mask(state, sim.edges).tolist()
    parents: dict[int, int] = {source: source}
    queue: deque[int] = deque([source])
    transmissions = 0
    found = False
    while queue:
        current = queue.popleft()
        if current != source and not forwards[current]:
            continue
        transmissions += 1
        for neighbor in lists[current]:
            if neighbor in parents:
                continue
            parents[neighbor] = current
            if neighbor == destination:
                found = True
                queue.clear()
                break
            queue.append(neighbor)

    if not found:
        result = DiscoveryResult(
            path=None, rreq_transmissions=transmissions, rrep_transmissions=0
        )
    else:
        path = [destination]
        while path[-1] != source:
            path.append(parents[path[-1]])
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
        with attributed(sim, CAUSE_ROUTE_DISCOVERY, node=source):
            sim.stats.record(
                "route_discovery", result.total_transmissions, bits
            )
    return result
