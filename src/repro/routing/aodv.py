"""AODV-style flat reactive routing (Perkins & Royer).

The second flat baseline: no proactive state at all; a route is
discovered on demand by flooding a route request (RREQ) through the
*whole* network — every reached node rebroadcasts once — and unicasting
a route reply (RREP) back along the reverse path, installing hop state
at each intermediate node.  Link breaks on active routes trigger route
errors (RERR) that invalidate the affected entries upstream.

Contrast with the hybrid protocol: there, only cluster-heads and
gateways rebroadcast the flood.  The difference between the two RREQ
transmission counts is precisely the flooding reduction the paper's
introduction credits clustering with.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..obs.attribution import (
    CAUSE_CRASH_RECOVERY,
    CAUSE_LINK_BREAK_REPAIR,
    CAUSE_LOSS_RETRANSMIT,
    CAUSE_ROUTE_DISCOVERY,
)
from ..sim.engine import Protocol, Simulation
from .messages import rerr_bits, rrep_bits, rreq_bits

__all__ = ["AodvProtocol", "AodvRouteState"]


@dataclass
class AodvRouteState:
    """Per-node forward entry of an active route."""

    destination: int
    next_hop: int
    hops: int


class AodvProtocol(Protocol):
    """Flat on-demand routing with full-network RREQ floods.

    Parameters
    ----------
    max_retries:
        Graceful-degradation knob (fault plans): a failed route
        discovery is retried up to this many times with capped
        exponential backoff instead of failing fast.  0 (the default)
        keeps the stock fail-fast behavior.
    retry_backoff, retry_backoff_cap:
        Base delay and cap of that backoff: retry ``k`` (0-based) fires
        ``min(retry_backoff * 2**k, retry_backoff_cap)`` after the
        failed attempt.
    """

    name = "aodv"

    def __init__(
        self,
        max_retries: int = 0,
        retry_backoff: float = 0.5,
        retry_backoff_cap: float = 4.0,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff <= 0.0 or retry_backoff_cap <= 0.0:
            raise ValueError("retry backoff and cap must be positive")
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        # routes[node][destination] -> AodvRouteState
        self.routes: list[dict[int, AodvRouteState]] = []
        self.discoveries = 0
        self.cache_hits = 0
        #: Retried discoveries actually launched (after backoff expiry).
        self.route_retries = 0
        # Pending retries: (source, destination) -> due time / attempts
        # made so far.  Processed in sorted key order each step end.
        self._pending: dict[tuple[int, int], float] = {}
        self._attempts: dict[tuple[int, int], int] = {}

    def on_attach(self, sim: Simulation) -> None:
        self.routes = [{} for _ in range(sim.n_nodes)]
        self._pending = {}
        self._attempts = {}

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _flood(self, sim: Simulation, source: int, destination: int):
        """BFS flood; returns (parents, rreq transmission count)."""
        lists = sim.adjacency_lists
        faults = sim.faults
        lossy = faults is not None and faults.loss_rate > 0.0
        parents: dict[int, int] = {source: source}
        queue: deque[int] = deque([source])
        transmissions = 0
        while queue:
            current = queue.popleft()
            if current == destination:
                continue  # the destination answers instead of forwarding
            transmissions += 1
            for neighbor in lists[current]:
                if neighbor not in parents:
                    if lossy and faults.drop():
                        # Lost reception: the neighbor may still be
                        # reached through another rebroadcast.
                        continue
                    parents[neighbor] = current
                    queue.append(neighbor)
        return parents, transmissions

    def discover(
        self,
        sim: Simulation,
        source: int,
        destination: int,
        cause: str = CAUSE_ROUTE_DISCOVERY,
    ) -> list[int] | None:
        """Run one RREQ/RREP cycle; installs hop state and returns the path.

        With ``max_retries > 0`` a failed cycle schedules a backoff
        retry instead of giving up; :meth:`on_step_end` relaunches it
        (charging the retried flood to ``cause='loss-retransmit'``).
        """
        if source == destination:
            return [source]
        parents, rreq_count = self._flood(sim, source, destination)
        messages = sim.params.messages
        self.discoveries += 1
        key = (source, destination)
        if destination not in parents:
            sim.stats.record(
                "aodv",
                rreq_count,
                rreq_count * rreq_bits(messages),
                cause=cause,
                node=source,
            )
            attempts = self._attempts.get(key, 0)
            if attempts < self.max_retries:
                delay = min(
                    self.retry_backoff * 2.0**attempts,
                    self.retry_backoff_cap,
                )
                self._attempts[key] = attempts + 1
                self._pending[key] = sim.time + delay
            else:
                self._pending.pop(key, None)
                self._attempts.pop(key, None)
            return None
        self._pending.pop(key, None)
        self._attempts.pop(key, None)

        path = [destination]
        while path[-1] != source:
            path.append(parents[path[-1]])
        path.reverse()

        rrep_count = len(path) - 1
        sim.stats.record(
            "aodv",
            rreq_count + rrep_count,
            rreq_count * rreq_bits(messages) + rrep_count * rrep_bits(messages),
            cause=cause,
            node=source,
        )
        # Install forward entries along the path (toward the destination)
        # and reverse entries (toward the source), as the RREP does.
        for position, node in enumerate(path[:-1]):
            self.routes[node][destination] = AodvRouteState(
                destination, path[position + 1], len(path) - 1 - position
            )
        for position, node in enumerate(path[1:], start=1):
            self.routes[node][source] = AodvRouteState(
                source, path[position - 1], position
            )
        return path

    # ------------------------------------------------------------------
    # Routing service
    # ------------------------------------------------------------------
    def route(self, sim: Simulation, source: int, destination: int) -> list[int] | None:
        """Use installed state when valid, otherwise rediscover."""
        path = self._follow(sim, source, destination)
        if path is not None:
            self.cache_hits += 1
            return path
        return self.discover(sim, source, destination)

    def _follow(self, sim: Simulation, source: int, destination: int) -> list[int] | None:
        if source == destination:
            return [source]
        path = [source]
        current = source
        for _ in range(sim.n_nodes):
            entry = self.routes[current].get(destination)
            if entry is None or not sim.has_link(current, entry.next_hop):
                return None
            path.append(entry.next_hop)
            if entry.next_hop == destination:
                return path
            current = entry.next_hop
        return None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        """Invalidate entries through the broken link and emit RERRs.

        RERRs are recorded per transmitting endpoint so the overhead
        ledger can charge each node for its own notifications; the
        per-category totals are unchanged.
        """
        cause = CAUSE_LINK_BREAK_REPAIR
        if sim.faults is not None and sim.faults.is_fault_transition(u, v):
            # The break is a crash/outage transition, not mobility.
            cause = CAUSE_CRASH_RECOVERY
        for node, gone in ((u, v), (v, u)):
            dead = [
                destination
                for destination, entry in self.routes[node].items()
                if entry.next_hop == gone
            ]
            for destination in dead:
                del self.routes[node][destination]
            if dead:
                sim.stats.record(
                    "aodv_rerr",
                    len(dead),
                    len(dead) * rerr_bits(sim.params.messages),
                    cause=cause,
                    node=node,
                )

    def on_step_end(self, sim: Simulation, time: float) -> None:
        """Relaunch route discoveries whose retry backoff has expired."""
        if not self._pending:
            return
        due = sorted(
            key for key, when in self._pending.items() if when <= time
        )
        for key in due:
            if key not in self._pending or self._pending[key] > time:
                continue  # rescheduled by a retry earlier in this pass
            del self._pending[key]
            source, destination = key
            self.route_retries += 1
            if sim.faults is not None:
                sim.faults.count("route_retries_total")
            self.discover(sim, source, destination, cause=CAUSE_LOSS_RETRANSMIT)

    # ------------------------------------------------------------------
    # Crash handling (fault plans)
    # ------------------------------------------------------------------
    def on_node_fail(self, sim: Simulation, node: int, time: float) -> None:
        """State wipe: a crashed node forgets its routing table.

        Entries *through* the node at other nodes are invalidated by
        the RERR path as the engine delivers the mask-induced link
        breaks.  Pending retries it originated are abandoned — a dead
        node cannot flood.
        """
        self.routes[node].clear()
        for key in [k for k in self._pending if k[0] == node]:
            del self._pending[key]
            self._attempts.pop(key, None)

    # ------------------------------------------------------------------
    @property
    def installed_entries(self) -> int:
        """Total forward entries currently installed network-wide."""
        return sum(len(table) for table in self.routes)
