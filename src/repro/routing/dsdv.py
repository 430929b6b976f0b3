"""DSDV-style flat proactive routing (Perkins & Bhagwat).

The baseline the paper's introduction motivates against: every node
keeps a route to *every* destination and periodically broadcasts its
full table; topology changes additionally trigger incremental updates.
The defining DSDV mechanics are implemented faithfully at message
granularity:

* per-destination *sequence numbers*, even when originated by the
  destination, odd when an intermediate node declares the route broken;
* newer sequence number wins; equal sequence prefers the shorter metric;
* periodic full-table broadcasts plus triggered incremental updates on
  *significant* changes (reachability transitions), cascading one hop
  per simulation step;
* a node that hears a broken route *to itself* immediately claims a
  fresh higher sequence number (the repair rule), so repairs supersede
  the poison network-wide.

What is abstracted away (consistently across all protocols in this
package) is the MAC/PHY: broadcasts reach exactly the current
neighbors, without loss or delay.  Overhead is counted in messages and
bits (``entries * p_route``), which is the quantity the paper compares.

Internally the tables are dense NumPy arrays (``metric``, ``sequence``
and ``next_hop`` of shape ``(N, N)``), which keeps the merge step — the
hot path of every flat-proactive simulation — vectorized over
destinations.  The dict-of-:class:`RouteEntry` view the tests and tools
consume is materialized on demand via :attr:`DsdvProtocol.tables`.
"""

from __future__ import annotations

import numpy as np

from ..obs.attribution import CAUSE_DSDV_PERIODIC, CAUSE_DSDV_TRIGGERED
from ..sim.engine import Protocol, Simulation
from .messages import RouteEntry, route_update_bits

__all__ = ["DsdvProtocol"]

_NO_HOP = -1


class _TableView:
    """Read-only dict-like view of one node's routing table."""

    def __init__(self, protocol: "DsdvProtocol", node: int) -> None:
        self._protocol = protocol
        self._node = node

    def _entry(self, destination: int) -> RouteEntry | None:
        p, node = self._protocol, self._node
        hop = p._next_hop[node, destination]
        if hop == _NO_HOP:
            return None
        return RouteEntry(
            destination,
            int(hop),
            float(p._metric[node, destination]),
            int(p._sequence[node, destination]),
        )

    def get(self, destination: int, default=None):
        """Entry for ``destination`` or ``default``."""
        entry = self._entry(destination)
        return default if entry is None else entry

    def __getitem__(self, destination: int) -> RouteEntry:
        entry = self._entry(destination)
        if entry is None:
            raise KeyError(destination)
        return entry

    def __contains__(self, destination: int) -> bool:
        return self._protocol._next_hop[self._node, destination] != _NO_HOP

    def __len__(self) -> int:
        return int(
            np.count_nonzero(self._protocol._next_hop[self._node] != _NO_HOP)
        )

    def keys(self):
        """Known destinations."""
        return [
            int(d)
            for d in np.flatnonzero(self._protocol._next_hop[self._node] != _NO_HOP)
        ]

    def items(self):
        """(destination, RouteEntry) pairs."""
        return [(d, self._entry(d)) for d in self.keys()]

    def values(self):
        """RouteEntry values."""
        return [self._entry(d) for d in self.keys()]


class DsdvProtocol(Protocol):
    """Flat destination-sequenced distance-vector routing.

    Parameters
    ----------
    periodic_interval:
        Period of full-table broadcasts (per node, randomly phased).
    """

    name = "dsdv"

    def __init__(self, periodic_interval: float = 1.0) -> None:
        if periodic_interval <= 0.0:
            raise ValueError(
                f"periodic_interval must be positive, got {periodic_interval}"
            )
        self.periodic_interval = periodic_interval
        self._metric: np.ndarray | None = None
        self._sequence: np.ndarray | None = None
        self._next_hop: np.ndarray | None = None
        self._own_sequence: np.ndarray | None = None
        self._next_broadcast: np.ndarray | None = None
        self._pending_triggered: set[int] = set()

    # ------------------------------------------------------------------
    @property
    def tables(self) -> list[_TableView]:
        """Per-node dict-like table views (read-only)."""
        return [_TableView(self, node) for node in range(len(self._metric))]

    # ------------------------------------------------------------------
    def on_attach(self, sim: Simulation) -> None:
        n = sim.n_nodes
        self._metric = np.full((n, n), np.inf)
        self._sequence = np.zeros((n, n), dtype=np.int64)
        self._next_hop = np.full((n, n), _NO_HOP, dtype=np.int64)
        diagonal = np.arange(n)
        self._metric[diagonal, diagonal] = 0.0
        self._next_hop[diagonal, diagonal] = diagonal
        self._own_sequence = np.zeros(n, dtype=np.int64)
        self._next_broadcast = sim.rng.uniform(
            0.0, self.periodic_interval, size=n
        )
        # Converge the initial topology without counting the traffic
        # (formation-stage exclusion, as for clustering).
        for _ in range(n if n < 40 else 40):
            changed = False
            for node in range(n):
                changed |= self._broadcast(sim, node)
            if not changed:
                break

    # ------------------------------------------------------------------
    # Table mechanics (vectorized over destinations)
    # ------------------------------------------------------------------
    def _broadcast(
        self, sim: Simulation, node: int, cause: str | None = None
    ) -> bool:
        """Broadcast ``node``'s full table to all its neighbors at once.

        Each receiver merges the same sender snapshot (vectorized over
        receivers × destinations): a newer sequence number wins; an
        equal sequence with a shorter metric wins; everything else is
        kept.  Receivers whose *reachability* changed for some
        destination schedule a triggered update of their own, so route
        news cascades one hop per simulation step.  The DSDV repair
        rule also runs here: a receiver that hears a broken route to
        itself claims a fresh higher sequence number.  The broadcast is
        recorded under ``cause``; without one it goes uncounted (the
        convergence rounds at attach).
        """
        if cause is not None:
            entries = int(np.count_nonzero(self._next_hop[node] != _NO_HOP))
            bits = route_update_bits(sim.params.messages, entries)
            sim.stats.record("dsdv", 1, bits, cause=cause, node=node)

        receivers = sim.neighbors_of(node)
        if not len(receivers):
            return False

        advert_metric = self._metric[node]
        advert_sequence = self._sequence[node]
        candidate_metric = advert_metric + 1.0  # inf + 1 stays inf

        current_metric = self._metric[receivers]  # (m, n) copies
        current_sequence = self._sequence[receivers]
        current_hop = self._next_hop[receivers]

        newer = advert_sequence > current_sequence
        better = (advert_sequence == current_sequence) & (
            candidate_metric < current_metric
        )
        adopt = newer | better
        rows = np.arange(len(receivers))
        adopt[rows, receivers] = False  # never adopt a route to oneself

        was_reachable = np.isfinite(current_metric) & (current_hop != _NO_HOP)
        new_metric = np.where(adopt, candidate_metric, current_metric)
        new_sequence = np.where(adopt, advert_sequence, current_sequence)
        new_hop = np.where(adopt, node, current_hop)
        self._metric[receivers] = new_metric
        self._sequence[receivers] = new_sequence
        self._next_hop[receivers] = new_hop

        now_reachable = np.isfinite(new_metric) & (new_hop != _NO_HOP)
        significant = ((was_reachable != now_reachable) & adopt).any(axis=1)
        changed = bool(significant.any())
        self._pending_triggered.update(
            int(r) for r in receivers[significant]
        )

        # Repair rule: receivers hearing a broken route to themselves.
        heard_metric = advert_metric[receivers]
        heard_sequence = advert_sequence[receivers]
        broken_self = (~np.isfinite(heard_metric)) & (
            heard_sequence > self._own_sequence[receivers]
        )
        for receiver in receivers[broken_self]:
            receiver = int(receiver)
            self._own_sequence[receiver] = int(
                advert_sequence[receiver]
            ) + 1
            self._sequence[receiver, receiver] = self._own_sequence[receiver]
            self._pending_triggered.add(receiver)
        return changed

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_link_up(self, sim: Simulation, u: int, v: int, time: float) -> None:
        # Fresh sequence numbers advertise the new direct connectivity.
        for node in (u, v):
            self._own_sequence[node] += 2
            self._sequence[node, node] = self._own_sequence[node]
        self._pending_triggered.update((u, v))

    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        # Each endpoint marks routes through the other as broken with an
        # odd (infinite-metric) sequence number — the DSDV break rule.
        # Already-broken (odd) entries keep their sequence so a second
        # break never forges an even number.
        for node, gone in ((u, v), (v, u)):
            through = self._next_hop[node] == gone
            through[node] = False
            if not through.any():
                continue
            self._metric[node, through] = np.inf
            even = through & (self._sequence[node] % 2 == 0)
            self._sequence[node, even] += 1
            self._pending_triggered.add(node)

    def on_step_end(self, sim: Simulation, time: float) -> None:
        due = set(np.flatnonzero(self._next_broadcast <= time).tolist())
        for node in due:
            self._next_broadcast[node] += self.periodic_interval
            # DSDV: a node stamps each periodic dump with a fresh even
            # sequence number of its own; this is what lets repaired
            # routes supersede the odd (infinite-metric) break markers.
            self._own_sequence[node] += 2
            self._sequence[node, node] = self._own_sequence[node]
        senders = sorted(due | self._pending_triggered)
        # Clear before sending: receivers that change during this round
        # re-enter the pending set and broadcast on the *next* step.
        self._pending_triggered.clear()
        for node in senders:
            cause = (
                CAUSE_DSDV_PERIODIC if node in due else CAUSE_DSDV_TRIGGERED
            )
            self._broadcast(sim, int(node), cause)

    # ------------------------------------------------------------------
    # Routing service
    # ------------------------------------------------------------------
    def next_hop(self, source: int, destination: int) -> int | None:
        """Next hop from the current table, or ``None`` when unroutable."""
        hop = self._next_hop[source, destination]
        if hop == _NO_HOP or not np.isfinite(self._metric[source, destination]):
            return None
        return int(hop)

    def path(self, sim: Simulation, source: int, destination: int) -> list[int] | None:
        """Follow next hops; ``None`` on dead ends, loops, or stale hops."""
        if source == destination:
            return [source]
        path = [source]
        current = source
        for _ in range(sim.n_nodes):
            hop = self.next_hop(current, destination)
            if hop is None or (hop in path and hop != destination):
                return None
            if not sim.has_link(current, hop) and hop != current:
                return None
            path.append(hop)
            if hop == destination:
                return path
            current = hop
        return None
