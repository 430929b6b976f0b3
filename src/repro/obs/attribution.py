"""Overhead attribution: per-cause / per-node / per-cluster accounting.

The paper decomposes control overhead into HELLO, CLUSTER and ROUTE
totals; this module decomposes those totals one level further — *why*
was each control message sent, *who* sent it, and *where*.  An
:class:`OverheadLedger` rides the same
:attr:`~repro.sim.stats.MessageStats.on_record` hook the trace's
send mirror uses, so its accounting reconciles with the
``MessageStats`` totals **by construction**: every recorded message is
observed exactly once, inside the measurement window, already split
into the same ``(category, messages, bits)`` triples the totals
accumulate.  A run-end ``attribution`` trace event carries the full
breakdown; a mismatch (which would indicate a bookkeeping bug, not a
simulation property) fails the run under ``--audit strict``.

Send sites pass their cause and transmitters to the record call::

    sim.stats.record("cluster", 1, bits, cause=CAUSE_REAFFILIATION, node=orphan)

``node`` names a single transmitter; ``nodes`` splits the record evenly
across several (a sequence, or a callable of ``cluster`` such as
``ClusterState.cluster_nodes``, resolved only when a ledger reads it);
``cluster`` charges an explicit cluster instead of each transmitter's
current one.  When no ledger is attached (``sim.attribution is None`` —
the default) nothing reads these arguments, so untraced simulations pay
for the counters alone.

The root-cause vocabulary mirrors the repair taxonomy of the
maintenance layer (P1 head-adjacency repairs, P2 reaffiliations,
head-merge cascades — the same events the span layer links with
``span_link kind="cascade"``), the beacon modes, and the routing
control-plane verbs:

========================  ==================================================
cause                     meaning
========================  ==================================================
``periodic-hello``        periodic beacon broadcast (HELLO periodic mode,
                          or the adaptive mode under the ``fixed`` policy)
``event-hello``           link-generation HELLO pair (event mode, Eqn 4)
``adaptive-hello-analytic``  adaptive beacon under the ``analytic-rate``
                          policy (interval = inverse Eqn-4 rate)
``adaptive-hello-churn``  adaptive beacon under the ``churn-feedback``
                          policy (Gavalas-style multiplicative control)
``adaptive-hello-staleness``  adaptive beacon under the
                          ``staleness-bounded`` policy
``link-break-repair``     route state invalidation after a link break
                          (AODV/hybrid RERR bursts)
``head-adjacency-repair``  P1 repair: the losing head's own demotion
                          message when two heads became adjacent
``reaffiliation``         P2 repair: an orphaned member re-homing after
                          losing the link to its head
``head-merge-cascade``    reaffiliations forced by a head merge (the
                          ``m`` messages of Eqn 10 beyond the demotion)
``intra-cluster-update``  proactive intra-cluster routing round (Eqn 13)
``route-discovery``       reactive RREQ flood + RREP unicast (AODV or
                          backbone discovery)
``dsdv-periodic``         DSDV full-table periodic dump
``dsdv-triggered``        DSDV triggered incremental update
``broadcast-flood``       network-wide data broadcast flood
``crash-recovery``        repair traffic caused by a fault transition
                          (node crash/recover or outage boundary; see
                          :mod:`repro.faults`) rather than mobility
``loss-retransmit``       HELLO retransmissions compensating Bernoulli
                          packet loss (event-mode announce retries)
``unattributed``          recorded without a cause (kept so per-cause
                          sums stay exact)
========================  ==================================================

Node attribution charges each message to its transmitter (floods and
cluster-wide rounds are split evenly across the transmitting nodes;
event-mode HELLO pairs across both endpoints).  Cluster attribution
uses the transmitter's *current* cluster head (``-1`` when the stack
has no one-hop clustering), and a ``bins * bins`` grid over the
region accumulates a spatial heatmap of message density.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..protocol import Protocol
from . import context as obs_context
from .audit import AuditError

__all__ = [
    "CAUSE_PERIODIC_HELLO",
    "CAUSE_EVENT_HELLO",
    "CAUSE_ANALYTIC_HELLO",
    "CAUSE_CHURN_HELLO",
    "CAUSE_STALENESS_HELLO",
    "CAUSE_LINK_BREAK_REPAIR",
    "CAUSE_HEAD_ADJACENCY_REPAIR",
    "CAUSE_REAFFILIATION",
    "CAUSE_HEAD_MERGE_CASCADE",
    "CAUSE_INTRA_CLUSTER_UPDATE",
    "CAUSE_ROUTE_DISCOVERY",
    "CAUSE_DSDV_PERIODIC",
    "CAUSE_DSDV_TRIGGERED",
    "CAUSE_BROADCAST_FLOOD",
    "CAUSE_CRASH_RECOVERY",
    "CAUSE_LOSS_RETRANSMIT",
    "CAUSE_UNATTRIBUTED",
    "KNOWN_CAUSES",
    "OverheadLedger",
    "attach_attribution",
]

CAUSE_PERIODIC_HELLO = "periodic-hello"
CAUSE_EVENT_HELLO = "event-hello"
CAUSE_ANALYTIC_HELLO = "adaptive-hello-analytic"
CAUSE_CHURN_HELLO = "adaptive-hello-churn"
CAUSE_STALENESS_HELLO = "adaptive-hello-staleness"
CAUSE_LINK_BREAK_REPAIR = "link-break-repair"
CAUSE_HEAD_ADJACENCY_REPAIR = "head-adjacency-repair"
CAUSE_REAFFILIATION = "reaffiliation"
CAUSE_HEAD_MERGE_CASCADE = "head-merge-cascade"
CAUSE_INTRA_CLUSTER_UPDATE = "intra-cluster-update"
CAUSE_ROUTE_DISCOVERY = "route-discovery"
CAUSE_DSDV_PERIODIC = "dsdv-periodic"
CAUSE_DSDV_TRIGGERED = "dsdv-triggered"
CAUSE_BROADCAST_FLOOD = "broadcast-flood"
CAUSE_CRASH_RECOVERY = "crash-recovery"
CAUSE_LOSS_RETRANSMIT = "loss-retransmit"
CAUSE_UNATTRIBUTED = "unattributed"

#: Every cause a stock protocol stack can produce.
KNOWN_CAUSES = (
    CAUSE_PERIODIC_HELLO,
    CAUSE_EVENT_HELLO,
    CAUSE_ANALYTIC_HELLO,
    CAUSE_CHURN_HELLO,
    CAUSE_STALENESS_HELLO,
    CAUSE_LINK_BREAK_REPAIR,
    CAUSE_HEAD_ADJACENCY_REPAIR,
    CAUSE_REAFFILIATION,
    CAUSE_HEAD_MERGE_CASCADE,
    CAUSE_INTRA_CLUSTER_UPDATE,
    CAUSE_ROUTE_DISCOVERY,
    CAUSE_DSDV_PERIODIC,
    CAUSE_DSDV_TRIGGERED,
    CAUSE_BROADCAST_FLOOD,
    CAUSE_CRASH_RECOVERY,
    CAUSE_LOSS_RETRANSMIT,
    CAUSE_UNATTRIBUTED,
)


class _Tally:
    """Message/bit accumulator (plain attributes; hot path)."""

    __slots__ = ("messages", "bits")

    def __init__(self, messages=0.0, bits=0.0) -> None:
        self.messages = messages
        self.bits = bits


def _num(value):
    """Integral floats → int, for compact deterministic JSON."""
    value = float(value)
    return int(value) if value.is_integer() else value


def _tallies(seen, messages, bits):
    """``(slot, messages, bits)`` of every seen slot, as Python scalars."""
    slots = np.flatnonzero(seen)
    return zip(slots.tolist(), messages[slots].tolist(), bits[slots].tolist())


class OverheadLedger(Protocol):
    """Per-cause / per-node / per-cluster control-overhead accounting.

    Attached as an ordinary protocol; its ``on_attach``
    chains itself into ``sim.stats.on_record`` *in front of* any
    existing hook (the trace's send mirror), so it observes
    exactly the records the totals count — records outside the
    measurement window never reach it, and the reconciliation against
    :attr:`~repro.sim.stats.MessageStats.totals` is exact by
    construction.  ``on_run_end`` emits one ``attribution`` trace event
    with the complete breakdown and verifies the reconciliation,
    raising :class:`~repro.obs.audit.AuditError` in strict mode.

    ``by_cause`` and ``totals`` are updated on every record.  The
    per-target fan-out behind ``by_node``, ``by_cluster``, ``by_cell``
    and ``heatmap`` is buffered as rows and applied to numpy
    accumulators by :meth:`fold`, once per step; those four are
    read-only views that fold before they are built.  The registry
    counters are registered when their cell first appears and take the
    folded cell sums at each fold.

    Parameters
    ----------
    maintenance:
        Cluster maintenance protocol supplying the live node → head
        mapping, or ``None`` for unclustered stacks (cluster ``-1``).
    bins:
        Side of the spatial heatmap grid.
    registry:
        When given, ``overhead_messages_total`` / ``overhead_bits_total``
        counters labelled ``{cause, protocol, cluster}`` (plus
        ``labels``) are kept in it, current as of the last fold — the
        source of the OpenMetrics export, and merged across workers by
        the parallel runner.
    strict:
        Raise :class:`AuditError` when the run-end reconciliation
        fails (the ``--audit strict`` contract).
    labels:
        Extra labels stamped on every registry counter (``{"sim": ...}``
        when sharing a registry across runs).
    """

    name = "overhead-attribution"

    def __init__(
        self,
        maintenance=None,
        bins: int = 8,
        registry=None,
        strict: bool = False,
        labels: dict | None = None,
    ) -> None:
        if bins < 1:
            raise ValueError(f"bins must be positive, got {bins}")
        self.maintenance = maintenance
        self.bins = bins
        self.registry = registry
        self.strict = strict
        self.labels = dict(labels) if labels else {}
        #: ``(category, cause) -> _Tally``
        self.by_cause: dict[tuple[str, str], _Tally] = {}
        #: ``category -> _Tally`` accumulated in record order — the
        #: bitwise mirror of the ``MessageStats`` counters.
        self.totals: dict[str, _Tally] = {}
        #: Weak reference to the simulation, which holds the ledger.
        self._sim = None
        self._side = 1.0
        self._chained = None
        #: ``(pair id, home) -> (messages counter, bits counter)``
        self._counters: dict[tuple[int, int], tuple] = {}
        self._flushed = False
        #: ``(category, cause) -> (by_cause tally, category total, pair id)``
        self._pair_of: dict[tuple[str, str], tuple] = {}
        #: ``(category, cause)`` by pair id, in first-record order.
        self._pairs: list[tuple[str, str]] = []
        # Rows buffered since the last fold.  Per row: the target (-1
        # for a record without targets) and its home cluster.  Per
        # record: its row count, the per-row message and bit shares and
        # the (category, cause) pair id.
        self._targets: list[int] = []
        self._homes: list[int] = []
        self._rows: list[int] = []
        self._messages: list[float] = []
        self._bits: list[float] = []
        self._pair_ids: list[int] = []
        self._allocate(0)

    def _allocate(self, n_nodes: int) -> None:
        """Zeroed accumulators for ``n_nodes`` nodes.

        A cluster head ``h`` (``-1`` = no cluster) owns slot ``h + 1``;
        a cell is slot ``pair_id * (n_nodes + 1) + h + 1``.
        """
        self._width = n_nodes + 1
        self._node_messages = np.zeros(n_nodes)
        self._node_bits = np.zeros(n_nodes)
        self._node_seen = np.zeros(n_nodes, dtype=bool)
        self._cluster_messages = np.zeros(self._width)
        self._cluster_bits = np.zeros(self._width)
        self._cluster_seen = np.zeros(self._width, dtype=bool)
        self._cell_messages = np.zeros(0)
        self._cell_bits = np.zeros(0)
        self._cell_seen = np.zeros(0, dtype=bool)
        self._heat = np.zeros(self.bins * self.bins)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def on_attach(self, sim) -> None:
        # A strong reference would close a cycle (sim → protocols →
        # ledger → sim) that only the cyclic GC could free.
        self._sim = weakref.ref(sim)
        self._side = float(sim.params.side)
        self._allocate(sim.n_nodes)
        sim.attribution = self
        # Chain in front of the existing hook (the trace's send mirror)
        # so both observe the identical record stream.
        self._chained = sim.stats.on_record
        sim.stats.on_record = self._on_record

    def on_step_end(self, sim, time: float) -> None:
        self.fold()

    def on_run_end(self, sim, time: float) -> None:
        if self._flushed:  # manual drivers may notify more than once
            return
        self._flushed = True
        mismatches = self.reconcile()
        if sim.tracer.enabled:
            sim.tracer.emit(
                "attribution",
                time,
                sim=sim.sim_id,
                **self.snapshot(),
                reconciled=not mismatches,
            )
        if mismatches and self.strict:
            raise AuditError(
                f"overhead attribution failed to reconcile with message "
                f"totals (sim {sim.sim_id}): " + "; ".join(mismatches)
            )

    # ------------------------------------------------------------------
    # Accounting (the MessageStats.on_record hook)
    # ------------------------------------------------------------------
    def _on_record(
        self, category: str, messages: int, bits: float, cause, node, nodes, cluster
    ) -> None:
        if cause is None:
            cause = CAUSE_UNATTRIBUTED
        entry = self._pair_of.get((category, cause))
        if entry is None:
            entry = self._new_pair(category, cause)
        tally, total, pair_id = entry
        tally.messages += messages
        tally.bits += bits
        total.messages += messages
        total.bits += bits

        if node is not None:
            targets = (node,)
        elif nodes is not None:
            if callable(nodes):  # resolve the cluster's nodes now
                nodes = nodes(cluster)
            targets = (
                nodes.tolist() if isinstance(nodes, np.ndarray) else tuple(nodes)
            )
        else:
            targets = ()

        rows = len(targets)
        if rows:
            # Homes are resolved now: head_of changes within a step.
            if cluster is not None:
                homes = [int(cluster)] * rows
            else:
                homes = self._homes_of(targets)
            self._targets.extend(targets)
            share_messages = messages / rows
            share_bits = bits / rows
        else:
            rows = 1
            homes = [int(cluster) if cluster is not None else -1]
            self._targets.append(-1)
            share_messages = messages
            share_bits = bits
        self._homes.extend(homes)
        self._rows.append(rows)
        self._messages.append(share_messages)
        self._bits.append(share_bits)
        self._pair_ids.append(pair_id)
        if self.registry is not None:
            self._register(category, cause, pair_id, homes)

        if self._chained is not None:
            self._chained(category, messages, bits, cause, node, nodes, cluster)

    def _new_pair(self, category: str, cause: str) -> tuple:
        tally = self.by_cause[(category, cause)] = _Tally()
        total = self.totals.get(category)
        if total is None:
            total = self.totals[category] = _Tally()
        entry = (tally, total, len(self._pairs))
        self._pair_of[(category, cause)] = entry
        self._pairs.append((category, cause))
        return entry

    def _homes_of(self, targets) -> list[int]:
        """Each target's current cluster head (``-1`` when unclustered)."""
        maintenance = self.maintenance
        if maintenance is None or maintenance.state is None:
            return [-1] * len(targets)
        head_of = maintenance.state.head_of
        return [head_of.item(target) for target in targets]

    def _register(self, category, cause, pair_id, homes) -> None:
        """Create the counters of the record's new cells, in row order.

        Registering at record time keeps the registration order (and
        ``to_dict`` output) of the record stream; :meth:`fold` sets the
        values.
        """
        counters = self._counters
        for home in dict.fromkeys(homes):
            if (pair_id, home) not in counters:
                labels = dict(
                    cause=cause, protocol=category, cluster=str(home), **self.labels
                )
                counters[(pair_id, home)] = (
                    self.registry.counter("overhead_messages_total", **labels),
                    self.registry.counter("overhead_bits_total", **labels),
                )

    def fold(self) -> None:
        """Apply the buffered rows to the folded accumulators.

        ``np.add.at`` applies repeated indices one at a time in input
        order, so each accumulator receives the same additions in the
        same order as a per-row loop: the sums are bit-identical.  The
        registry counters of the cells this fold touched are set to
        their cell sums, which is the value per-row ``inc`` calls from
        zero would give.
        Heatmap bins come from the current positions, which is why
        :meth:`Simulation.step` folds before it moves the nodes.
        """
        if not self._rows:
            return
        rows = np.array(self._rows, dtype=np.int64)
        messages = np.repeat(np.array(self._messages, dtype=float), rows)
        bits = np.repeat(np.array(self._bits, dtype=float), rows)
        pair_ids = np.repeat(np.array(self._pair_ids, dtype=np.int64), rows)
        targets = np.array(self._targets, dtype=np.int64)
        slots = np.array(self._homes, dtype=np.int64) + 1
        for buffer in (
            self._targets,
            self._homes,
            self._rows,
            self._messages,
            self._bits,
            self._pair_ids,
        ):
            buffer.clear()
        width = self._width
        if slots.min() < 0 or slots.max() >= width:
            raise ValueError(
                f"attributed cluster outside [-1, {width - 2}]: "
                f"{sorted(set((slots - 1).tolist()))}"
            )

        np.add.at(self._cluster_messages, slots, messages)
        np.add.at(self._cluster_bits, slots, bits)
        self._cluster_seen[slots] = True

        grow = len(self._pairs) * width - len(self._cell_seen)
        if grow > 0:
            self._cell_messages = np.concatenate([self._cell_messages, np.zeros(grow)])
            self._cell_bits = np.concatenate([self._cell_bits, np.zeros(grow)])
            self._cell_seen = np.concatenate(
                [self._cell_seen, np.zeros(grow, dtype=bool)]
            )
        cells = pair_ids * width + slots
        np.add.at(self._cell_messages, cells, messages)
        np.add.at(self._cell_bits, cells, bits)
        self._cell_seen[cells] = True
        if self._counters:
            touched = np.unique(cells)
            for cell, cell_messages, cell_bits in zip(
                touched.tolist(),
                self._cell_messages[touched].tolist(),
                self._cell_bits[touched].tolist(),
            ):
                pair_id, slot = divmod(cell, width)
                counters = self._counters[(pair_id, slot - 1)]
                counters[0].value = cell_messages
                counters[1].value = cell_bits

        sent = targets >= 0
        targets, messages, bits = targets[sent], messages[sent], bits[sent]
        np.add.at(self._node_messages, targets, messages)
        np.add.at(self._node_bits, targets, bits)
        self._node_seen[targets] = True
        xy = self._sim().positions[targets]
        scale = self.bins / self._side
        last = self.bins - 1
        cols = np.minimum(last, (xy[:, 0] * scale).astype(np.int64))
        grid_rows = np.minimum(last, (xy[:, 1] * scale).astype(np.int64))
        np.add.at(self._heat, grid_rows * self.bins + cols, messages)

    # ------------------------------------------------------------------
    # Folded views: each read folds, then builds a fresh copy
    # ------------------------------------------------------------------
    @property
    def by_node(self) -> dict[int, _Tally]:
        """``node -> _Tally`` (transmitter attribution)."""
        self.fold()
        return {
            node: _Tally(messages, bits)
            for node, messages, bits in _tallies(
                self._node_seen, self._node_messages, self._node_bits
            )
        }

    @property
    def by_cluster(self) -> dict[int, _Tally]:
        """``cluster head -> _Tally`` (``-1`` = no cluster)."""
        self.fold()
        return {
            slot - 1: _Tally(messages, bits)
            for slot, messages, bits in _tallies(
                self._cluster_seen, self._cluster_messages, self._cluster_bits
            )
        }

    @property
    def by_cell(self) -> dict[tuple[str, str, int], _Tally]:
        """``(category, cause, cluster) -> _Tally``.

        The full label cross-product behind the ``overhead_*_total``
        counters, kept ledger-side too so a trace alone can rebuild the
        metrics.
        """
        self.fold()
        width = self._width
        return {
            (*self._pairs[cell // width], cell % width - 1): _Tally(messages, bits)
            for cell, messages, bits in _tallies(
                self._cell_seen, self._cell_messages, self._cell_bits
            )
        }

    @property
    def heatmap(self) -> list[float]:
        """Row-major ``bins * bins`` message-density grid."""
        self.fold()
        return self._heat.tolist()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def reconcile(self) -> list[str]:
        """Check the ledger against ``sim.stats``; returns mismatches.

        Two properties are verified: the ledger's record-order category
        totals equal the ``MessageStats`` totals exactly (same stream,
        same accumulation order — bitwise), and per-cause message
        counts sum to the category totals (integer arithmetic).
        """
        self.fold()
        problems: list[str] = []
        stats_totals = self._sim().stats.totals
        categories = sorted(set(stats_totals) | set(self.totals))
        for category in categories:
            expected = stats_totals.get(category)
            expected_messages = 0 if expected is None else expected.messages
            expected_bits = 0.0 if expected is None else expected.bits
            seen = self.totals.get(category)
            seen_messages = 0 if seen is None else int(seen.messages)
            seen_bits = 0.0 if seen is None else seen.bits
            if seen_messages != expected_messages or seen_bits != expected_bits:
                problems.append(
                    f"{category}: ledger {seen_messages} msg/{seen_bits:g} "
                    f"bits vs stats {expected_messages} msg/"
                    f"{expected_bits:g} bits"
                )
            cause_messages = sum(
                tally.messages
                for (cat, _cause), tally in self.by_cause.items()
                if cat == category
            )
            if int(cause_messages) != expected_messages:
                problems.append(
                    f"{category}: per-cause sum {int(cause_messages)} msg "
                    f"vs stats {expected_messages} msg"
                )
        return problems

    def snapshot(self) -> dict:
        """JSON-ready breakdown (sorted keys, deterministic bytes)."""
        causes: dict[str, dict] = {}
        for (category, cause), tally in sorted(self.by_cause.items()):
            causes.setdefault(category, {})[cause] = {
                "messages": _num(tally.messages),
                "bits": tally.bits,
            }
        heatmap = self.heatmap
        return {
            "causes": causes,
            "nodes": {
                str(node): {
                    "messages": _num(tally.messages),
                    "bits": tally.bits,
                }
                for node, tally in sorted(self.by_node.items())
            },
            "clusters": {
                str(cluster): {
                    "messages": _num(tally.messages),
                    "bits": tally.bits,
                }
                for cluster, tally in sorted(self.by_cluster.items())
            },
            "cells": [
                [
                    category,
                    cause,
                    cluster,
                    _num(tally.messages),
                    tally.bits,
                ]
                for (category, cause, cluster), tally in sorted(
                    self.by_cell.items()
                )
            ],
            "heatmap": {
                "bins": self.bins,
                "side": self._side,
                "messages": [
                    [
                        _num(heatmap[row * self.bins + col])
                        for col in range(self.bins)
                    ]
                    for row in range(self.bins)
                ],
            },
            "totals": {
                category: {
                    "messages": _num(tally.messages),
                    "bits": tally.bits,
                }
                for category, tally in sorted(self.totals.items())
            },
        }


def attach_attribution(sim, maintenance=None, bins: int = 8):
    """Attach an :class:`OverheadLedger` to ``sim`` when telemetry is on.

    The ledger is attached when the simulation is traced or the ambient
    context carries a shared metrics registry (``--metrics-json`` /
    ``--metrics-openmetrics``); otherwise this is a no-op returning
    ``None`` — the zero-cost default, matching
    :func:`~repro.obs.health.attach_run_health`.  Strictness follows
    the ambient :class:`~repro.obs.context.RunHealthConfig`.

    Must be called after the message-producing protocols are attached
    (so cluster lookups see the maintained state) — in practice right
    next to the other ``attach_*`` helpers.
    """
    context = obs_context.current()
    if not sim.tracer.enabled and context.registry is None:
        return None
    ledger = OverheadLedger(
        maintenance=maintenance,
        bins=bins,
        registry=context.registry,
        strict=context.health.strict if context.health is not None else False,
        labels={"sim": str(sim.sim_id)} if context.registry is not None else None,
    )
    sim.attach(ledger)
    return ledger
