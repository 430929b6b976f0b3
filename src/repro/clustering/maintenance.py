"""Reactive one-hop cluster maintenance (LCC-style).

The paper's CLUSTER overhead analysis assumes *reactive* maintenance:
CLUSTER messages are transmitted only when the one-hop properties P1/P2
are violated by a link change, and — per the Least Clusterhead Change
(LCC) principle — the structure is repaired with as few role changes as
possible.  The two triggering events (Section 3.5.2):

* **Link break between a member and its own head** — the member joins a
  neighboring head if one exists (1 CLUSTER message) or becomes a head
  itself (1 CLUSTER message).
* **Link generation between two heads** (P1 violation) — the
  lower-priority head resigns and re-affiliates (1 CLUSTER message) and
  each of its former members re-affiliates (1 CLUSTER message each),
  i.e. ``m`` messages for a cluster of size ``m``, matching Eqn (10).

All other link events leave the structure untouched.  Priorities come
from the wrapped :class:`~repro.clustering.base.ClusteringAlgorithm`
(LID: lowest id; HCC: highest degree; DMAC: weight), so one protocol
body implements maintenance for the whole one-hop family.

The protocol keeps the structure valid (P1 and P2) after *every*
delivered event — the test suite asserts this invariant continuously.

When tracing is on, each repair runs inside a causal **span** (see
:mod:`repro.obs.spans`): ``repair:member-break`` for the P2 case,
``repair:head-merge`` for the P1 case, with one ``reaffiliate`` child
span per re-homed node and a ``span_link`` (``kind="cascade"``) from
the merge to every reaffiliation it forced.  The CLUSTER ``msg_tx``
events those repairs generate carry the handler's span id, which is
what lets a trace attribute overhead bursts to the maintenance events
that caused them.  The protocol also keeps unconditional running
counters (:attr:`head_changes_total`, :attr:`reaffiliations_total`)
incremented at exactly the points where the trace events are emitted,
so the cluster-dynamics collector's window sums reconcile with trace
event counts by construction.
"""

from __future__ import annotations

import numpy as np

from ..obs.attribution import (
    CAUSE_CRASH_RECOVERY,
    CAUSE_HEAD_ADJACENCY_REPAIR,
    CAUSE_HEAD_MERGE_CASCADE,
    CAUSE_REAFFILIATION,
    attributed,
)
from ..sim.engine import Protocol, Simulation
from .base import HEAD, MEMBER, ClusteringAlgorithm, ClusterState

__all__ = ["ClusterMaintenanceProtocol"]


class ClusterMaintenanceProtocol(Protocol):
    """Drives a one-hop clustering algorithm inside a simulation.

    Parameters
    ----------
    algorithm:
        The clustering algorithm supplying formation and priorities.
    dynamic_priority:
        When true, the priority vector is recomputed from the *current*
        topology before each contention decision.  Required for faithful
        HCC (whose priority is the live degree); a no-op for LID and
        DMAC whose priorities are topology-independent.
    """

    name = "cluster-maintenance"

    def __init__(
        self,
        algorithm: ClusteringAlgorithm,
        dynamic_priority: bool = False,
    ) -> None:
        self.algorithm = algorithm
        self.dynamic_priority = dynamic_priority
        self.state: ClusterState | None = None
        self._priority: np.ndarray | None = None
        self._change_listeners: list = []
        #: Running count of head-role changes (elections + resignations)
        #: since attach.  Incremented unconditionally at the exact
        #: points where ``head_change`` events are emitted, so windowed
        #: deltas reconcile with trace event counts by construction.
        self.head_changes_total = 0
        #: Running count of affiliation changes since attach (same
        #: contract, mirroring ``cluster_reaffiliation`` events).
        self.reaffiliations_total = 0

    # ------------------------------------------------------------------
    def add_change_listener(self, listener) -> None:
        """Register ``listener(sim, node, time)`` for affiliation changes.

        The listener fires once per node whose affiliation (role or
        head) changed, after the structure has been repaired.
        """
        self._change_listeners.append(listener)

    def _notify(self, sim: Simulation, node: int, time: float) -> None:
        for listener in self._change_listeners:
            listener(sim, node, time)

    # ------------------------------------------------------------------
    def on_attach(self, sim: Simulation) -> None:
        self._priority = np.asarray(
            self.algorithm.head_priority(sim.degrees()), dtype=float
        )
        self.state = self.algorithm.form(sim.neighbor_csr)

    # ------------------------------------------------------------------
    # Repair primitives
    # ------------------------------------------------------------------
    def _send_cluster_message(self, sim: Simulation) -> None:
        sim.stats.record("cluster", 1, sim.params.messages.p_cluster)

    def _neighboring_heads(self, sim: Simulation, node: int) -> np.ndarray:
        neighbors = sim.neighbors_of(node)
        return neighbors[self.state.roles[neighbors] == HEAD]

    def _best_head(self, candidates: np.ndarray) -> int:
        return int(candidates[np.argmax(self._priority[candidates])])

    def _reaffiliate(
        self,
        sim: Simulation,
        node: int,
        time: float,
        cause: str = CAUSE_REAFFILIATION,
    ) -> int | None:
        """Give an orphaned node a new affiliation (one CLUSTER message).

        ``cause`` labels the message in the overhead-attribution ledger
        (the P2 default, or ``head-merge-cascade`` when a resigning
        head forced this reaffiliation).  Returns the ``reaffiliate``
        span id when tracing (else None), so a cascading repair can
        link itself to the reaffiliations it forced.
        """
        heads = self._neighboring_heads(sim, node)
        if len(heads):
            new_head = self._best_head(heads)
            self.state.make_member(node, new_head)
            became_head = False
        else:
            self.state.make_head(node)
            new_head = node
            became_head = True
        self.reaffiliations_total += 1
        if became_head:
            self.head_changes_total += 1
        spans = sim.spans
        span = None
        if spans.enabled:
            span = spans.start("reaffiliate", "handler", time, node=int(node))
        with attributed(sim, cause, node=node, cluster=int(new_head)):
            self._send_cluster_message(sim)
        if sim.tracer.enabled:
            sim.tracer.emit(
                "cluster_reaffiliation",
                time,
                sim=sim.sim_id,
                node=int(node),
                head=int(new_head),
                role="head" if became_head else "member",
                span=span,
            )
            if became_head:
                sim.tracer.emit(
                    "head_change",
                    time,
                    sim=sim.sim_id,
                    node=int(node),
                    kind="elect",
                    span=span,
                )
        if span is not None:
            spans.end(time)
        self._notify(sim, node, time)
        return span

    def _resign_head(
        self,
        sim: Simulation,
        loser: int,
        winner: int,
        time: float,
        cause: str = CAUSE_HEAD_ADJACENCY_REPAIR,
    ) -> None:
        """Demote ``loser`` (joining ``winner``) and re-home its members.

        ``cause`` labels the loser's own CLUSTER message (the P1
        default, or ``crash-recovery`` when the triggering link event
        was a fault transition); the cascade reaffiliations keep their
        dedicated ``head-merge-cascade`` cause either way.
        """
        members = self.state.members_of(loser)
        spans = sim.spans
        merge_span = None
        if spans.enabled:
            merge_span = spans.start(
                "repair:head-merge",
                "handler",
                time,
                loser=int(loser),
                winner=int(winner),
                members=int(len(members)),
            )
        self.state.make_member(loser, winner)
        self.head_changes_total += 1
        self.reaffiliations_total += 1
        with attributed(sim, cause, node=loser, cluster=int(winner)):
            self._send_cluster_message(sim)
        if sim.tracer.enabled:
            sim.tracer.emit(
                "head_change",
                time,
                sim=sim.sim_id,
                node=int(loser),
                kind="resign",
                span=merge_span,
            )
            sim.tracer.emit(
                "cluster_reaffiliation",
                time,
                sim=sim.sim_id,
                node=int(loser),
                head=int(winner),
                role="member",
                span=merge_span,
            )
        self._notify(sim, loser, time)
        # Former members re-affiliate, deterministically by index.  The
        # paper counts exactly one CLUSTER message per such node and
        # ignores chain reactions; re-affiliation here cannot create a
        # P1 violation because a node only becomes head when it has no
        # neighboring head.
        for member in members:
            child = self._reaffiliate(
                sim, int(member), time, cause=CAUSE_HEAD_MERGE_CASCADE
            )
            if merge_span is not None and child is not None:
                spans.link(merge_span, child, "cascade", time)
        if merge_span is not None:
            spans.end(time)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        # Member lost the link to its own head (P2 violation).  Heads
        # point to themselves and u != v, so ``head_of[u] == v`` alone
        # says "u is a member of v's cluster".  ``item`` reads a Python
        # int, cheaper to compare than a numpy scalar.
        head_of = self.state.head_of
        if head_of.item(u) == v:
            orphan = u
        elif head_of.item(v) == u:
            orphan = v
        else:
            return
        cause = CAUSE_REAFFILIATION
        if sim.faults is not None and sim.faults.is_fault_transition(u, v):
            # The break came from a crash/outage transition, not
            # mobility: the orphan's repair is crash-recovery overhead.
            cause = CAUSE_CRASH_RECOVERY
        spans = sim.spans
        span_open = spans.enabled
        if span_open:
            spans.start(
                "repair:member-break", "handler", time, u=int(u), v=int(v)
            )
        self._reaffiliate(sim, orphan, time, cause=cause)
        if span_open:
            spans.end(time)

    def on_link_up(self, sim: Simulation, u: int, v: int, time: float) -> None:
        roles = self.state.roles
        if roles.item(u) != HEAD or roles.item(v) != HEAD:
            # Any other combination keeps P1/P2 intact (LCC: a member
            # does not switch to a newly reachable head).
            return
        if self.dynamic_priority:
            self._priority = np.asarray(
                self.algorithm.head_priority(sim.degrees()), dtype=float
            )
        cause = CAUSE_HEAD_ADJACENCY_REPAIR
        if sim.faults is not None and sim.faults.is_fault_transition(u, v):
            # Two heads meeting because one just recovered (or an
            # outage lifted) is crash-recovery overhead, not a
            # mobility-driven adjacency repair.
            cause = CAUSE_CRASH_RECOVERY
        # P1 violation: lower priority head resigns.
        if self._priority[u] >= self._priority[v]:
            self._resign_head(sim, v, u, time, cause=cause)
        else:
            self._resign_head(sim, u, v, time, cause=cause)

    # ------------------------------------------------------------------
    # Crash handling (fault plans)
    # ------------------------------------------------------------------
    def on_node_fail(self, sim: Simulation, node: int, time: float) -> None:
        """State wipe: a crashing member silently leaves its cluster.

        A dead radio cannot transmit, so no CLUSTER message is recorded
        — the node is simply marked a standalone head, which keeps
        P1/P2 vacuously true once its links drop this same step.  A
        crashing *head* keeps its role; its orphaned members repair
        themselves through the ordinary ``on_link_down`` path as the
        engine delivers the mask-induced link breaks.
        """
        if self.state.roles[node] == MEMBER:
            self.state.make_head(node)
            self.head_changes_total += 1
            if sim.tracer.enabled:
                sim.tracer.emit(
                    "head_change",
                    time,
                    sim=sim.sim_id,
                    node=int(node),
                    kind="elect",
                    span=sim.spans.current,
                )
            self._notify(sim, node, time)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def head_ratio(self) -> float:
        """Current measured cluster-head ratio ``P``."""
        return self.state.head_ratio()

    def cluster_count(self) -> int:
        """Current number of clusters."""
        return self.state.cluster_count()
