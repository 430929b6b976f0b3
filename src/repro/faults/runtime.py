"""The engine-side fault injector: applies a compiled plan step by step.

A :class:`FaultInjector` owns the simulation's radio mask while
attached: every step the engine's fault phase calls :meth:`advance`
*before* connectivity is recomputed, so crash/recover events and outage
membership changes take effect in the same step's edge set and are
delivered to protocols as ordinary link events.  On top of the mask it
provides the two services the degradation paths consume:

* :meth:`drop` — one Bernoulli draw from the plan's dedicated loss
  stream (HELLO receptions, RREQ flood hops).  With ``loss_rate == 0``
  callers skip the draw entirely, so a zero-loss plan replays
  bit-identically to running without one.
* :meth:`is_fault_transition` — whether a link event delivered this
  step was caused by a fault transition (either endpoint crashed,
  recovered, or crossed an outage boundary during this step's fault
  phase), which is what lets repair sites attribute their messages to
  the ``crash-recovery`` cause instead of the mobility-driven default.

Every injection/clearance emits a ``fault_inject`` / ``fault_clear``
trace event (annotated with the innermost open span) and increments a
``fault_*`` counter, mirrored into the ambient metrics registry when
one is configured.
"""

from __future__ import annotations

import numpy as np

from ..obs import context as obs_context
from .plan import FaultPlan

__all__ = ["FaultInjector", "attach_faults"]

#: Counter attribute -> registry metric name.
_COUNTERS = (
    ("crashes_total", "fault_crashes"),
    ("recoveries_total", "fault_recoveries"),
    ("outage_enters_total", "fault_outage_enters"),
    ("outage_exits_total", "fault_outage_exits"),
    ("hello_losses_total", "fault_hello_losses"),
    ("hello_retransmits_total", "fault_hello_retransmits"),
    ("route_retries_total", "fault_route_retries"),
)


class FaultInjector:
    """Applies one :class:`~repro.faults.plan.FaultPlan` to one simulation."""

    def __init__(self, sim, plan: FaultPlan) -> None:
        self.plan = plan
        self.sim_id = sim.sim_id
        n = sim.n_nodes
        self.crashed = np.zeros(n, dtype=bool)
        self.outaged = np.zeros(n, dtype=bool)
        self._cursor = 0
        self._transitions: set[int] = set()
        self.loss_rate = plan.config.loss_rate
        self._loss_rng = (
            np.random.default_rng(np.random.SeedSequence(plan.loss_entropy))
            if self.loss_rate > 0.0
            else None
        )
        for attribute, _metric in _COUNTERS:
            setattr(self, attribute, 0)
        registry = obs_context.current().registry
        self._metrics = {}
        if registry is not None:
            labels = {"sim": str(self.sim_id)}
            self._metrics = {
                attribute: registry.counter(metric, **labels)
                for attribute, metric in _COUNTERS
            }

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def count(self, attribute: str, amount: int = 1) -> None:
        """Increment one ``fault_*`` counter (attribute + registry)."""
        setattr(self, attribute, getattr(self, attribute) + amount)
        metric = self._metrics.get(attribute)
        if metric is not None:
            metric.inc(amount)

    def _emit(self, sim, event: str, time: float, **fields) -> None:
        if not sim.tracer.enabled:
            return
        span = sim.spans.current
        if span is not None:
            fields["span"] = span
        sim.tracer.emit(event, time, sim=sim.sim_id, **fields)

    # ------------------------------------------------------------------
    # Loss service
    # ------------------------------------------------------------------
    def drop(self) -> bool:
        """One Bernoulli draw: True when the packet is lost.

        Call sites must guard with ``loss_rate > 0`` so a zero-loss
        plan consumes no randomness at all.
        """
        return bool(self._loss_rng.random() < self.loss_rate)

    # ------------------------------------------------------------------
    # Transition service
    # ------------------------------------------------------------------
    def is_fault_transition(self, u: int, v: int) -> bool:
        """Whether this step's fault phase touched either endpoint."""
        transitions = self._transitions
        return u in transitions or v in transitions

    # ------------------------------------------------------------------
    # The fault phase
    # ------------------------------------------------------------------
    def advance(self, sim, now: float, positions: np.ndarray) -> None:
        """Apply every fault transition due by ``now``.

        Called by the engine after mobility advanced but before the edge
        set is recomputed, so the updated radio mask shapes this step's
        connectivity and the resulting link events.
        """
        transitions = self._transitions
        transitions.clear()
        events = self.plan.events
        cursor = self._cursor
        while cursor < len(events) and events[cursor][0] <= now:
            _time, kind, node = events[cursor]
            cursor += 1
            if kind == "crash":
                if self.crashed[node]:
                    continue
                self.crashed[node] = True
                transitions.add(node)
                self.count("crashes_total")
                self._emit(sim, "fault_inject", now, kind="crash", node=node)
                # State wipe: a crashed node loses its protocol state
                # (neighbor tables, routes), not just its radio.
                sim.notify_node_fail(node)
            else:
                if not self.crashed[node]:
                    continue
                self.crashed[node] = False
                transitions.add(node)
                self.count("recoveries_total")
                self._emit(sim, "fault_clear", now, kind="crash", node=node)
                sim.notify_node_recover(node)
        self._cursor = cursor

        outages = self.plan.config.outages
        if outages:
            mask = np.zeros(sim.n_nodes, dtype=bool)
            side = sim.region.side
            for outage in outages:
                if not outage.active_at(now):
                    continue
                center = outage.center_at(now, side)
                inside = sim.region.distance(positions, center) <= (
                    outage.radius * side
                )
                mask |= inside
            for node in np.flatnonzero(mask & ~self.outaged):
                node = int(node)
                transitions.add(node)
                self.count("outage_enters_total")
                self._emit(sim, "fault_inject", now, kind="outage", node=node)
            for node in np.flatnonzero(self.outaged & ~mask):
                node = int(node)
                transitions.add(node)
                self.count("outage_exits_total")
                self._emit(sim, "fault_clear", now, kind="outage", node=node)
            self.outaged = mask

        if transitions:
            effective = ~(self.crashed | self.outaged)
            if not np.array_equal(effective, sim.active):
                sim.active[:] = effective


def attach_faults(sim, plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` on ``sim``; returns the injector for inspection.

    The injector owns ``sim.active`` from here on — manual
    ``fail_node`` / ``recover_node`` calls alongside an attached plan
    will be overwritten at the next fault transition.
    """
    if sim.faults is not None:
        raise ValueError("a fault plan is already attached to this simulation")
    injector = FaultInjector(sim, plan)
    sim.faults = injector
    if injector.loss_rate > 0.0:
        # One greppable activation marker per run: loss is continuous,
        # not an event, so it is announced once at attach time.
        injector._emit(
            sim, "fault_inject", sim.time, kind="loss", rate=injector.loss_rate
        )
    return injector
