"""Streaming invariant auditor for the one-hop clustering properties.

The maintenance protocol promises the paper's properties P1 (no two
adjacent cluster-heads) and P2 (every node affiliated to a neighboring
head) after *every* delivered link event.  The test suite asserts this
on small runs; :class:`InvariantAuditor` carries the same check into
any live simulation: attached as an ordinary protocol it re-validates
the maintained :class:`~repro.clustering.base.ClusterState` against the
live edge set on a configurable simulated-time cadence and emits one
``invariant_audit`` trace event per check::

    {"event": "invariant_audit", "t": 6.5, "sim": 0, "ok": true,
     "adjacent_heads": 0, "unaffiliated": 0, "detached_members": 0,
     "dangling_members": 0, "audits": 13, "violations": 0}

Violation *durations* are tracked across audits (the simulated time the
structure spent invalid, at audit resolution), so a transient glitch
and a persistently broken structure are distinguishable in the trace.
In ``strict`` mode the first violation raises :class:`AuditError` —
``repro-manet run --audit strict`` turns any invariant regression into
a non-zero exit, which is how CI uses it.

Attach the auditor *after* the maintenance protocol so its
``on_step_end`` sees the repaired structure of the step, not the
pre-repair one (:func:`repro.obs.health.attach_run_health` does this).

When a :class:`~repro.sim.traffic.TrafficProtocol` is attached, every
audit also checks data-plane conservation: the packets actually held in
flight must equal ``generated - delivered - dropped``.  The audit event
then carries ``traffic_unbalanced`` (traffic protocols whose books do
not balance), and an imbalance fails the audit like a P1/P2 violation.
"""

from __future__ import annotations

__all__ = ["AuditError", "InvariantAuditor"]


class AuditError(RuntimeError):
    """A strict-mode invariant audit found a P1/P2 violation."""


class InvariantAuditor:
    """Protocol auditing P1/P2 of a maintained cluster structure.

    Parameters
    ----------
    maintenance:
        The :class:`~repro.clustering.maintenance.ClusterMaintenanceProtocol`
        (or any object with a ``state`` attribute holding a
        :class:`~repro.clustering.base.ClusterState`) to audit.
    every:
        Simulated time between audits.
    strict:
        Raise :class:`AuditError` on the first violating audit.
    """

    name = "invariant-audit"

    def __init__(self, maintenance, every: float = 1.0, strict: bool = False):
        if every <= 0.0:
            raise ValueError(f"every must be positive, got {every}")
        self.maintenance = maintenance
        self.every = every
        self.strict = strict
        #: Audits performed / audits that found at least one violation.
        self.audits = 0
        self.violations = 0
        #: Simulated time spent in violation, at audit resolution.
        self.violation_time = 0.0
        #: ``(start, end)`` simulated-time spans of violation episodes.
        self.violation_spans: list[tuple[float, float]] = []
        self._violating_since: float | None = None
        self._last_audit_time: float | None = None
        self._next_audit: float = 0.0

    # ------------------------------------------------------------------
    # Protocol hooks (duck-typed; see Simulation.attach)
    # ------------------------------------------------------------------
    def on_attach(self, sim) -> None:
        self._next_audit = sim.time

    def on_step_begin(self, sim, time: float) -> None:
        pass

    def on_link_up(self, sim, u: int, v: int, time: float) -> None:
        pass

    def on_link_down(self, sim, u: int, v: int, time: float) -> None:
        pass

    def on_step_end(self, sim, time: float) -> None:
        if time + 1e-12 < self._next_audit:
            return
        self._next_audit = time + self.every
        self.audit(sim, time)

    def on_run_end(self, sim, time: float) -> None:
        # One closing audit so the trace always ends with a verdict,
        # and any open violation episode is closed at run end.
        self.audit(sim, time)
        if self._violating_since is not None:
            self._close_episode(time)

    # ------------------------------------------------------------------
    def audit(self, sim, time: float) -> bool:
        """Run one audit now; returns whether the structure is valid."""
        # Imported lazily: obs must not pull the clustering package (and
        # through it the simulation engine) at import time.
        from ..clustering.properties import check_properties

        state = self.maintenance.state
        if state is None:
            return True
        found = check_properties(state, sim.neighbor_csr)
        unbalanced = _unbalanced_traffic(sim)
        self.audits += 1
        ok = found.ok and not unbalanced
        counts = {
            "adjacent_heads": len(found.adjacent_heads),
            "unaffiliated": len(found.unaffiliated),
            "detached_members": len(found.detached_members),
            "dangling_members": len(found.dangling_members),
        }
        if unbalanced is not None:
            counts["traffic_unbalanced"] = len(unbalanced)
        if not ok:
            self.violations += 1
            if self._violating_since is None:
                self._violating_since = time
        elif self._violating_since is not None:
            self._close_episode(time)
        self._last_audit_time = time
        if sim.tracer.enabled:
            sim.tracer.emit(
                "invariant_audit",
                time,
                sim=sim.sim_id,
                ok=ok,
                audits=self.audits,
                violations=self.violations,
                **counts,
            )
        if not ok and self.strict:
            problems = [] if found.ok else [found.describe()]
            problems.extend(unbalanced or ())
            raise AuditError(
                f"invariant audit failed at t={time:.6g} "
                f"(sim {sim.sim_id}): {'; '.join(problems)}"
            )
        return ok

    def _close_episode(self, time: float) -> None:
        start = self._violating_since
        self.violation_spans.append((start, time))
        self.violation_time += time - start
        self._violating_since = None

    @property
    def ok(self) -> bool:
        """Whether every audit so far passed."""
        return self.violations == 0


def _unbalanced_traffic(sim) -> list[str] | None:
    """Conservation failures of the attached traffic protocols.

    ``None`` when no :class:`~repro.sim.traffic.TrafficProtocol` is
    attached; otherwise one description per protocol whose in-flight
    packet list disagrees with ``generated - delivered - dropped``.
    """
    from ..sim.traffic import TrafficProtocol

    traffic = [p for p in sim.protocols if isinstance(p, TrafficProtocol)]
    if not traffic:
        return None
    problems = []
    for protocol in traffic:
        books = protocol.traffic
        held = protocol.in_flight_count
        if held != books.generated - books.delivered - books.dropped:
            problems.append(
                f"{protocol.name}: {held} packets in flight but generated "
                f"{books.generated} - delivered {books.delivered} - dropped "
                f"{books.dropped} = {books.in_flight}"
            )
    return problems
