"""Invariant auditor: cadence, trace events, counters, strict mode."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.clustering.base import Role
from repro.mobility import EpochRandomWaypointModel
from repro.obs import AuditError, CollectingTracer, InvariantAuditor
from repro.routing import HybridRoutingProtocol, IntraClusterRoutingProtocol
from repro.sim import HelloProtocol, Simulation
from repro.sim.traffic import CbrFlow, HybridRouterAdapter, Packet, TrafficProtocol


def _build_stack(params, seed=0, tracer=None, every=1.0, strict=False, flows=()):
    sim = Simulation(
        params,
        EpochRandomWaypointModel(params.velocity, epoch=1.0),
        seed=seed,
        tracer=tracer,
    )
    sim.attach(HelloProtocol(mode="event"))
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    intra = sim.attach(IntraClusterRoutingProtocol(maintenance))
    sim.attach(maintenance)
    if flows:
        hybrid = sim.attach(HybridRoutingProtocol(maintenance, intra))
        sim.attach(TrafficProtocol(list(flows), HybridRouterAdapter(hybrid)))
    auditor = sim.attach(
        InvariantAuditor(maintenance, every=every, strict=strict)
    )
    return sim, maintenance, auditor


class TestAuditCadence:
    def test_audits_on_the_configured_cadence(self, params):
        tracer = CollectingTracer()
        sim, _, auditor = _build_stack(params, tracer=tracer, every=1.0)
        sim.run(duration=3.0, warmup=0.0)
        # One audit per simulated second, plus the closing run-end audit.
        assert 3 <= auditor.audits <= 6
        events = tracer.of("invariant_audit")
        assert len(events) == auditor.audits

    def test_maintained_structure_stays_valid(self, params):
        tracer = CollectingTracer()
        sim, _, auditor = _build_stack(params, tracer=tracer)
        sim.run(duration=3.0, warmup=0.5)
        assert auditor.ok
        assert auditor.violations == 0
        assert auditor.violation_time == 0.0
        assert auditor.violation_spans == []
        for record in tracer.of("invariant_audit"):
            assert record["ok"] is True
            assert record["adjacent_heads"] == 0
            assert record["unaffiliated"] == 0
            assert record["sim"] == sim.sim_id

    def test_event_counters_are_cumulative(self, params):
        tracer = CollectingTracer()
        sim, _, auditor = _build_stack(params, tracer=tracer)
        sim.run(duration=3.0, warmup=0.0)
        counts = [r["audits"] for r in tracer.of("invariant_audit")]
        assert counts == sorted(counts)
        assert counts[-1] == auditor.audits

    def test_rejects_non_positive_cadence(self, params):
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        with pytest.raises(ValueError, match="every"):
            InvariantAuditor(maintenance, every=0.0)


class TestAuditViolations:
    def _corrupt(self, sim, maintenance):
        """Promote a member to head: its own head becomes an adjacent head."""
        state = maintenance.state
        members = np.flatnonzero(state.roles == Role.MEMBER)
        for node in members:
            head = int(state.head_of[node])
            if sim.adjacency[node, head]:
                state.make_head(int(node))
                return
        pytest.fail("no member adjacent to its head found")

    def test_violation_is_counted_and_traced(self, params):
        tracer = CollectingTracer()
        sim, maintenance, auditor = _build_stack(params, tracer=tracer)
        sim.run(duration=1.0, warmup=0.0)
        self._corrupt(sim, maintenance)
        assert auditor.audit(sim, sim.time) is False
        assert auditor.violations == 1
        assert not auditor.ok
        last = tracer.of("invariant_audit")[-1]
        assert last["ok"] is False
        assert last["adjacent_heads"] >= 1

    def test_strict_mode_raises_audit_error(self, params):
        sim, maintenance, auditor = _build_stack(params, strict=True)
        sim.run(duration=1.0, warmup=0.0)
        self._corrupt(sim, maintenance)
        with pytest.raises(AuditError, match="invariant audit failed"):
            auditor.audit(sim, sim.time)

    def test_violation_episode_closes_at_run_end(self, params):
        sim, maintenance, auditor = _build_stack(params, every=0.5)
        sim.run(duration=1.0, warmup=0.0)
        self._corrupt(sim, maintenance)
        auditor.audit(sim, sim.time)
        auditor.on_run_end(sim, sim.time + 0.5)
        assert auditor.violation_spans
        start, end = auditor.violation_spans[-1]
        assert end >= start


class TestTrafficConservation:
    FLOWS = (CbrFlow(0, 50, 0.2), CbrFlow(7, 93, 0.3, start=0.1))

    @staticmethod
    def _traffic(sim):
        (traffic,) = [p for p in sim.protocols if isinstance(p, TrafficProtocol)]
        return traffic

    def test_balanced_books_pass_and_are_traced(self, params):
        tracer = CollectingTracer()
        sim, _, auditor = _build_stack(
            params, tracer=tracer, strict=True, flows=self.FLOWS
        )
        sim.run(duration=3.0, warmup=0.0)
        assert auditor.ok
        assert self._traffic(sim).traffic.generated > 0
        events = tracer.of("invariant_audit")
        assert events
        assert all(record["traffic_unbalanced"] == 0 for record in events)

    def test_no_traffic_field_without_a_traffic_protocol(self, params):
        tracer = CollectingTracer()
        sim, _, _ = _build_stack(params, tracer=tracer)
        sim.run(duration=1.0, warmup=0.0)
        assert all(
            "traffic_unbalanced" not in record
            for record in tracer.of("invariant_audit")
        )

    def test_lost_packet_fails_the_audit(self, params):
        tracer = CollectingTracer()
        sim, _, auditor = _build_stack(params, tracer=tracer, flows=self.FLOWS)
        sim.run(duration=1.0, warmup=0.0)
        traffic = self._traffic(sim)
        # A packet generated but neither held, delivered nor dropped.
        traffic.traffic.generated += 1
        assert auditor.audit(sim, sim.time) is False
        assert auditor.violations == 1
        last = tracer.of("invariant_audit")[-1]
        assert last["ok"] is False
        assert last["traffic_unbalanced"] == 1
        assert last["adjacent_heads"] == 0

    def test_strict_mode_raises_on_a_ghost_packet(self, params):
        sim, _, auditor = _build_stack(params, strict=True, flows=self.FLOWS)
        sim.run(duration=1.0, warmup=0.0)
        traffic = self._traffic(sim)
        # A packet in flight that was never generated.
        traffic._in_flight.append(Packet(10**6, 0, 50, sim.time, current=0))
        with pytest.raises(AuditError, match="packets in flight"):
            auditor.audit(sim, sim.time)
