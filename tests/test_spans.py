"""Span layer: hierarchy, laziness, causal links, engine integration.

The structural invariants a traced run must satisfy:

* every ``span_start`` has exactly one matching ``span_end`` (the run
  span is unwound at ``trace_run_end``);
* step spans are lazy — they appear in the trace only when a handler
  span materialized inside them;
* every ``span_link`` references two spans that were actually started;
* ``msgs`` runs sent inside a handler span carry its id, which
  is the attribution the compare/timeline tooling builds on.
"""

from __future__ import annotations

import pytest

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.mobility import EpochRandomWaypointModel
from repro.obs import NULL_TRACER, CollectingTracer, SpanTracker
from repro.obs.spans import next_span_id
from repro.sim import HelloProtocol, Simulation


class TestSpanTracker:
    def test_start_end_emits_matched_pair(self):
        tracer = CollectingTracer()
        spans = SpanTracker(tracer, sim_id=0)
        span = spans.start("outer", "run", 1.0)
        spans.end(3.5)
        starts = tracer.of("span_start")
        ends = tracer.of("span_end")
        assert len(starts) == len(ends) == 1
        assert starts[0]["span"] == ends[0]["span"] == span
        assert starts[0]["name"] == "outer"
        assert starts[0]["kind"] == "run"
        assert "parent" not in starts[0]
        assert ends[0]["duration"] == pytest.approx(2.5)

    def test_nested_spans_carry_parent(self):
        tracer = CollectingTracer()
        spans = SpanTracker(tracer, sim_id=0)
        outer = spans.start("outer", "run", 0.0)
        inner = spans.start("inner", "handler", 1.0)
        assert spans.current == inner
        spans.end(2.0)
        assert spans.current == outer
        spans.end(3.0)
        starts = {r["name"]: r for r in tracer.of("span_start")}
        assert starts["inner"]["parent"] == outer
        assert inner != outer

    def test_lazy_span_without_child_emits_nothing(self):
        tracer = CollectingTracer()
        spans = SpanTracker(tracer, sim_id=0)
        spans.start_lazy("step", "step", 0.0)
        assert spans.current is None
        assert spans.end(1.0) is None
        assert tracer.of("span_start") == []
        assert tracer.of("span_end") == []

    def test_lazy_span_materializes_with_child(self):
        tracer = CollectingTracer()
        spans = SpanTracker(tracer, sim_id=0)
        spans.start_lazy("step", "step", 0.0)
        child = spans.start("handler", "handler", 0.5)
        starts = tracer.of("span_start")
        # Outermost first: the lazy step was emitted before its child
        # and became the child's parent.
        assert [r["name"] for r in starts] == ["step", "handler"]
        assert starts[1]["parent"] == starts[0]["span"]
        assert child == starts[1]["span"]
        spans.end(0.6)
        spans.end(1.0)
        assert len(tracer.of("span_end")) == 2

    def test_unwind_closes_everything(self):
        tracer = CollectingTracer()
        spans = SpanTracker(tracer, sim_id=0)
        spans.start("a", "run", 0.0)
        spans.start("b", "phase", 0.0)
        spans.start_lazy("c", "step", 0.0)
        spans.unwind(9.0)
        assert spans.depth == 0
        assert len(tracer.of("span_end")) == 2  # lazy "c" never emitted

    def test_end_on_empty_stack_is_noop(self):
        spans = SpanTracker(CollectingTracer(), sim_id=0)
        assert spans.end(1.0) is None

    def test_link_emits_edge(self):
        tracer = CollectingTracer()
        spans = SpanTracker(tracer, sim_id=3)
        spans.link(10, 11, "cascade", 2.0)
        (link,) = tracer.of("span_link")
        assert link["src_span"] == 10
        assert link["dst_span"] == 11
        assert link["kind"] == "cascade"
        assert link["sim"] == 3

    def test_ids_are_process_unique(self):
        tracer = CollectingTracer()
        a = SpanTracker(tracer, sim_id=0)
        b = SpanTracker(tracer, sim_id=1)
        ids = {a.start("x", "run", 0.0), b.start("x", "run", 0.0),
               next_span_id()}
        assert len(ids) == 3

    def test_disabled_tracer_reports_disabled(self):
        spans = SpanTracker(NULL_TRACER, sim_id=0)
        assert not spans.enabled


def _traced_run(params, seed=0, duration=3.0):
    tracer = CollectingTracer()
    sim = Simulation(
        params,
        EpochRandomWaypointModel(params.velocity, epoch=1.0),
        seed=seed,
        tracer=tracer,
    )
    sim.attach(HelloProtocol(mode="event"))
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    sim.attach(maintenance)
    sim.run(duration=duration, warmup=1.0)
    return tracer, sim, maintenance


class TestEngineSpans:
    def test_every_span_start_has_matching_end(self, params):
        tracer, _sim, _m = _traced_run(params)
        started = {r["span"] for r in tracer.of("span_start")}
        ended = {r["span"] for r in tracer.of("span_end")}
        assert started
        assert started == ended

    def test_hierarchy_kinds_present(self, params):
        tracer, sim, _m = _traced_run(params)
        kinds = {r["kind"] for r in tracer.of("span_start")}
        assert {"run", "phase", "handler"} <= kinds
        runs = [r for r in tracer.of("span_start") if r["kind"] == "run"]
        assert len(runs) == 1
        assert runs[0]["sim"] == sim.sim_id

    def test_step_spans_lazy(self, params):
        tracer, _sim, _m = _traced_run(params)
        steps = [r for r in tracer.of("span_start") if r["kind"] == "step"]
        traced_steps = len(tracer.of("step"))
        # Not every step materializes a span — only those containing a
        # maintenance handler (structurally interesting steps).
        assert steps, "no step span ever materialized"
        handler_parents = {
            r.get("parent")
            for r in tracer.of("span_start")
            if r["kind"] == "handler"
        }
        step_ids = {r["span"] for r in steps}
        assert handler_parents & step_ids
        assert len(steps) <= max(traced_steps, 1) * 10  # sanity bound

    def test_links_reference_started_spans(self, params):
        tracer, _sim, _m = _traced_run(params, seed=5, duration=4.0)
        started = {r["span"] for r in tracer.of("span_start")}
        links = tracer.of("span_link")
        for link in links:
            assert link["src_span"] in started
            assert link["dst_span"] in started

    def test_maintenance_events_and_msg_tx_carry_span_ids(self, params):
        tracer, _sim, maintenance = _traced_run(params, seed=5, duration=4.0)
        started = {r["span"] for r in tracer.of("span_start")}
        reaffiliations = tracer.of("cluster_reaffiliation")
        assert reaffiliations
        for record in reaffiliations:
            assert record["span"] in started
        annotated = [
            r for r in tracer.of("msgs") if r.get("span") is not None
        ]
        assert annotated, "no run of sends was attributed to a span"
        for record in annotated:
            assert record["span"] in started

    def test_counters_match_event_totals(self, params):
        tracer, _sim, maintenance = _traced_run(params, seed=5, duration=4.0)
        assert maintenance.head_changes_total == len(
            tracer.of("head_change")
        )
        assert maintenance.reaffiliations_total == len(
            tracer.of("cluster_reaffiliation")
        )

    def test_untraced_run_pays_no_spans(self, params):
        sim = Simulation(
            params,
            EpochRandomWaypointModel(params.velocity, epoch=1.0),
            seed=0,
        )
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        sim.attach(maintenance)
        sim.run(duration=2.0, warmup=0.5)
        assert sim.spans.depth == 0
        # Counters still accumulate (they are unconditional, which is
        # what makes the dynamics reconciliation by-construction).
        assert maintenance.reaffiliations_total >= 0
