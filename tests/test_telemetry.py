"""End-to-end telemetry: tracing, timing and metrics through real runs.

The closed-loop invariant: the ``msg_tx`` event stream a traced run
emits must reproduce the run's :class:`~repro.sim.stats.MessageStats`
totals *exactly* — same categories, same message counts, same bits.
"""

from __future__ import annotations

import json

import pytest

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.mobility import EpochRandomWaypointModel
from repro.obs import (
    CollectingTracer,
    JsonlTracer,
    MetricsRegistry,
    PhaseTimer,
    observe,
    summarize_trace,
)
from repro.routing import IntraClusterRoutingProtocol
from repro.sim import HelloProtocol, Simulation
from trace_schema2 import msg_tx_records


def _build_stack(params, seed=0, tracer=None, timer=None) -> Simulation:
    sim = Simulation(
        params,
        EpochRandomWaypointModel(params.velocity, epoch=1.0),
        seed=seed,
        tracer=tracer,
        timer=timer,
    )
    sim.attach(HelloProtocol(mode="event"))
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    sim.attach(IntraClusterRoutingProtocol(maintenance))
    sim.attach(maintenance)
    return sim


class TestTraceStatsReconciliation:
    def test_msg_tx_stream_reproduces_stats_totals(self, params):
        tracer = CollectingTracer()
        sim = _build_stack(params, tracer=tracer)
        stats = sim.run(duration=3.0, warmup=1.0)

        traced_messages: dict[str, int] = {}
        traced_bits: dict[str, float] = {}
        for record in msg_tx_records(tracer.records):
            category = record["category"]
            traced_messages[category] = (
                traced_messages.get(category, 0) + record["messages"]
            )
            traced_bits[category] = (
                traced_bits.get(category, 0.0) + record["bits"]
            )

        totals = stats.totals
        assert set(traced_messages) == set(totals)
        for category, total in totals.items():
            assert traced_messages[category] == total.messages
            assert traced_bits[category] == pytest.approx(
                total.bits, rel=1e-12
            )

    def test_jsonl_roundtrip_reconciles(self, params, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlTracer(path, step_every=5) as tracer:
            sim = _build_stack(params, tracer=tracer)
            stats = sim.run(duration=3.0, warmup=1.0)
        summary = summarize_trace(path)
        assert summary.reconciles(), summary.mismatches()
        run = summary.runs[sim.sim_id]
        assert run.n_nodes == params.n_nodes
        assert run.measured_time == pytest.approx(stats.measured_time)
        assert run.messages == {
            category: total.messages
            for category, total in stats.totals.items()
        }

    def test_warmup_traffic_is_not_traced(self, params):
        tracer = CollectingTracer()
        sim = _build_stack(params, tracer=tracer)
        sim.run(duration=1.0, warmup=1.0)
        begin = next(
            r for r in tracer.records if r["event"] == "run_begin"
        )
        runs = tracer.of("msgs")
        assert runs
        for record in runs:
            assert record["t"] >= begin["t"]


class TestTraceEvents:
    def test_run_boundaries_and_link_events(self, params):
        tracer = CollectingTracer()
        sim = _build_stack(params, tracer=tracer)
        sim.run(duration=2.0, warmup=0.5)
        events = {record["event"] for record in tracer.records}
        assert {"run_begin", "run_end", "step"} <= events
        # A 100-node mobile network churns links within 2.5 time units.
        assert "links" in events
        links = tracer.of("links")
        assert any(r["up"] for r in links) and any(r["down"] for r in links)
        end = next(r for r in tracer.records if r["event"] == "run_end")
        assert set(end["totals"]) == set(sim.stats.totals)

    def test_cluster_events_have_roles(self, params):
        tracer = CollectingTracer()
        sim = _build_stack(params, tracer=tracer)
        sim.run(duration=2.0, warmup=0.5)
        reaffiliations = tracer.of("cluster_reaffiliation")
        assert reaffiliations, "mobile network must reaffiliate some node"
        for record in reaffiliations:
            assert record["role"] in ("head", "member")
        for record in tracer.of("head_change"):
            assert record["kind"] in ("elect", "resign")

    def test_untraced_run_matches_traced_run(self, params):
        """Tracing must not perturb the simulation itself."""
        plain = _build_stack(params, seed=7)
        stats_plain = plain.run(duration=2.0, warmup=0.5)
        traced = _build_stack(params, seed=7, tracer=CollectingTracer())
        stats_traced = traced.run(duration=2.0, warmup=0.5)
        assert {
            c: (t.messages, t.bits) for c, t in stats_plain.totals.items()
        } == {
            c: (t.messages, t.bits) for c, t in stats_traced.totals.items()
        }


class TestPhaseTimingIntegration:
    def test_engine_charges_kernel_and_protocol_phases(self, params):
        sim = _build_stack(params)
        sim.run(duration=1.0, warmup=0.0)
        report = sim.timing_report()
        phases = {timing.phase for timing in report.phases}
        assert {"mobility", "adjacency", "link_diff"} <= phases
        assert {
            "protocol:hello",
            "protocol:cluster-maintenance",
            "protocol:intra-cluster-routing",
        } <= phases
        assert report.total_seconds > 0.0
        steps = int(round(1.0 / sim.dt))
        by_name = {t.phase: t for t in report.phases}
        assert by_name["adjacency"].calls == steps

    def test_shared_timer_accumulates_across_sims(self, params):
        timer = PhaseTimer()
        for seed in range(2):
            sim = _build_stack(params, seed=seed, timer=timer)
            sim.run(duration=0.5, warmup=0.0)
        steps = int(round(0.5 / Simulation(
            params, EpochRandomWaypointModel(params.velocity, epoch=1.0)
        ).dt))
        by_name = {t.phase: t for t in timer.report().phases}
        assert by_name["mobility"].calls == 2 * steps


class TestAmbientContext:
    def test_simulation_picks_up_ambient_telemetry(self, params):
        tracer = CollectingTracer()
        timer = PhaseTimer()
        registry = MetricsRegistry()
        with observe(tracer=tracer, registry=registry, timer=timer):
            sim = _build_stack(params)
            sim.run(duration=1.0, warmup=0.0)
        assert sim.tracer is tracer
        assert sim.timer is timer
        assert tracer.of("msgs")
        assert timer.seconds("adjacency") > 0.0
        # Stats counters landed in the shared registry, labelled by sim.
        hello = registry.counter(
            "messages_total", category="hello", sim=str(sim.sim_id)
        )
        assert hello.value == sim.stats.message_count("hello")

    def test_shared_registry_keeps_sims_separate(self, params):
        registry = MetricsRegistry()
        with observe(registry=registry):
            first = _build_stack(params, seed=0)
            first.run(duration=1.0, warmup=0.0)
            second = _build_stack(params, seed=1)
            second.run(duration=1.0, warmup=0.0)
        assert first.sim_id != second.sim_id
        for sim in (first, second):
            counter = registry.counter(
                "messages_total", category="hello", sim=str(sim.sim_id)
            )
            assert counter.value == sim.stats.message_count("hello")


class TestTraceSummaryCli:
    def test_cli_summarizes_and_reconciles(self, params, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        with JsonlTracer(path) as tracer:
            sim = _build_stack(params, tracer=tracer)
            sim.run(duration=2.0, warmup=0.5)
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-category message totals" in out
        assert "reconciliation: traced sends match" in out

    def test_cli_json_output(self, params, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        with JsonlTracer(path) as tracer:
            sim = _build_stack(params, tracer=tracer)
            sim.run(duration=1.0, warmup=0.0)
        assert main(["trace-summary", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reconciles"] is True
        assert payload["messages"]["hello"] > 0

    def test_cli_exits_nonzero_on_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        records = [
            {"schema": 1, "event": "run_begin", "t": 0.0, "sim": 0, "n_nodes": 5},
            {"schema": 1, "event": "msg_tx", "t": 1.0, "sim": 0,
             "category": "hello", "messages": 1, "bits": 32.0},
            {"schema": 1, "event": "run_end", "t": 2.0, "sim": 0,
             "measured_time": 2.0,
             "totals": {"hello": {"messages": 9, "bits": 32.0}}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["trace-summary", str(path)]) == 1
        assert "RECONCILIATION FAILED" in capsys.readouterr().out

    def test_cli_prints_span_and_link_counts(self, params, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "spans.jsonl"
        with JsonlTracer(path) as tracer:
            sim = _build_stack(params, tracer=tracer)
            sim.run(duration=2.0, warmup=0.5)
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "causal links" in out
        payload_code = main(["trace-summary", str(path), "--json"])
        assert payload_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"]["started"] == payload["spans"]["ended"] > 0

    def test_cli_missing_file_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace-summary", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_cli_malformed_trace_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "garbage.jsonl"
        path.write_text("{not json}\n")
        assert main(["trace-summary", str(path)]) == 2
        assert "malformed trace" in capsys.readouterr().err


class TestRunCliTelemetryFlags:
    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        code = main(
            [
                "run",
                "fig1",
                "--quick",
                "--trace",
                str(trace_path),
                "--metrics-json",
                str(metrics_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        summary = summarize_trace(trace_path)
        assert summary.reconciles(), summary.mismatches()
        assert summary.messages.get("hello", 0) > 0
        payload = json.loads(metrics_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["metrics"]["counters"]
        timing_phases = {
            p["phase"] for p in payload["timing"]["phases"]
        }
        assert "adjacency" in timing_phases

    def test_simulate_with_progress_prints_timing(self, tmp_path, capsys):
        from repro.cli import main

        scenario = tmp_path / "s.json"
        scenario.write_text(
            json.dumps(
                {
                    "name": "tiny",
                    "n_nodes": 30,
                    "range_fraction": 0.2,
                    "velocity_fraction": 0.05,
                    "duration": 2.0,
                    "warmup": 0.5,
                }
            )
        )
        assert main(["simulate", str(scenario), "--progress"]) == 0
        out = capsys.readouterr().out
        assert "scenario: tiny" in out
        assert "phase timing (wall-clock)" in out
        assert "adjacency" in out
