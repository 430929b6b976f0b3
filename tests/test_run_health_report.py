"""Run-health wiring and the `repro-manet report` command.

The acceptance invariant: the report's per-category message totals are
the ones ``trace-summary`` computes — both views are produced from the
same :func:`repro.obs.summarize_trace` aggregation, and the tests here
pin that reconciliation end to end through the CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.mobility import EpochRandomWaypointModel
from repro.obs import (
    JsonlTracer,
    RunHealthConfig,
    attach_run_health,
    build_report,
    observe,
    summarize_trace,
)
from repro.routing import IntraClusterRoutingProtocol
from repro.sim import HelloProtocol, Simulation


def _traced_health_run(params, path, seed=0, rtol=0.5):
    """One full-stack run with the run-health layer, traced to ``path``."""
    config = RunHealthConfig(
        audit_every=1.0, strict=False, residual_window=1.0,
        residual_rtol=rtol,
    )
    with JsonlTracer(path, step_every=5) as tracer:
        with observe(tracer=tracer, health=config):
            sim = Simulation(
                params,
                EpochRandomWaypointModel(params.velocity, epoch=1.0),
                seed=seed,
            )
            sim.attach(HelloProtocol(mode="event"))
            maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
            sim.attach(IntraClusterRoutingProtocol(maintenance))
            sim.attach(maintenance)
            auditor, monitor = attach_run_health(sim, maintenance)
            assert auditor is not None and monitor is not None
            sim.run(duration=3.0, warmup=0.5)
    return sim


class TestAttachRunHealth:
    def test_noop_without_ambient_config(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, epoch=1.0)
        )
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        sim.attach(maintenance)
        before = len(sim.protocols)
        assert attach_run_health(sim, maintenance) == (None, None)
        assert len(sim.protocols) == before

    def test_hello_only_stack_monitors_hello_only(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, epoch=1.0)
        )
        sim.attach(HelloProtocol(mode="event"))
        auditor, monitor = attach_run_health(
            sim, None, config=RunHealthConfig()
        )
        assert auditor is None
        assert monitor is not None
        assert monitor.categories == ("hello",)


class TestReportReconciliation:
    def test_report_totals_match_trace_summary_exactly(
        self, params, tmp_path
    ):
        path = tmp_path / "health.jsonl"
        _traced_health_run(params, path)
        summary = summarize_trace(path)
        report = build_report([path])
        folded = report.traces[0]
        assert folded.messages == summary.messages
        assert folded.bits == summary.bits
        assert folded.reconciles()
        text = report.render()
        for category, count in summary.messages.items():
            assert f"| {category} | {count} |" in text

    def test_traced_run_contains_health_events(self, params, tmp_path):
        path = tmp_path / "health.jsonl"
        _traced_health_run(params, path)
        summary = summarize_trace(path)
        assert summary.event_counts.get("invariant_audit", 0) > 0
        assert summary.event_counts.get("residual", 0) > 0

    def test_healthy_run_renders_healthy(self, params, tmp_path):
        path = tmp_path / "health.jsonl"
        _traced_health_run(params, path, rtol=0.9)
        report = build_report([path])
        assert report.problems() == []
        assert report.healthy
        assert "Verdict: HEALTHY" in report.render()


class TestReportCli:
    def _minimal_records(self, residual_ok=True):
        return [
            {"event": "run_begin", "t": 0.0, "sim": 0, "n_nodes": 10},
            {"event": "msg_tx", "t": 1.0, "sim": 0, "category": "hello",
             "messages": 4, "bits": 128.0},
            {"event": "invariant_audit", "t": 1.0, "sim": 0, "ok": True,
             "audits": 1, "violations": 0, "adjacent_heads": 0,
             "unaffiliated": 0, "detached_members": 0,
             "dangling_members": 0},
            {"event": "residual", "t": 2.0, "sim": 0, "kind": "window",
             "category": "hello", "window_start": 0.0, "elapsed": 2.0,
             "measured": 0.2, "bound": 0.1, "residual": 0.1,
             "rtol": 0.05, "ok": True},
            {"event": "residual", "t": 2.0, "sim": 0, "kind": "final",
             "category": "hello", "elapsed": 2.0,
             "measured": 0.2 if residual_ok else 0.01, "bound": 0.1,
             "residual": 0.1 if residual_ok else -0.09,
             "rtol": 0.05, "ok": residual_ok},
            {"event": "run_end", "t": 2.0, "sim": 0, "measured_time": 2.0,
             "totals": {"hello": {"messages": 4, "bits": 128.0}}},
        ]

    def _write(self, path, records):
        path.write_text(
            "".join(
                json.dumps({"schema": 1, **r}) + "\n" for r in records
            )
        )

    def test_healthy_trace_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        self._write(path, self._minimal_records())
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Run-health report" in out
        assert "Verdict: HEALTHY" in out

    def test_failed_residual_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        self._write(path, self._minimal_records(residual_ok=False))
        assert main(["report", str(path)]) == 1
        assert "UNHEALTHY" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_empty_trace_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", str(path)]) == 2
        assert "malformed trace" in capsys.readouterr().err

    def test_out_writes_markdown_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        self._write(path, self._minimal_records())
        out_path = tmp_path / "report.md"
        assert main(["report", str(path), "--out", str(out_path)]) == 0
        assert "Run-health report" in out_path.read_text()
        assert str(out_path) in capsys.readouterr().out


class TestAuditCliFlags:
    def test_run_with_audit_emits_health_events(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.jsonl"
        code = main(
            [
                "run", "fig1", "--quick",
                "--trace", str(trace_path),
                "--audit", "strict",
                "--sample-resources", "0.2",
            ]
        )
        assert code == 0
        capsys.readouterr()
        summary = summarize_trace(trace_path)
        assert summary.event_counts.get("invariant_audit", 0) > 0
        assert summary.event_counts.get("residual", 0) > 0
        assert summary.event_counts.get("resource_sample", 0) > 0
        assert summary.reconciles(), summary.mismatches()

    def test_sample_resources_requires_trace(self, capsys):
        from repro.cli import main

        code = main(
            ["run", "fig1", "--quick", "--sample-resources", "0.5"]
        )
        assert code == 2
        assert "--sample-resources requires --trace" in (
            capsys.readouterr().err
        )


class TestResourceSamplerDegradation:
    """Satellite: no RSS source must not kill resource sampling."""

    def test_samples_flow_with_rss_none(self, monkeypatch):
        from repro.obs import resources

        monkeypatch.setattr(resources.os.path, "exists", lambda _: False)
        monkeypatch.setattr(resources, "current_rss_kb", lambda: None)
        sampler = resources.ResourceSampler(interval=0.05)
        assert sampler.rss_source == "unavailable"
        sampler.start()
        sampler.stop()
        assert sampler.samples
        for sample in sampler.samples:
            assert sample["rss_kb"] is None
            assert sample["cpu_s"] >= 0.0
        summary = sampler.summary()
        assert summary["rss_kb_max"] is None
        assert summary["rss_kb_mean"] is None
        assert summary["rss_source"] == "unavailable"

    def test_current_rss_kb_none_when_both_sources_fail(self, monkeypatch):
        import builtins

        from repro.obs.resources import current_rss_kb

        real_import = builtins.__import__

        def no_resource(name, *args, **kwargs):
            if name == "resource":
                raise ImportError("no resource module")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(
            "builtins.open",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no procfs")),
        )
        monkeypatch.setattr(builtins, "__import__", no_resource)
        assert current_rss_kb() is None

    def test_report_renders_rss_unavailable(self, tmp_path, capsys):
        import json as _json

        from repro.cli import main

        path = tmp_path / "norss.jsonl"
        records = [
            {"schema": 1, "event": "run_begin", "t": 0.0, "sim": 0,
             "n_nodes": 5},
            {"schema": 1, "event": "resource_sample", "t": 0.5, "sim": 0,
             "wall_s": 0.5, "rss_kb": None, "cpu_s": 0.1,
             "cpu_util": 0.4, "phases": {"mobility": 0.01}},
            {"schema": 1, "event": "run_end", "t": 2.0, "sim": 0,
             "measured_time": 2.0, "totals": {}},
        ]
        path.write_text(
            "".join(_json.dumps(r) + "\n" for r in records)
        )
        code = main(["report", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "RSS: unavailable on this platform" in out
