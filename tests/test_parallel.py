"""Tests for the process-parallel task runner (repro.analysis.parallel).

The contract under test: any ``jobs`` value produces results identical
to a serial run (determinism), results come back in task order, and
telemetry captured in workers merges into the parent's observability
context so traced parallel runs still reconcile end-to-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import parallel as parallel_mod
from repro.analysis.parallel import (
    TaskTelemetry,
    merge_telemetry,
    resolve_jobs,
    run_tasks,
    task_chunk_size,
)
from repro.analysis.sweep import measure_point
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.obs import (
    JsonlTracer,
    MetricsRegistry,
    PhaseTimer,
    RunHealthConfig,
    attach_attribution,
    current,
    observe,
    summarize_trace,
)
from repro.sim import HelloProtocol, Simulation


def _square_task(task):
    return task * task


def _seeded_draw_task(seed):
    return float(np.random.default_rng(seed).random())


def _tiny_params():
    return NetworkParameters.from_fractions(
        n_nodes=40, range_fraction=0.15, velocity_fraction=0.05
    )


def _ledger_free_task(seed):
    """Whether a stack built the way experiments build one has no ledger."""
    params = _tiny_params()
    sim = Simulation(params, EpochRandomWaypointModel(params.velocity), seed=seed)
    sim.attach(HelloProtocol(mode="event"))
    attach_attribution(sim)
    return sim.attribution is None


def _counter_rows(registry) -> list:
    """Counter rows in registration order, sim ids renumbered by appearance."""
    sims: dict[str, str] = {}
    rows = []
    for row in registry.to_dict()["counters"]:
        labels = dict(row["labels"])
        if "sim" in labels:
            labels["sim"] = sims.setdefault(labels["sim"], str(len(sims)))
        rows.append((row["name"], sorted(labels.items()), row["value"]))
    return rows


class TestResolveJobs:
    def test_none_means_serial(self):
        assert resolve_jobs(None, 10) == 1

    def test_capped_at_task_count(self):
        assert resolve_jobs(8, 3) == 3

    def test_zero_means_cpu_count(self):
        import os

        assert resolve_jobs(0, 100) == min(os.cpu_count() or 1, 100)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1, 5)

    def test_at_least_one(self):
        assert resolve_jobs(4, 0) == 1


class TestTaskChunkSize:
    def test_four_chunks_per_worker(self):
        assert task_chunk_size(32, 2) == 4
        assert task_chunk_size(100, 4) == 6

    def test_never_below_one(self):
        assert task_chunk_size(3, 4) == 1
        assert task_chunk_size(0, 1) == 1

    def test_serial_batches_too(self):
        # jobs=1 still amortizes: one worker, ~4 submissions.
        assert task_chunk_size(40, 1) == 10


class TestWorkerChunking:
    def test_chunked_results_in_order(self):
        # 32 tasks / 2 jobs -> chunk_size 4: exercises multi-task chunks.
        tasks = list(range(32))
        assert run_tasks(_square_task, tasks, jobs=2) == [
            t * t for t in tasks
        ]

    def test_chunk_size_surfaces_in_metrics(self):
        registry = MetricsRegistry()
        with observe(registry=registry):
            run_tasks(_square_task, list(range(16)), jobs=2)
        gauges = {
            row["name"]: row["value"]
            for row in registry.to_dict()["gauges"]
        }
        assert gauges["worker_chunk_size"] == task_chunk_size(16, 2)

    def test_pool_reused_across_sweeps(self):
        from repro.analysis import parallel as parallel_mod

        run_tasks(_square_task, list(range(8)), jobs=2)
        first = parallel_mod._POOL
        assert first is not None
        run_tasks(_square_task, list(range(8)), jobs=2)
        assert parallel_mod._POOL is first

    def test_pool_recreated_on_jobs_change(self):
        from repro.analysis import parallel as parallel_mod

        run_tasks(_square_task, list(range(8)), jobs=2)
        first = parallel_mod._POOL
        run_tasks(_square_task, list(range(9)), jobs=3)
        assert parallel_mod._POOL is not first


class TestRunTasks:
    def test_serial_results_in_order(self):
        assert run_tasks(_square_task, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_parallel_results_in_order(self):
        tasks = list(range(9))
        assert run_tasks(_square_task, tasks, jobs=3) == [
            t * t for t in tasks
        ]

    def test_serial_equals_parallel_with_rng(self):
        seeds = list(range(6))
        serial = run_tasks(_seeded_draw_task, seeds)
        parallel = run_tasks(_seeded_draw_task, seeds, jobs=2)
        assert serial == parallel

    def test_empty_task_list(self):
        assert run_tasks(_square_task, [], jobs=4) == []


class TestSweepDeterminism:
    def test_point_bitwise_identical_across_jobs(self):
        params = _tiny_params()
        kwargs = dict(seeds=3, duration=2.0, warmup=0.5)
        serial = measure_point(params, params.tx_range, **kwargs, jobs=1)
        parallel = measure_point(params, params.tx_range, **kwargs, jobs=4)
        assert serial.measured == parallel.measured
        assert serial.predicted == parallel.predicted
        assert serial.measured_head_ratio == parallel.measured_head_ratio
        assert serial == parallel


class TestTelemetryMerge:
    def test_phase_timings_merged(self):
        timer = PhaseTimer()
        with observe(timer=timer):
            measure_point(
                _tiny_params(), 0.15, seeds=2, duration=1.0, warmup=0.2, jobs=2
            )
        phases = {p.phase: p for p in timer.report().phases}
        for phase in ("mobility", "adjacency", "link_diff"):
            assert phase in phases
            assert phases[phase].seconds > 0.0
            assert phases[phase].calls > 0

    def test_metrics_merged_with_distinct_sim_ids(self):
        registry = MetricsRegistry()
        with observe(registry=registry):
            measure_point(
                _tiny_params(), 0.15, seeds=3, duration=1.0, warmup=0.2, jobs=3
            )
        counters = registry.to_dict()["counters"]
        sims = {
            row["labels"]["sim"]
            for row in counters
            if "sim" in row["labels"]
        }
        assert len(sims) == 3  # one remapped id per worker run

    def test_traced_parallel_run_reconciles(self, tmp_path):
        trace_path = tmp_path / "parallel.jsonl"
        tracer = JsonlTracer(str(trace_path), step_every=5)
        registry = MetricsRegistry()
        with observe(tracer=tracer, registry=registry, timer=PhaseTimer()):
            measure_point(
                _tiny_params(), 0.15, seeds=2, duration=1.0, warmup=0.2, jobs=2
            )
        tracer.close()
        summary = summarize_trace(str(trace_path))
        assert summary.reconciles()
        assert len(summary.runs) == 2

    def test_merge_remaps_sim_labels(self):
        telemetry = TaskTelemetry(
            records=[
                {"event": "msgs", "t": 0.1, "sim": 0, "category": ["hello"],
                 "messages": [2], "bits": [64.0]},
            ],
            phases=[("mobility", 0.5, 10)],
            metrics={
                "counters": [
                    {
                        "name": "messages_total",
                        "labels": {"sim": "0", "category": "hello"},
                        "value": 2,
                    }
                ],
                "gauges": [],
                "histograms": [],
            },
        )
        from repro.obs.tracer import CollectingTracer

        tracer = CollectingTracer()
        registry = MetricsRegistry()
        timer = PhaseTimer()
        with observe(tracer=tracer, registry=registry, timer=timer):
            merge_telemetry(telemetry, current())
        # The worker's sim 0 must NOT stay 0 — it is remapped through
        # the parent's id counter to avoid collisions.
        record = tracer.records[0]
        assert record["event"] == "msgs"
        counter_rows = registry.to_dict()["counters"]
        assert counter_rows[0]["labels"]["sim"] == str(record["sim"])
        phases = {p.phase: p for p in timer.report().phases}
        assert phases["mobility"].seconds == 0.5
        assert phases["mobility"].calls == 10


class TestSpanMergeDeterminism:
    """Span ids survive the worker merge with identical structure.

    Workers allocate span ids from their own process-local counters, so
    ``merge_telemetry`` remaps them through the parent's counter exactly
    like sim ids.  After normalizing ids by order of first appearance
    within each run, a ``--jobs 2`` trace must carry the same span
    content as a serial one.
    """

    _SPAN_EVENTS = (
        "span_start",
        "span_end",
        "span_link",
        "cluster_reaffiliation",
        "head_change",
        "cluster_window",
        "gateway_change",
        "msgs",
    )

    def _span_events(self, jobs):
        from repro.obs import CollectingTracer

        tracer = CollectingTracer()
        with observe(tracer=tracer):
            measure_point(
                _tiny_params(), 0.15, seeds=2, duration=1.5, warmup=0.3,
                jobs=jobs,
            )
        by_sim: dict[int, list[dict]] = {}
        for record in tracer.records:
            if record["event"] in self._SPAN_EVENTS:
                by_sim.setdefault(record["sim"], []).append(record)
        canonical = []
        for records in by_sim.values():
            local: dict[int, int] = {}

            def rename(span_id):
                if span_id not in local:
                    local[span_id] = len(local)
                return local[span_id]

            run = []
            for record in records:
                fields = {}
                for key, value in record.items():
                    if key in ("sim", "schema"):
                        continue
                    if key in ("span", "parent", "src_span", "dst_span"):
                        value = rename(value)
                    fields[key] = value
                run.append(tuple(sorted(fields.items())))
            canonical.append(run)
        return sorted(canonical)

    def test_jobs2_trace_matches_serial_after_remap(self):
        serial = self._span_events(jobs=1)
        parallel = self._span_events(jobs=2)
        assert serial, "no span events were traced at all"
        assert any(
            dict(fields)["event"] == "span_start"
            for run in serial
            for fields in run
        )
        assert serial == parallel

    def test_merged_span_ids_globally_unique(self):
        from repro.obs import CollectingTracer

        tracer = CollectingTracer()
        with observe(tracer=tracer):
            measure_point(
                _tiny_params(), 0.15, seeds=3, duration=1.0, warmup=0.2,
                jobs=3,
            )
        starts = [r for r in tracer.records if r["event"] == "span_start"]
        ids = [r["span"] for r in starts]
        assert len(ids) == len(set(ids))
        assert len({r["sim"] for r in starts}) == 3


class TestTracedMergeWritesMsgs:
    """A ``--jobs 2`` trace carries the workers' runs of sends as the
    ``msgs`` records they captured, with remapped sim and span ids."""

    def _trace(self, tmp_path, jobs):
        path = tmp_path / f"jobs{jobs}.jsonl"
        with JsonlTracer(path) as tracer, observe(tracer=tracer):
            measure_point(
                _tiny_params(), 0.15, seeds=2, duration=1.5, warmup=0.3,
                jobs=jobs,
            )
        return path

    def test_merged_trace_reconciles_like_serial(self, tmp_path):
        from repro.obs import read_trace

        merged = self._trace(tmp_path, jobs=2)
        records = list(read_trace(merged))
        events = [record["event"] for record in records]
        assert "msg_tx" not in events
        started = {r["span"] for r in records if r["event"] == "span_start"}
        runs = [r for r in records if r["event"] == "msgs"]
        assert runs and any("span" in run for run in runs)
        for run in runs:
            if "span" in run:
                assert run["span"] in started
        summary = summarize_trace(merged)
        assert summary.reconciles(), summary.mismatches()
        serial = summarize_trace(self._trace(tmp_path, jobs=1))
        assert summary.messages == serial.messages
        assert summary.bits == serial.bits


class TestWorkerTelemetryFollowsParent:
    """Workers capture exactly the telemetry their parent keeps."""

    def test_no_ledger_without_parent_registry_or_tracer(self):
        assert current().registry is None and not current().tracer.enabled
        assert run_tasks(_ledger_free_task, [0, 1], jobs=1) == [True, True]
        assert run_tasks(_ledger_free_task, [0, 1], jobs=2) == [True, True]

    def test_worker_ignores_the_context_it_was_forked_under(self):
        parallel_mod._discard_pool()
        with observe(registry=MetricsRegistry()):
            # The pool is created (and its workers forked) in here.
            assert run_tasks(_ledger_free_task, [0, 1], jobs=2) == [False, False]
        assert run_tasks(_ledger_free_task, [0, 1], jobs=2) == [True, True]

    def _counters(self, jobs: int) -> list:
        registry = MetricsRegistry()
        with observe(registry=registry):
            measure_point(
                _tiny_params(), 0.15, seeds=3, duration=1.0, warmup=0.2,
                jobs=jobs,
            )
        return _counter_rows(registry)

    def test_merged_counter_rows_equal_serial(self):
        serial = self._counters(jobs=1)
        assert any(name == "overhead_messages_total" for name, _, _ in serial)
        assert self._counters(jobs=2) == serial

    def test_strict_health_without_registry_matches_serial(self):
        config = RunHealthConfig(audit_every=0.5, strict=True)
        kwargs = dict(seeds=2, duration=1.0, warmup=0.2)
        with observe(health=config):
            serial = measure_point(_tiny_params(), 0.15, **kwargs, jobs=1)
            parallel = measure_point(_tiny_params(), 0.15, **kwargs, jobs=2)
        assert serial == parallel


class TestRunHealthPropagation:
    """Workers must inherit the ambient RunHealthConfig (satellite 3)."""

    def _health_events(self, jobs):
        from repro.obs import CollectingTracer, RunHealthConfig

        tracer = CollectingTracer()
        config = RunHealthConfig(
            audit_every=0.5, strict=False, residual_window=0.5,
            residual_rtol=0.5,
        )
        with observe(tracer=tracer, health=config):
            measure_point(
                _tiny_params(), 0.15, seeds=2, duration=1.0, warmup=0.2,
                jobs=jobs,
            )
        # Group the health events by sim id, then drop the id: parallel
        # runs get remapped ids, but per-run event content must match.
        by_sim: dict[int, list[tuple]] = {}
        for record in tracer.records:
            if record["event"] not in ("invariant_audit", "residual"):
                continue
            fields = tuple(
                sorted(
                    (k, v)
                    for k, v in record.items()
                    if k not in ("sim", "schema")
                )
            )
            by_sim.setdefault(record["sim"], []).append(fields)
        return sorted(by_sim.values())

    def test_parallel_run_carries_identical_health_events(self):
        serial = self._health_events(jobs=1)
        parallel = self._health_events(jobs=2)
        assert serial  # the health layer actually ran
        assert any(
            any(dict(fields)["event"] == "invariant_audit" for fields in run)
            for run in serial
        )
        assert serial == parallel
