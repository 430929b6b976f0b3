"""Unit tests for the observability subsystem (`repro.obs`)."""

from __future__ import annotations

import json
import math
import sys
import threading
import time

import pytest

from repro.obs import (
    CollectingTracer,
    JsonlTracer,
    MetricsRegistry,
    NULL_TRACER,
    PhaseTimer,
    TRACE_SCHEMA_VERSION,
    current,
    observe,
    read_trace,
    summarize_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter("c").inc(-1.0)


class TestGauge:
    def test_set_and_shift(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(-3.0)
        assert gauge.value == 7.0


class TestHistogram:
    def test_bucketing_with_overflow(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.sum == 7.0
        assert histogram.mean() == pytest.approx(7.0 / 3.0)

    def test_empty_mean_is_nan(self):
        assert math.isnan(Histogram("h").mean())

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", bounds=(2.0, 1.0))

    def test_quantile_of_empty_is_nan(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        assert math.isnan(histogram.quantile(0.5))
        summary = histogram.summary()
        assert summary["count"] == 0
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["min"])

    def test_quantile_single_sample_is_exact_for_all_q(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        histogram.observe(1.7)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert histogram.quantile(q) == pytest.approx(1.7)

    def test_quantile_interpolates_within_buckets(self):
        histogram = Histogram("h", bounds=(10.0, 20.0, 30.0))
        for value in (2.0, 12.0, 14.0, 16.0, 18.0, 25.0):
            histogram.observe(value)
        # Estimates stay within the observed range and are monotone.
        previous = -math.inf
        for q in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            estimate = histogram.quantile(q)
            assert 2.0 <= estimate <= 25.0
            assert estimate >= previous
            previous = estimate
        assert histogram.quantile(1.0) == pytest.approx(25.0)
        assert histogram.quantile(0.0) == pytest.approx(2.0)

    def test_quantile_rejects_out_of_range_q(self):
        histogram = Histogram("h")
        with pytest.raises(ValueError, match="q"):
            histogram.quantile(1.5)
        with pytest.raises(ValueError, match="q"):
            histogram.quantile(-0.1)

    def test_summary_tracks_min_max_mean(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["min"] == 0.5
        assert summary["max"] == 5.0
        assert summary["mean"] == pytest.approx(7.0 / 3.0)


class TestMetricsRegistry:
    def test_same_name_and_labels_share_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("messages_total", category="hello")
        b = registry.counter("messages_total", category="hello")
        assert a is b

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x="1", y="2")
        b = registry.counter("m", y="2", x="1")
        assert a is b

    def test_different_labels_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("m", category="hello")
        b = registry.counter("m", category="route")
        assert a is not b

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")

    def test_to_dict_roundtrips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("msgs", category="hello").inc(3)
        registry.gauge("clusters").set(7)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        payload = json.loads(json.dumps(registry.to_dict()))
        assert payload["counters"] == [
            {"name": "msgs", "labels": {"category": "hello"}, "value": 3}
        ]
        assert payload["gauges"][0]["value"] == 7
        assert payload["histograms"][0]["bucket_counts"] == [1, 0]


class TestPhaseTimer:
    def test_accumulates_per_phase(self):
        timer = PhaseTimer()
        timer.add("mobility", 0.25)
        timer.add("mobility", 0.75)
        timer.add("adjacency", 1.0)
        assert timer.phases == ["mobility", "adjacency"]
        assert timer.seconds("mobility") == 1.0
        assert timer.seconds("unseen") == 0.0
        report = timer.report()
        assert report.total_seconds == 2.0
        by_name = {p.phase: p for p in report.phases}
        assert by_name["mobility"].calls == 2
        assert by_name["mobility"].mean_seconds == 0.5

    def test_phase_context_manager_times_body(self):
        timer = PhaseTimer()
        with timer.phase("work"):
            pass
        assert timer.seconds("work") >= 0.0
        assert timer.report().phases[0].calls == 1

    def test_reset(self):
        timer = PhaseTimer()
        timer.add("x", 1.0)
        timer.reset()
        assert timer.phases == []

    def test_report_render_and_dict(self):
        timer = PhaseTimer()
        timer.add("adjacency", 2.0, calls=4)
        timer.add("mobility", 1.0, calls=4)
        rendered = timer.report().render()
        # Slowest phase first.
        assert rendered.index("adjacency") < rendered.index("mobility")
        payload = timer.report().to_dict()
        assert payload["total_seconds"] == 3.0
        assert {p["phase"] for p in payload["phases"]} == {
            "adjacency",
            "mobility",
        }


class TestTracers:
    def test_null_tracer_is_disabled_noop(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("step", 0.0, anything=1)  # must not raise
        NULL_TRACER.close()

    def test_collecting_tracer(self):
        tracer = CollectingTracer()
        tracer.emit("link_up", 1.0, u=0, v=1)
        tracer.emit("link_down", 2.0, u=0, v=1)
        assert tracer.of("link_up") == [
            {"event": "link_up", "t": 1.0, "u": 0, "v": 1}
        ]

    def test_jsonl_tracer_writes_versioned_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.send(1.5, 0, "hello", 2, 96.0)
            tracer.send(1.5, 0, "route", 1, 8.0)
        records = list(read_trace(path))
        assert records == [
            {
                "schema": TRACE_SCHEMA_VERSION,
                "event": "msgs",
                "t": 1.5,
                "sim": 0,
                "category": ["hello", "route"],
                "messages": [2, 1],
                "bits": [96.0, 8.0],
            }
        ]

    def test_collecting_tracer_keeps_the_runs_jsonl_writes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        collecting = CollectingTracer()
        with JsonlTracer(path) as jsonl:
            for tracer in (collecting, jsonl):
                tracer.send(0.5, 0, "hello", 2, 96.0)
                tracer.send(0.5, 0, "hello", 2, 96.0, span=7)
                tracer.emit("step", 0.5, sim=0)
                tracer.send(0.5, 0, "route", 1, 8.0, span=7)
                tracer.send(1.0, 0, "route", 1, 8.0, span=7)
                tracer.send(1.0, 1, "route", 1, 8.0, span=7)
        written = [
            {k: v for k, v in r.items() if k != "schema"} for r in read_trace(path)
        ]
        assert written == collecting.records
        assert [len(r.get("category", ())) for r in written] == [1, 1, 0, 1, 1, 1]
        assert [r.get("span") for r in written] == [None, 7, None, 7, 7, 7]

    def test_jsonl_tracer_coerces_numpy_scalars(self, tmp_path):
        np = pytest.importorskip("numpy")
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit("link_up", np.float64(1.0), u=np.int64(3), v=4)
        (record,) = read_trace(path)
        assert record["u"] == 3

    def test_resource_samples_amid_buffered_sends_reconcile(self, tmp_path):
        """The sampler thread emits while the engine's sends are still
        buffered: each sample ends the run in front of it, whole, and
        the trace still reconciles."""
        from repro.obs.resources import ResourceSampler

        path = tmp_path / "t.jsonl"
        sent = 0
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JsonlTracer(path) as tracer:
                tracer.emit("run_begin", 0.0, sim=0, n_nodes=4)
                sampler = ResourceSampler(interval=0.001, tracer=tracer).start()
                deadline = time.monotonic() + 30.0
                step = 0
                while len(sampler.samples) < 5 and time.monotonic() < deadline:
                    for _ in range(50):
                        tracer.send(step * 0.01, 0, "hello", 2, 16.0)
                        sent += 1
                    step += 1
                sampler.sample()  # one more, from this thread, mid-run
                tracer.send(step * 0.01, 0, "hello", 2, 16.0)
                sent += 1
                sampler.stop()
                totals = {"hello": {"messages": 2 * sent, "bits": 16.0 * sent}}
                tracer.emit("run_end", 1.0, sim=0, measured_time=1.0, totals=totals)
        finally:
            sys.setswitchinterval(switch)
        summary = summarize_trace(path)
        assert summary.reconciles(), summary.mismatches()
        assert summary.messages == {"hello": 2 * sent}
        assert summary.event_counts["resource_sample"] == len(sampler.samples) >= 6
        assert summary.event_counts["msg_tx"] == sent

    def test_concurrent_senders_lose_no_send(self, tmp_path):
        """More sending threads than cores, switching often: every send
        reaches one whole ``msgs`` record of its own sim."""
        path = tmp_path / "t.jsonl"
        threads, sends = 4, 2000
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JsonlTracer(path) as tracer:

                def sender(sim):
                    for index in range(sends):
                        tracer.send(index // 7 * 0.5, sim, "route", 1, 4.0)
                        if index % 97 == 0:
                            tracer.emit("step", 0.0, sim=sim)

                workers = [
                    threading.Thread(target=sender, args=(sim,))
                    for sim in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60.0)
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(switch)
        summary = summarize_trace(path)
        assert {sim: run.messages for sim, run in summary.runs.items()} == {
            sim: {"route": sends} for sim in range(threads)
        }

    def test_event_filtering(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path, events={"msgs"}) as tracer:
            tracer.emit("step", 0.1)
            tracer.send(0.1, 0, "hello", 1, 1.0)
        records = list(read_trace(path))
        assert [r["event"] for r in records] == ["msgs"]
        assert tracer.emitted == 1 and tracer.suppressed == 1

    def test_filter_without_msgs_suppresses_every_send(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path, events={"step"}) as tracer:
            tracer.send(0.1, 0, "hello", 1, 1.0)
            tracer.send(0.1, 0, "hello", 1, 1.0)
            tracer.emit("step", 0.1)
            tracer.send(0.2, 0, "route", 1, 1.0)
        assert [r["event"] for r in read_trace(path)] == ["step"]
        assert tracer.emitted == 1 and tracer.suppressed == 3

    def test_schema_2_send_event_filter_rejected(self, tmp_path):
        # Schema 3 writes no per-send records: such a filter would drop
        # every send without a word.
        with pytest.raises(ValueError, match="'msg_tx'.*writes \\['msgs'\\]"):
            JsonlTracer(tmp_path / "t.jsonl", events={"msg_tx"})

    def test_unknown_event_filter_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace events"):
            JsonlTracer(tmp_path / "t.jsonl", events={"bogus"})

    @pytest.mark.parametrize("event", ["link_up", "link_down"])
    def test_schema_1_link_event_filter_rejected(self, tmp_path, event):
        # Schema 2 writes no per-pair link records: such a filter would
        # drop every link event without a word.
        with pytest.raises(ValueError, match="'links'"):
            JsonlTracer(tmp_path / "t.jsonl", events={"msgs", event})
        with JsonlTracer(tmp_path / "t.jsonl", events={"links"}) as tracer:
            tracer.emit("links", 0.1, sim=0, up=[0, 1], down=[])
        assert [r["event"] for r in read_trace(tmp_path / "t.jsonl")] == ["links"]

    def test_step_sampling(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path, step_every=3) as tracer:
            for index in range(7):
                tracer.emit("step", float(index))
        steps = [r["t"] for r in read_trace(path)]
        assert steps == [0.0, 3.0, 6.0]

    def test_step_sampling_leaves_other_events_alone(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path, step_every=10) as tracer:
            for index in range(5):
                tracer.emit("link_up", float(index), u=0, v=1)
        assert len(list(read_trace(path))) == 5

    def test_rejects_bad_step_every(self, tmp_path):
        with pytest.raises(ValueError, match="step_every"):
            JsonlTracer(tmp_path / "t.jsonl", step_every=0)


class TestReadTrace:
    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            list(read_trace(path))

    def test_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 99, "event": "step", "t": 0}\n')
        with pytest.raises(ValueError, match="schema"):
            list(read_trace(path))

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"schema": 1, "event": "step", "t": 0}\n\n')
        assert len(list(read_trace(path))) == 1

    def test_truncated_final_line_is_skipped_with_warning(
        self, tmp_path, caplog
    ):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"schema": 1, "event": "step", "t": 0}\n'
            '{"schema": 1, "event": "st'  # writer killed mid-record
        )
        with caplog.at_level("WARNING", logger="repro.obs.summary"):
            records = list(read_trace(path))
        assert len(records) == 1
        assert "truncated final record" in caplog.text

    def test_newline_terminated_bad_line_still_raises(self, tmp_path):
        # A malformed line the writer *did* terminate is corruption,
        # not truncation, even when it is the last line.
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"schema": 1, "event": "step", "t": 0}\n'
            '{"schema": 1, "event": "st\n'
        )
        with pytest.raises(ValueError, match="not valid JSON"):
            list(read_trace(path))

    def test_empty_trace_summary_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty trace"):
            summarize_trace(path)

    def test_terminated_bad_line_before_blank_unterminated_tail_is_skipped(
        self, tmp_path, caplog
    ):
        # The file does not end in a newline and the bad line is its last
        # non-blank line, so it reads as an interrupted write.
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"schema": 1, "event": "step", "t": 0}\n'
            '{"schema": 1, "event": "st\n'
            "   "
        )
        with caplog.at_level("WARNING", logger="repro.obs.summary"):
            records = list(read_trace(path))
        assert len(records) == 1
        assert "t.jsonl:2: skipping truncated final record" in caplog.text

    def test_bad_line_followed_by_a_record_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"schema": 1, "event": "st\n'
            "\n"
            '{"schema": 1, "event": "step", "t": 0}'
        )
        with pytest.raises(ValueError, match=r"t\.jsonl:1: not valid JSON"):
            list(read_trace(path))

    @pytest.mark.parametrize(
        "line",
        [
            '{"schema": 1, "t": 0}',
            '{"schema": 1, "event": 7, "t": 0}',
            '{"schema": 1, "event": null, "t": 0}',
            '[1, 2]',
        ],
    )
    def test_rejects_record_without_string_event(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        path.write_text('{"schema": 1, "event": "step", "t": 0}\n' + line + "\n")
        with pytest.raises(ValueError, match=r"t\.jsonl:2: "):
            list(read_trace(path))

    def test_streams_without_reading_the_whole_file(self, tmp_path, monkeypatch):
        import pathlib

        path = tmp_path / "t.jsonl"
        path.write_text('{"schema": 1, "event": "step", "t": 0}\n' * 3)

        def refuse(*args, **kwargs):
            raise AssertionError("read_trace must not slurp the file")

        monkeypatch.setattr(pathlib.Path, "read_text", refuse)
        assert len(list(read_trace(path))) == 3


#: The five trace commands, each with its argv for one trace path.
TRACE_COMMANDS = {
    "trace-summary": lambda path, tmp: ["trace-summary", path],
    "report": lambda path, tmp: ["report", path],
    "compare": lambda path, tmp: ["compare", path, path],
    "metrics": lambda path, tmp: ["metrics", path],
    "timeline": lambda path, tmp: [
        "timeline", path, "--out", str(tmp / "timeline.json")
    ],
}


class TestMalformedTraceCli:
    @pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
    def test_record_without_event_exits_two(self, command, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "no-event.jsonl"
        path.write_text(
            '{"schema": 1, "event": "run_begin", "t": 0, "sim": 0, '
            '"n_nodes": 4}\n'
            '{"schema": 1, "t": 0.5, "sim": 0}\n'
        )
        assert main(TRACE_COMMANDS[command](str(path), tmp_path)) == 2
        err = capsys.readouterr().err
        assert "malformed trace" in err
        assert "no-event.jsonl:2:" in err

    @pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
    def test_empty_trace_exits_two(self, command, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(TRACE_COMMANDS[command](str(path), tmp_path)) == 2
        assert "empty trace" in capsys.readouterr().err


class TestOneFold:
    """report, compare and metrics read each trace file exactly once."""

    @pytest.fixture
    def reads(self, monkeypatch):
        import repro.obs.summary as summary_module
        from repro.obs import compare, openmetrics, report, timeline

        calls: list[str] = []
        real = summary_module.read_trace

        def counting(path):
            calls.append(str(path))
            return real(path)

        for module in (summary_module, report, compare, openmetrics, timeline):
            monkeypatch.setattr(module, "read_trace", counting, raising=False)
        return calls

    @pytest.fixture
    def traces(self, tmp_path):
        paths = []
        for index, messages in enumerate((3, 5)):
            path = tmp_path / f"t{index}.jsonl"
            records = [
                {"event": "run_begin", "t": 0.0, "sim": 0, "n_nodes": 4},
                {"event": "msg_tx", "t": 0.5, "sim": 0, "category": "hello",
                 "messages": messages, "bits": 8.0 * messages},
                {"event": "run_end", "t": 1.0, "sim": 0, "measured_time": 1.0,
                 "totals": {"hello": {"messages": messages,
                                      "bits": 8.0 * messages}}},
            ]
            path.write_text(
                "".join(json.dumps({"schema": 1, **r}) + "\n" for r in records)
            )
            paths.append(str(path))
        return paths

    def test_build_report_reads_each_trace_once(self, reads, traces):
        from repro.obs import build_report

        build_report(traces).render()
        assert sorted(reads) == sorted(traces)

    def test_compare_traces_reads_each_trace_once(self, reads, traces):
        from repro.obs import compare_traces

        compare_traces(*traces).render()
        assert sorted(reads) == sorted(traces)

    def test_registry_from_trace_reads_the_trace_once(self, reads, traces):
        from repro.obs import registry_from_trace, render_openmetrics

        render_openmetrics(registry_from_trace(traces[0]))
        assert reads == [traces[0]]


class TestSummarizeTrace:
    def _write(self, path, records):
        path.write_text(
            "".join(json.dumps({"schema": 1, **r}) + "\n" for r in records)
        )

    def test_aggregates_msg_tx_per_category(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(
            path,
            [
                {"event": "msg_tx", "t": 1.0, "sim": 0, "category": "hello",
                 "messages": 2, "bits": 64.0},
                {"event": "msg_tx", "t": 2.0, "sim": 0, "category": "hello",
                 "messages": 3, "bits": 96.0},
                {"event": "msg_tx", "t": 2.0, "sim": 0, "category": "route",
                 "messages": 1, "bits": 500.0},
            ],
        )
        summary = summarize_trace(path)
        assert summary.records == 3
        assert summary.messages == {"hello": 5, "route": 1}
        assert summary.bits == {"hello": 160.0, "route": 500.0}
        assert summary.reconciles()  # no run_end => nothing to dispute

    def test_aggregates_msgs_columns_per_category(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(
                {"schema": 3, "event": "msgs", "t": 2.0, "sim": 0,
                 "category": ["hello", "hello", "route"],
                 "messages": [2, 3, 1], "bits": [64.0, 96.0, 500.0]}
            )
            + "\n"
        )
        summary = summarize_trace(path)
        assert summary.records == 1
        assert summary.event_counts == {"msg_tx": 3}
        assert summary.messages == {"hello": 5, "route": 1}
        assert summary.bits == {"hello": 160.0, "route": 500.0}

    @pytest.mark.parametrize(
        "columns",
        [
            {"category": [], "messages": [], "bits": []},
            {"category": ["hello"], "messages": [1, 2], "bits": [1.0]},
            {"category": "hello", "messages": [1], "bits": [1.0]},
            {"category": ["hello"], "messages": [1]},
        ],
    )
    def test_malformed_msgs_rejected(self, tmp_path, columns):
        path = tmp_path / "t.jsonl"
        record = {"schema": 3, "event": "msgs", "t": 0.5, "sim": 0, **columns}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="'msgs' record"):
            summarize_trace(path)

    def test_reconciliation_failure_detected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(
            path,
            [
                {"event": "run_begin", "t": 0.0, "sim": 0, "n_nodes": 10},
                {"event": "msg_tx", "t": 1.0, "sim": 0, "category": "hello",
                 "messages": 2, "bits": 64.0},
                {"event": "run_end", "t": 5.0, "sim": 0, "measured_time": 5.0,
                 "totals": {"hello": {"messages": 3, "bits": 64.0}}},
            ],
        )
        summary = summarize_trace(path)
        assert not summary.reconciles()
        assert any("traced 2" in p for p in summary.mismatches())
        assert "RECONCILIATION FAILED" in summary.render()

    def test_frequencies_from_run_metadata(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(
            path,
            [
                {"event": "run_begin", "t": 0.0, "sim": 2, "n_nodes": 10},
                {"event": "msg_tx", "t": 1.0, "sim": 2, "category": "hello",
                 "messages": 50, "bits": 0.0},
                {"event": "run_end", "t": 5.0, "sim": 2, "measured_time": 5.0,
                 "totals": {"hello": {"messages": 50, "bits": 0.0}}},
            ],
        )
        summary = summarize_trace(path)
        run = summary.runs[2]
        assert run.frequencies() == {"hello": 1.0}
        payload = summary.to_dict()
        assert payload["reconciles"] is True
        assert payload["runs"][0]["frequencies"] == {"hello": 1.0}


class TestObsContext:
    def test_default_context_is_null(self):
        context = current()
        assert context.tracer is NULL_TRACER
        assert context.registry is None and context.timer is None

    def test_observe_nests_and_restores(self):
        tracer = CollectingTracer()
        timer = PhaseTimer()
        with observe(tracer=tracer):
            assert current().tracer is tracer
            with observe(timer=timer):
                # Inner scope inherits the tracer, adds the timer.
                assert current().tracer is tracer
                assert current().timer is timer
            assert current().timer is None
        assert current().tracer is NULL_TRACER

    def test_observe_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with observe(tracer=CollectingTracer()):
                raise RuntimeError("boom")
        assert current().tracer is NULL_TRACER


class TestLogging:
    def test_configure_logging_is_idempotent(self):
        import logging

        from repro.obs import configure_logging

        configure_logging(verbosity=1)
        configure_logging(verbosity=1)
        root = logging.getLogger("repro")
        marked = [
            h for h in root.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(marked) == 1
        assert root.level == logging.INFO
        configure_logging(level="debug")
        assert root.level == logging.DEBUG

    def test_unknown_level_rejected(self):
        from repro.obs import configure_logging

        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(level="chatty")
