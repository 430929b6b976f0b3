"""Tests for the overhead-attribution ledger and OpenMetrics export.

The contract under test: every control message a run records is tagged
with a root cause, and the resulting per-cause / per-node / per-cluster
ledgers reconcile with the run's ``MessageStats`` totals *exactly* —
the attribution analogue of the traced-sends reconciliation loop.  On
top of that: ``jobs=1`` and ``jobs=2`` runs must produce identical
attribution output after sim-id normalization, and the OpenMetrics
export (live registry or rebuilt from a trace) must carry the same
totals as ``trace-summary``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.sweep import measure_point
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.obs import (
    AuditError,
    CollectingTracer,
    MetricsRegistry,
    OverheadLedger,
    TRACE_SCHEMA_VERSION,
    attach_attribution,
    observe,
    registry_from_trace,
    render_openmetrics,
    summarize_trace,
)
from repro.obs.attribution import CAUSE_UNATTRIBUTED
from repro.scenario import ScenarioConfig, run_scenario
from repro.sim import HelloProtocol, Simulation
from trace_schema2 import msg_tx_records


def _tiny_params(n_nodes: int = 30) -> NetworkParameters:
    return NetworkParameters.from_fractions(
        n_nodes=n_nodes, range_fraction=0.2, velocity_fraction=0.05
    )


def _small_sim(seed: int = 0) -> Simulation:
    params = _tiny_params()
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity), seed=seed
    )
    sim.attach(HelloProtocol(mode="event"))
    # The accounting hook only fires inside the measurement window.
    sim.stats.start_measuring()
    return sim


def _scenario(**overrides) -> ScenarioConfig:
    config = {
        "name": "attr-test",
        "n_nodes": 50,
        "range_fraction": 0.2,
        "velocity_fraction": 0.06,
        "duration": 4.0,
        "warmup": 1.0,
        "seed": 1,
    }
    config.update(overrides)
    return ScenarioConfig(**config)


def _traced_scenario(**overrides) -> CollectingTracer:
    tracer = CollectingTracer()
    with observe(tracer=tracer):
        run_scenario(_scenario(**overrides))
    return tracer


@pytest.fixture(scope="module")
def hybrid_tracer() -> CollectingTracer:
    return _traced_scenario()


class TestLedgerReconciliation:
    def test_one_reconciled_event_per_run(self, hybrid_tracer):
        events = hybrid_tracer.of("attribution")
        assert len(events) == 1
        assert events[0]["reconciled"] is True

    def test_totals_match_msg_tx_per_category(self, hybrid_tracer):
        streamed: dict[str, int] = {}
        bits: dict[str, float] = {}
        for record in msg_tx_records(hybrid_tracer.records):
            category = record["category"]
            streamed[category] = streamed.get(category, 0) + int(
                record["messages"]
            )
            bits[category] = bits.get(category, 0.0) + float(record["bits"])
        totals = hybrid_tracer.of("attribution")[0]["totals"]
        assert {c: t["messages"] for c, t in totals.items()} == streamed
        for category, tally in totals.items():
            assert tally["bits"] == pytest.approx(bits[category])

    def test_cause_sums_match_category_totals(self, hybrid_tracer):
        event = hybrid_tracer.of("attribution")[0]
        for category, breakdown in event["causes"].items():
            assert sum(t["messages"] for t in breakdown.values()) == (
                event["totals"][category]["messages"]
            )

    def test_node_cluster_heatmap_sums_agree(self, hybrid_tracer):
        event = hybrid_tracer.of("attribution")[0]
        total = sum(t["messages"] for t in event["totals"].values())
        assert sum(
            t["messages"] for t in event["nodes"].values()
        ) == pytest.approx(total)
        assert sum(
            t["messages"] for t in event["clusters"].values()
        ) == pytest.approx(total)
        assert sum(
            sum(row) for row in event["heatmap"]["messages"]
        ) == pytest.approx(total)

    def test_every_hybrid_message_has_a_cause(self, hybrid_tracer):
        event = hybrid_tracer.of("attribution")[0]
        for breakdown in event["causes"].values():
            assert CAUSE_UNATTRIBUTED not in breakdown

    def test_cells_reproduce_cause_totals(self, hybrid_tracer):
        event = hybrid_tracer.of("attribution")[0]
        from_cells: dict[tuple[str, str], float] = {}
        for category, cause, _cluster, messages, _bits in event["cells"]:
            key = (category, cause)
            from_cells[key] = from_cells.get(key, 0) + messages
        for category, breakdown in event["causes"].items():
            for cause, tally in breakdown.items():
                assert from_cells[(category, cause)] == pytest.approx(
                    tally["messages"]
                )

    def test_dsdv_periodic_and_triggered_causes(self):
        tracer = _traced_scenario(routing="dsdv", duration=3.0)
        causes = tracer.of("attribution")[0]["causes"]
        assert "dsdv-periodic" in causes.get("dsdv", {})


class TestLedgerScopes:
    def test_no_ledger_leaves_targets_unresolved(self):
        sim = _small_sim()

        def unresolvable(cluster):
            raise AssertionError("resolved without a ledger")

        sim.stats.record("route", 2, 16.0, cause="c", nodes=unresolvable, cluster=0)
        assert sim.attribution is None
        assert sim.stats.message_count("route") == 2

    def test_unattributed_fallback(self):
        sim = _small_sim()
        ledger = OverheadLedger()
        sim.attach(ledger)
        sim.stats.record("route", 3, 120.0)
        assert ledger.by_cause[("route", CAUSE_UNATTRIBUTED)].messages == 3
        assert ledger.reconcile() == []

    def test_record_without_cause_keeps_its_targets(self):
        sim = _small_sim()
        ledger = OverheadLedger()
        sim.attach(ledger)
        sim.stats.record("route", 2, 16.0, node=4)
        assert ledger.by_cause[("route", CAUSE_UNATTRIBUTED)].messages == 2
        assert ledger.by_node[4].messages == 2
        assert ledger.reconcile() == []

    def test_record_outside_window_reaches_no_ledger(self):
        sim = _small_sim()
        ledger = OverheadLedger()
        sim.attach(ledger)
        sim.stats.stop_measuring()
        sim.stats.record("hello", 1, 10.0, cause="periodic-hello", node=1)
        assert ledger.by_cause == {}
        assert ledger.by_node == {}
        assert ledger.reconcile() == []

    def test_record_arguments_set_cause_and_targets(self):
        sim = _small_sim()
        ledger = OverheadLedger()
        sim.attach(ledger)
        sim.stats.record("hello", 1, 10.0, cause="inner-cause", node=2)
        sim.stats.record("hello", 1, 10.0, cause="outer-cause", node=1)
        sim.stats.record("hello", 1, 10.0)
        assert ledger.by_cause[("hello", "inner-cause")].messages == 1
        assert ledger.by_cause[("hello", "outer-cause")].messages == 1
        assert ledger.by_cause[("hello", CAUSE_UNATTRIBUTED)].messages == 1
        assert ledger.by_node[1].messages == 1
        assert ledger.by_node[2].messages == 1

    def test_strict_mismatch_raises_audit_error(self):
        sim = _small_sim()
        ledger = OverheadLedger(strict=True)
        sim.attach(ledger)
        for _ in range(10):
            sim.step()
        assert ledger.reconcile() == []
        # Tamper with the ledger to simulate a send site that bypassed
        # the accounting hook: strict mode must fail the run.
        category = next(iter(ledger.totals))
        ledger.totals[category].messages += 1
        with pytest.raises(AuditError):
            sim.notify_run_end()

    def test_attach_is_noop_without_telemetry(self):
        sim = _small_sim()
        assert attach_attribution(sim) is None
        assert sim.attribution is None

    def test_attach_with_registry_only(self):
        registry = MetricsRegistry()
        with observe(registry=registry):
            sim = _small_sim()
            ledger = attach_attribution(sim)
            assert ledger is not None
            for _ in range(5):
                sim.step()
        total = sum(
            c.value
            for c in registry.collect()
            if c.name == "overhead_messages_total"
        )
        streamed = sum(t.messages for t in sim.stats.totals.values())
        assert total == pytest.approx(streamed)


class TestJobsDeterminism:
    def _attribution_events(self, jobs: int) -> list[str]:
        tracer = CollectingTracer()
        with observe(tracer=tracer):
            measure_point(
                _tiny_params(40), 0.15, seeds=2, duration=1.0, warmup=0.2,
                jobs=jobs,
            )
        events = tracer.of("attribution")
        # Sim ids differ run to run (global counter); normalize them by
        # order of appearance, then canonicalize to JSON for a bytewise
        # comparison of the full attribution tables.
        sim_order = {e["sim"]: i for i, e in enumerate(events)}
        canonical = []
        for event in events:
            fields = {
                k: v for k, v in event.items() if k not in ("sim", "schema")
            }
            fields["sim"] = sim_order[event["sim"]]
            canonical.append(json.dumps(fields, sort_keys=True))
        return sorted(canonical)

    def test_jobs2_attribution_tables_identical_to_serial(self):
        serial = self._attribution_events(jobs=1)
        parallel = self._attribution_events(jobs=2)
        assert serial, "no attribution events were traced at all"
        assert serial == parallel

    def _overhead_counters(self, jobs: int) -> dict:
        registry = MetricsRegistry()
        with observe(registry=registry):
            measure_point(
                _tiny_params(40), 0.15, seeds=2, duration=1.0, warmup=0.2,
                jobs=jobs,
            )
        folded: dict[tuple, float] = {}
        for counter in registry.collect():
            if not counter.name.startswith("overhead_"):
                continue
            labels = tuple(
                sorted(
                    (k, v) for k, v in counter.labels.items() if k != "sim"
                )
            )
            key = (counter.name, labels)
            folded[key] = folded.get(key, 0.0) + counter.value
        return folded

    def test_jobs2_overhead_counters_identical_to_serial(self):
        serial = self._overhead_counters(jobs=1)
        parallel = self._overhead_counters(jobs=2)
        assert serial, "no overhead counters were recorded at all"
        assert serial == parallel


def _fixture_trace(tmp_path, tampered: bool = False, hello_scale: int = 1):
    """A hand-built two-category trace with a matching ledger event.

    ``tampered`` makes the ledger claim one more HELLO than the
    traced sends carry (a broken-accounting fixture);
    ``hello_scale`` scales the HELLO traffic consistently in *both* the
    stream and the ledger (a healthy trace with a different rate, for
    compare tests).
    """
    hello = 3 * hello_scale
    causes = {
        "cluster": {"reaffiliation": {"messages": 2, "bits": 256.0}},
        "hello": {
            "periodic-hello": {"messages": hello, "bits": 100.0 * hello}
        },
    }
    totals = {
        "cluster": {"messages": 2, "bits": 256.0},
        "hello": {"messages": hello, "bits": 100.0 * hello},
    }
    if tampered:
        causes["hello"]["periodic-hello"]["messages"] = hello + 1
        totals["hello"]["messages"] = hello + 1
    records = [
        {"event": "run_begin", "t": 0.0, "sim": 0, "n_nodes": 4,
         "duration": 1.0, "warmup": 0.0},
        {"event": "msgs", "t": 0.2, "sim": 0, "category": ["hello"],
         "messages": [hello - 1], "bits": [100.0 * (hello - 1)]},
        {"event": "msgs", "t": 0.4, "sim": 0, "category": ["hello", "cluster"],
         "messages": [1, 2], "bits": [100.0, 256.0]},
        {"event": "attribution", "t": 1.0, "sim": 0,
         "causes": causes,
         "nodes": {"0": {"messages": hello, "bits": 100.0 * hello},
                   "1": {"messages": 2, "bits": 256.0}},
         "clusters": {"0": {"messages": hello + 2,
                            "bits": 100.0 * hello + 256.0}},
         "cells": [["cluster", "reaffiliation", 0,
                    causes["cluster"]["reaffiliation"]["messages"], 256.0],
                   ["hello", "periodic-hello", 0,
                    causes["hello"]["periodic-hello"]["messages"],
                    100.0 * hello]],
         "heatmap": {"bins": 2, "side": 1.0,
                     "messages": [[hello, 0], [0, 2]]},
         "totals": totals, "reconciled": not tampered},
        {"event": "run_end", "t": 1.0, "sim": 0, "measured_time": 1.0,
         "totals": {"cluster": {"messages": 2, "bits": 256.0},
                    "hello": {"messages": hello,
                              "bits": 100.0 * hello}}},
    ]
    path = tmp_path / ("tampered.jsonl" if tampered else "fixture.jsonl")
    path.write_text(
        "".join(
            json.dumps({"schema": TRACE_SCHEMA_VERSION, **record}) + "\n"
            for record in records
        )
    )
    return path


class TestTraceFixture:
    def test_openmetrics_totals_match_msg_tx_counts(self, tmp_path):
        path = _fixture_trace(tmp_path)
        registry = registry_from_trace(path)
        per_category: dict[str, float] = {}
        for counter in registry.collect():
            if counter.name != "overhead_messages_total":
                continue
            protocol = counter.labels["protocol"]
            per_category[protocol] = (
                per_category.get(protocol, 0.0) + counter.value
            )
        summary = summarize_trace(path)
        assert per_category == {
            category: float(count)
            for category, count in summary.messages.items()
        }

    def test_report_flags_ledger_stream_divergence(self, tmp_path):
        from repro.obs.report import build_report

        clean = build_report([_fixture_trace(tmp_path)])
        assert clean.problems() == []
        tampered = build_report([_fixture_trace(tmp_path, tampered=True)])
        problems = tampered.problems()
        assert problems, "tampered ledger must fail attribution check"
        assert any("hello" in p and "attribution ledger" in p for p in problems)

    def test_compare_decomposes_delta_by_cause(self, tmp_path):
        from repro.obs.compare import compare_traces

        a = _fixture_trace(tmp_path)
        b_dir = tmp_path / "b"
        b_dir.mkdir()
        b = _fixture_trace(b_dir, hello_scale=2)
        comparison = compare_traces(a, b, threshold=0.10)
        lines = comparison.attributions()
        assert any(
            "hello" in line and "by cause" in line
            and "periodic-hello +100.0%" in line
            for line in lines
        )


class TestOpenMetricsFormat:
    def test_counter_family_strips_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter("messages_total", category="hello").inc(5)
        text = render_openmetrics(registry)
        assert "# TYPE messages counter" in text
        assert '# HELP messages ' in text
        assert 'messages_total{category="hello"} 5' in text
        assert text.endswith("# EOF\n")

    def test_gauge_and_histogram_samples(self):
        registry = MetricsRegistry()
        registry.gauge("measured_time", sim="0").set(2.5)
        histogram = registry.histogram("latency", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(9.0)
        text = render_openmetrics(registry)
        assert 'measured_time{sim="0"} 2.5' in text
        assert '# TYPE latency histogram' in text
        assert 'latency_bucket{le="1"} 1' in text
        assert 'latency_bucket{le="2"} 2' in text
        assert 'latency_bucket{le="+Inf"} 3' in text
        assert "latency_count 3" in text
        assert "latency_sum 11" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", label='a"b\\c\nd').inc()
        text = render_openmetrics(registry)
        assert 'odd_total{label="a\\"b\\\\c\\nd"} 1' in text

    def test_samples_sorted_within_family(self):
        registry = MetricsRegistry()
        registry.counter("messages_total", category="route").inc(1)
        registry.counter("messages_total", category="cluster").inc(2)
        text = render_openmetrics(registry)
        lines = [
            line for line in text.splitlines()
            if line.startswith("messages_total")
        ]
        assert lines == sorted(lines)
