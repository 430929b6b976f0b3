"""Schemas 1, 2 and 3 of the same run fold to the same answers.

Schema 2 writes one ``links`` record per step where schema 1 wrote one
record per link event; schema 3 writes one ``msgs`` record per run of
sends where schema 2 wrote one ``msg_tx`` record per send.
:func:`trace_schema2.as_schema_2` rewrites a trace into the schema-2
trace of the same run and :func:`trace_schema1.as_schema_1` that into
the schema-1 trace, and every trace command must answer the same for
all three: ``summarize_trace`` (apart from ``records``, which counts
lines, and ``path``), the OpenMetrics export, ``compare``, ``report``
and ``metrics``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.params import NetworkParameters
from repro.mobility import ConstantVelocityModel
from repro.obs import (
    CollectingTracer,
    JsonlTracer,
    MetricsRegistry,
    RunHealthConfig,
    compare_traces,
    observe,
    read_trace,
    registry_from_trace,
    render_openmetrics,
    summarize_trace,
)
from repro.scenario import ScenarioConfig, run_scenario
from repro.sim import Simulation
from trace_schema1 import as_schema_1
from trace_schema2 import as_schema_2

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

#: A committed schema-2 trace (a short strict-audit hybrid run with one
#: CBR flow), read as a trace from before schema 3.
SCHEMA_2_FIXTURE = Path(__file__).with_name("fixtures") / "schema2.jsonl"

#: Example scenarios with their durations cut: the chaos run crashes
#: radios (masked steps) and loses packets; the health run is clean.
RUNS = {
    "a": ("chaos", {"duration": 2.0, "warmup": 0.5}),
    "b": ("health-check", {"duration": 2.0, "warmup": 0.5}),
}


def _run(name: str, overrides: dict, path: Path) -> None:
    data = json.loads((EXAMPLES / f"{name}.json").read_text("utf-8"))
    config = ScenarioConfig.from_dict({**data, **overrides})
    health = RunHealthConfig(strict=True, audit_every=0.5, residual_window=0.5)
    with JsonlTracer(path) as tracer, observe(
        tracer=tracer, registry=MetricsRegistry(), health=health
    ):
        run_scenario(config)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """``{"v1": dir, "v2": dir, "v3": dir}``, each holding ``a.jsonl``
    and ``b.jsonl``; ``v3`` holds the traces as written."""
    root = tmp_path_factory.mktemp("schemas")
    dirs = {version: root / version for version in ("v1", "v2", "v3")}
    for where in dirs.values():
        where.mkdir()
    for stem, (name, overrides) in RUNS.items():
        _run(name, overrides, dirs["v3"] / f"{stem}.jsonl")
        (dirs["v2"] / f"{stem}.jsonl").write_bytes(
            as_schema_2(dirs["v3"] / f"{stem}.jsonl")
        )
        (dirs["v1"] / f"{stem}.jsonl").write_bytes(
            as_schema_1(dirs["v2"] / f"{stem}.jsonl")
        )
    return dirs


def _events(path) -> list[str]:
    return [record["event"] for record in read_trace(path)]


def _cli(monkeypatch, capsys, where: Path, *args) -> tuple[int, str]:
    monkeypatch.chdir(where)
    code = main(list(args))
    return code, capsys.readouterr().out


class TestRewrite:
    @pytest.mark.parametrize("stem", sorted(RUNS))
    def test_schema_2_writes_links_and_schema_1_per_pair_records(
        self, traces, stem
    ):
        new = _events(traces["v2"] / f"{stem}.jsonl")
        old = _events(traces["v1"] / f"{stem}.jsonl")
        assert "links" in new
        assert "link_up" not in new and "link_down" not in new
        assert "links" not in old
        assert "link_up" in old and "link_down" in old
        versions = {r["schema"] for r in read_trace(traces["v1"] / f"{stem}.jsonl")}
        assert versions == {1}

    @pytest.mark.parametrize("stem", sorted(RUNS))
    def test_schema_3_writes_msgs_and_schema_2_per_send_records(
        self, traces, stem
    ):
        new = _events(traces["v3"] / f"{stem}.jsonl")
        old = _events(traces["v2"] / f"{stem}.jsonl")
        assert "msgs" in new and "msg_tx" not in new
        assert "msgs" not in old and "msg_tx" in old
        assert new.count("msgs") < old.count("msg_tx")
        versions = {r["schema"] for r in read_trace(traces["v2"] / f"{stem}.jsonl")}
        assert versions == {2}


class TestLinksRecord:
    def test_quiet_steps_write_none(self):
        params = NetworkParameters.from_fractions(
            n_nodes=50, range_fraction=0.2, velocity_fraction=0.05
        )
        tracer = CollectingTracer()
        sim = Simulation(params, ConstantVelocityModel(0.0), seed=1, tracer=tracer)
        for _ in range(3):
            sim.step()
        assert len(tracer.of("step")) == 3
        assert tracer.of("links") == []

    @pytest.mark.parametrize("stem", sorted(RUNS))
    def test_links_pairs_equal_step_counts(self, traces, stem):
        """Every step writes its pairs once, and only when it has some."""
        pending = None
        for record in read_trace(traces["v2"] / f"{stem}.jsonl"):
            if record["event"] == "links":
                assert pending is None
                assert record["up"] or record["down"]
                pending = (len(record["up"]) // 2, len(record["down"]) // 2)
            elif record["event"] == "step":
                counts = (record["ups"], record["downs"])
                assert counts == (pending or (0, 0))
                pending = None
        assert pending is None


#: Each older schema is compared with the trace as written.
OLDER = ("v2", "v1")


class TestSameAnswers:
    @pytest.mark.parametrize("stem", sorted(RUNS))
    def test_summaries_differ_only_in_records_and_path(self, traces, stem):
        new = summarize_trace(traces["v3"] / f"{stem}.jsonl").to_dict()
        records = new.pop("records")
        new.pop("path")
        assert "links" not in new["events"]
        for version in OLDER:
            old = summarize_trace(traces[version] / f"{stem}.jsonl").to_dict()
            assert records < old.pop("records")
            old.pop("path")
            assert new == old, version

    @pytest.mark.parametrize("stem", sorted(RUNS))
    def test_openmetrics_identical(self, traces, stem):
        new = render_openmetrics(registry_from_trace(traces["v3"] / f"{stem}.jsonl"))
        for version in OLDER:
            old = registry_from_trace(traces[version] / f"{stem}.jsonl")
            assert new == render_openmetrics(old), version

    @pytest.mark.parametrize("flag", [(), ("--json",)])
    def test_compare_identical(self, traces, monkeypatch, capsys, flag):
        args = ("compare", "a.jsonl", "b.jsonl", *flag)
        new = _cli(monkeypatch, capsys, traces["v3"], *args)
        for version in OLDER:
            assert new == _cli(monkeypatch, capsys, traces[version], *args), version

    def test_compare_across_schemas_is_a_zero_diff(self, traces):
        for version in OLDER:
            comparison = compare_traces(
                traces[version] / "a.jsonl", traces["v3"] / "a.jsonl"
            )
            assert all(row.a == row.b for row in comparison.rows), version

    @pytest.mark.parametrize("command", ["metrics", "report", "trace-summary"])
    def test_commands_identical_apart_from_record_counts(
        self, traces, monkeypatch, capsys, command
    ):
        def without_record_counts(output: str) -> str:
            # trace-summary's "(N records)" and report's "- records: N".
            return re.sub(r"\d+ records\)|- records: \d+", "", output)

        new = _cli(monkeypatch, capsys, traces["v3"], command, "a.jsonl")
        for version in OLDER:
            old = _cli(monkeypatch, capsys, traces[version], command, "a.jsonl")
            assert new[0] == old[0], version
            assert without_record_counts(new[1]) == without_record_counts(old[1])


class TestSchema2Fixture:
    def test_reads_and_reconciles(self, capsys):
        assert main(["trace-summary", str(SCHEMA_2_FIXTURE)]) == 0
        assert "traced sends match" in capsys.readouterr().out

    def test_folds_like_its_schema_1_rewrite(self, tmp_path):
        schema_1 = tmp_path / "schema1.jsonl"
        schema_1.write_bytes(as_schema_1(SCHEMA_2_FIXTURE))
        new = summarize_trace(SCHEMA_2_FIXTURE).to_dict()
        old = summarize_trace(schema_1).to_dict()
        assert new.pop("records") < old.pop("records")
        new.pop("path")
        old.pop("path")
        assert new == old
        assert new["messages"]


class TestMalformedLinks:
    @pytest.mark.parametrize("up", [[1], [1, 2, 3], "0,1", None])
    def test_odd_or_non_list_pairs_rejected(self, tmp_path, up):
        path = tmp_path / "t.jsonl"
        record = {"schema": 2, "event": "links", "t": 0.5, "sim": 0,
                  "up": up, "down": []}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="links"):
            summarize_trace(path)

    def test_trace_summary_exits_two(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        record = {"schema": 2, "event": "links", "t": 0.5, "sim": 0,
                  "up": [0], "down": []}
        path.write_text(json.dumps(record) + "\n")
        assert main(["trace-summary", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err
