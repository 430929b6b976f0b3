"""Schema 1 and schema 2 of the same run fold to the same answers.

Schema 2 writes one ``links`` record per step where schema 1 wrote one
record per link event.  :func:`trace_schema1.as_schema_1` rewrites a
schema-2 trace into the schema-1 trace of the same run, and every trace
command must answer the same for both: ``summarize_trace`` (apart from
``records``, which counts lines, and ``path``), the OpenMetrics export,
``compare``, ``report`` and ``metrics``.
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

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

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
    """``{"v1": dir, "v2": dir}``, each holding ``a.jsonl`` and ``b.jsonl``."""
    root = tmp_path_factory.mktemp("schemas")
    v1, v2 = root / "v1", root / "v2"
    v1.mkdir()
    v2.mkdir()
    for stem, (name, overrides) in RUNS.items():
        _run(name, overrides, v2 / f"{stem}.jsonl")
        (v1 / f"{stem}.jsonl").write_bytes(as_schema_1(v2 / f"{stem}.jsonl"))
    return {"v1": v1, "v2": v2}


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


class TestSameAnswers:
    @pytest.mark.parametrize("stem", sorted(RUNS))
    def test_summaries_differ_only_in_records_and_path(self, traces, stem):
        new = summarize_trace(traces["v2"] / f"{stem}.jsonl").to_dict()
        old = summarize_trace(traces["v1"] / f"{stem}.jsonl").to_dict()
        assert new.pop("records") < old.pop("records")
        new.pop("path")
        old.pop("path")
        assert new == old
        assert "links" not in new["events"]

    @pytest.mark.parametrize("stem", sorted(RUNS))
    def test_openmetrics_identical(self, traces, stem):
        new = render_openmetrics(registry_from_trace(traces["v2"] / f"{stem}.jsonl"))
        old = render_openmetrics(registry_from_trace(traces["v1"] / f"{stem}.jsonl"))
        assert new == old

    @pytest.mark.parametrize("flag", [(), ("--json",)])
    def test_compare_identical(self, traces, monkeypatch, capsys, flag):
        args = ("compare", "a.jsonl", "b.jsonl", *flag)
        assert _cli(monkeypatch, capsys, traces["v2"], *args) == _cli(
            monkeypatch, capsys, traces["v1"], *args
        )

    def test_compare_across_schemas_is_a_zero_diff(self, traces):
        comparison = compare_traces(traces["v1"] / "a.jsonl", traces["v2"] / "a.jsonl")
        assert all(row.a == row.b for row in comparison.rows)

    @pytest.mark.parametrize("command", ["metrics", "report", "trace-summary"])
    def test_commands_identical_apart_from_record_counts(
        self, traces, monkeypatch, capsys, command
    ):
        def without_record_counts(output: str) -> str:
            # trace-summary's "(N records)" and report's "- records: N".
            return re.sub(r"\d+ records\)|- records: \d+", "", output)

        new = _cli(monkeypatch, capsys, traces["v2"], command, "a.jsonl")
        old = _cli(monkeypatch, capsys, traces["v1"], command, "a.jsonl")
        assert new[0] == old[0]
        assert without_record_counts(new[1]) == without_record_counts(old[1])


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
