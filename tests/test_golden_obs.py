"""Golden outputs of the trace commands: the refactor gate of ``repro.obs``.

The committed traces under ``golden_obs/`` cover every record family the
trace commands read:

* ``health.jsonl`` — a strict-audit hybrid-routing run with resource
  samples, spans, the attribution ledger and cluster dynamics;
* ``adaptive.jsonl`` — an adaptive-beacon run (``control_window``);
* ``chaos.jsonl`` / ``unfaulted.jsonl`` — a faulted chaos run and its
  unfaulted twin;
* ``store.jsonl`` — a two-pass ``--store`` sweep (``cache_*`` events);
* ``tampered.jsonl`` — ``health.jsonl`` with a tampered attribution
  ledger;
* ``repeated.jsonl`` — ``store.jsonl`` written twice over, so sim ids,
  ``run_end`` and ``attribution`` records repeat;
* ``multi.jsonl`` — two audited adaptive-beacon runs of different
  lengths in one trace, so per-run and pooled window means differ.

``golden_obs/expected.json`` holds, for every command in :data:`CASES`,
the exit code and the exact stdout/stderr bytes (plus the written file
for ``timeline``).  The test runs each command in-process from a copy
of the fixture directory, so the paths printed in the outputs are the
relative names used here, and asserts byte equality: a change that is
meant to keep the trace commands' answers must pass it unchanged.

Regenerate the expected outputs only for a deliberate output change,
from the root of a checkout::

    PYTHONPATH=src:tests python -c \\
        "import test_golden_obs; test_golden_obs.regenerate_expected()"

The traces themselves are rebuilt by ``build_traces()`` the same way;
resource samples carry wall-clock readings, so rebuilt traces (and
hence the expected outputs) differ from run to run.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).with_name("golden_obs")
EXPECTED = FIXTURES / "expected.json"

TRACES = (
    "health.jsonl",
    "adaptive.jsonl",
    "chaos.jsonl",
    "unfaulted.jsonl",
    "store.jsonl",
    "tampered.jsonl",
    "repeated.jsonl",
    "multi.jsonl",
)


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for trace in TRACES:
        stem = trace.removesuffix(".jsonl")
        cases[f"trace-summary-{stem}"] = ["trace-summary", trace]
        cases[f"trace-summary-json-{stem}"] = ["trace-summary", trace, "--json"]
        cases[f"report-{stem}"] = ["report", trace]
        cases[f"compare-self-{stem}"] = ["compare", trace, trace]
        if stem in ("tampered", "unfaulted"):
            continue  # same record shapes as health / chaos below
        cases[f"compare-self-json-{stem}"] = ["compare", trace, trace, "--json"]
        cases[f"metrics-{stem}"] = ["metrics", trace]
        cases[f"timeline-{stem}"] = [
            "timeline", trace, "--out", f"{stem}.timeline.json"
        ]
    cases["report-health-chaos"] = ["report", "health.jsonl", "chaos.jsonl"]
    cases["compare-unfaulted-chaos"] = [
        "compare", "unfaulted.jsonl", "chaos.jsonl"
    ]
    cases["compare-unfaulted-chaos-json"] = [
        "compare", "unfaulted.jsonl", "chaos.jsonl", "--json"
    ]
    cases["compare-health-tampered"] = [
        "compare", "health.jsonl", "tampered.jsonl"
    ]
    return cases


CASES = _cases()


def run_case(argv: list[str], capsys) -> dict:
    """Run one command in the current directory; return its outputs."""
    capsys.readouterr()
    code = main(list(argv))
    out, err = capsys.readouterr()
    result = {"exit": code, "stdout": out, "stderr": err}
    if argv[0] == "timeline":
        result["file"] = Path(argv[-1]).read_text(encoding="utf-8")
    return result


@pytest.fixture
def workdir(tmp_path, monkeypatch) -> Path:
    for trace in TRACES:
        shutil.copyfile(FIXTURES / trace, tmp_path / trace)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_expected_covers_every_case(expected):
    assert set(expected) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_output_is_byte_identical(name, expected, workdir, capsys):
    result = run_case(CASES[name], capsys)
    want = expected[name]
    assert result["exit"] == want["exit"]
    assert result["stdout"] == want["stdout"]
    assert result["stderr"] == want["stderr"]
    assert result.get("file") == want.get("file")


def test_fixtures_exercise_every_record_family():
    """The gate only holds if the traces carry what the commands read."""
    events: set[str] = set()
    for trace in TRACES:
        for line in (FIXTURES / trace).read_text(encoding="utf-8").splitlines():
            events.add(json.loads(line)["event"])
    assert {
        "run_begin",
        "run_end",
        "msg_tx",
        "span_start",
        "span_end",
        "span_link",
        "cluster_window",
        "control_window",
        "attribution",
        "invariant_audit",
        "residual",
        "resource_sample",
        "fault_inject",
        "fault_clear",
        "cache_hit",
        "cache_miss",
        "cache_write",
    } <= events


# ----------------------------------------------------------------------
# Regeneration helpers (not run by the suite)
# ----------------------------------------------------------------------
_BASE_SCENARIO = {
    "n_nodes": 40,
    "range_fraction": 0.2,
    "velocity_fraction": 0.04,
    "mobility": {"model": "epoch-rwp", "epoch": 1.0},
    "clustering": {"algorithm": "lid"},
    "routing": "hybrid",
    "boundary": "torus",
    "duration": 2.0,
    "warmup": 0.5,
    "seed": 0,
}


def _simulate(scenario: dict, trace: Path, *options: str) -> None:
    scenario_path = trace.with_suffix(".scenario.json")
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    main(["simulate", str(scenario_path), "--trace", str(trace), *options])
    scenario_path.unlink()


def build_traces(dest: Path = FIXTURES) -> None:
    """Rebuild the fixture traces from the current code."""
    import tempfile

    from repro.analysis.sweep import run_sweep
    from repro.core.params import NetworkParameters
    from repro.obs import JsonlTracer, RunHealthConfig, observe
    from repro.scenario import ScenarioConfig, run_scenario
    from repro.store import ResultStore, use_store

    dest.mkdir(parents=True, exist_ok=True)
    flows = [{"source": 0, "destination": 20, "interval": 0.5}]
    _simulate(
        {**_BASE_SCENARIO, "name": "health", "hello": {"mode": "event"},
         "flows": flows},
        dest / "health.jsonl",
        "--audit", "strict", "--audit-every", "0.5",
        "--residual-window", "0.5", "--residual-rtol", "0.2",
        "--sample-resources", "0.01",
    )
    _simulate(
        {**_BASE_SCENARIO, "name": "adaptive", "velocity_fraction": 0.08,
         "beacon": {"mode": "adaptive",
                    "policy": {"policy": "staleness-bounded"},
                    "window": 0.5, "alpha": 0.5},
         "flows": []},
        dest / "adaptive.jsonl",
    )
    chaos = {
        **_BASE_SCENARIO, "name": "chaos",
        "hello": {"mode": "periodic", "interval": 0.5},
        "flows": flows,
        "faults": {"crash_rate": 0.02, "crash_recover_after": 0.5,
                   "loss_rate": 0.08, "hello_miss_limit": 3,
                   "route_retries": 2},
    }
    _simulate(chaos, dest / "chaos.jsonl", "--audit", "strict")
    unfaulted = {key: value for key, value in chaos.items() if key != "faults"}
    unfaulted["name"] = "chaos-unfaulted"
    _simulate(unfaulted, dest / "unfaulted.jsonl", "--audit", "strict")

    base = NetworkParameters.from_fractions(
        n_nodes=30, range_fraction=0.2, velocity_fraction=0.05
    )
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(Path(root))
        with JsonlTracer(dest / "store.jsonl") as tracer:
            with observe(tracer=tracer), use_store(store):
                for _ in range(2):  # cold pass, then all hits
                    run_sweep(
                        "tx_range", base, [base.tx_range], seeds=2,
                        duration=0.5, warmup=0.2,
                    )

    health = RunHealthConfig(audit_every=0.5, residual_window=0.5)
    with JsonlTracer(dest / "multi.jsonl") as tracer:
        with observe(tracer=tracer, health=health):
            for seed, duration in ((1, 0.5), (2, 1.5)):
                run_scenario(
                    ScenarioConfig.from_dict(
                        {**_BASE_SCENARIO, "name": f"multi-{seed}",
                         "n_nodes": 24, "seed": seed, "duration": duration,
                         "velocity_fraction": 0.08,
                         "beacon": {"mode": "adaptive",
                                    "policy": {"policy": "churn-feedback"},
                                    "window": 0.5},
                         "flows": []}
                    )
                )

    records = [
        json.loads(line)
        for line in (dest / "health.jsonl").read_text("utf-8").splitlines()
    ]
    for record in records:
        if record["event"] == "attribution":
            hello = record["causes"]["hello"]
            cause = sorted(hello)[0]
            hello[cause]["messages"] += 1
            record["totals"]["hello"]["messages"] += 1
            record["reconciled"] = False
    store_text = (dest / "store.jsonl").read_text(encoding="utf-8")
    (dest / "repeated.jsonl").write_text(store_text * 2, encoding="utf-8")
    (dest / "tampered.jsonl").write_text(
        "".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in records
        ),
        encoding="utf-8",
    )


def regenerate_expected(path: Path = EXPECTED) -> None:
    """Rewrite the expected outputs from the current code."""
    import contextlib
    import io
    import os
    import tempfile

    class _Capture:
        def __init__(self) -> None:
            self.out = io.StringIO()
            self.err = io.StringIO()

        def readouterr(self) -> tuple[str, str]:
            out, err = self.out.getvalue(), self.err.getvalue()
            self.out.seek(0)
            self.out.truncate()
            self.err.seek(0)
            self.err.truncate()
            return out, err

    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for trace in TRACES:
            shutil.copyfile(FIXTURES / trace, Path(work) / trace)
        os.chdir(work)
        try:
            for name, argv in sorted(CASES.items()):
                capture = _Capture()
                with contextlib.redirect_stdout(capture.out), \
                        contextlib.redirect_stderr(capture.err):
                    results[name] = run_case(argv, capture)
        finally:
            os.chdir(cwd)
    path.write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
