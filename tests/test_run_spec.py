"""Gate of the run-spec layer: store identities, results and traces.

The sweep worker, the chaos experiment and the scenario runner each
assemble the paper stack.  This file pins, as hex literals, what those
assemblies produce, so a refactor of how runs are described or built
must reproduce them byte for byte:

* the store fingerprints of the per-seed tasks :func:`measure_point`
  submits — classic, beacon, faults, and beacon + faults — and of the
  tasks the chaos experiment submits;
* the sweep manifest key with and without the ``beacon``/``faults``
  options;
* the ``sha256`` of each sweep task's result and JsonlTracer trace;
* the ``sha256`` of ``run_scenario(...).to_dict()`` plus its trace
  bytes, for every scenario under ``examples/scenarios`` (durations
  cut) and for the ``dsdv``, ``none`` and faulted ``aodv`` stacks under
  strict audit.

Trace bytes are hashed in their schema-1 form: the byte-exact rewrite
:func:`trace_schema2.as_schema_2` expands the ``msgs`` records, then
:func:`trace_schema1.as_schema_1` the ``links`` records, so the
literals pinned under schema 1 still hold.

Tasks are captured from what :func:`measure_point` hands to
``run_tasks``, so the file reads the same whatever type a task is.
Sim and span ids are process counters; traced runs restart both at
zero, as ``test_golden_stack.run_traced_case`` does.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import pytest

import repro.analysis.sweep as sweep_module
import repro.experiments.chaos_overhead as chaos_module
from repro.core.params import NetworkParameters
from repro.obs import JsonlTracer, MetricsRegistry, RunHealthConfig, observe
from repro.obs import spans as obs_spans
from repro.scenario import ScenarioConfig, run_scenario
from repro.sim import Simulation
from repro.store import fingerprint, task_identity
from trace_schema1 import as_schema_1
from trace_schema2 import as_schema_2

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

BASE = NetworkParameters.from_fractions(
    n_nodes=40, range_fraction=0.2, velocity_fraction=0.05
)
BEACON = {"mode": "periodic", "interval": 0.5}
FAULTS = {
    "crash_rate": 0.01,
    "crash_recover_after": 1.0,
    "loss_rate": 0.08,
    "hello_miss_limit": 3,
}
POINT = {"seeds": 1, "duration": 1.5, "warmup": 0.5}

TASK_OPTIONS = {
    "classic": {},
    "beacon": {"beacon": BEACON},
    "faults": {"faults": FAULTS},
    "beacon+faults": {"beacon": BEACON, "faults": FAULTS},
}

TASK_KEYS = {
    "classic": "52b0dde3bcf7d366e21dcc1242922e4e5b22a19cab3fca2b6fd0df396c2f7cb9",
    "beacon": "d0849e910c99d5947d55cb1591a67a785d2fdd77df6f0fc9a5b4856d421df824",
    "faults": "0c6325f102e361d9b2a0558352c07b52f3792cf2a5fc5eeb222af775f057dad2",
    "beacon+faults": "0fb389bd6a413f02d29ef12c27a166adb8dd638e20285dcfd0021b9c55303116",
}

TASK_RESULTS = {
    "classic": "8f07f0c847b67fffdf45532b6beee8080734acb59cb711cf977b69e7b8541e59",
    "beacon": "a842b82cfc4f07b4d98101063f1f75e916b1c3030f98a38388b42ed4a77e49f0",
    "faults": "c73bb9d880fb5984931d97813dae502c3c49dc9b181c323500ac8a464ca95b03",
    "beacon+faults": "c20ec505f9e01438ef6699fcbe849ca3f19f4382a5138c0566bac7d7150f303d",
}

MANIFEST_KEYS = {
    "classic": "761e2df244f5b2fa5d52b080772a94912260cda5fabf415ad8d69bad00c3c78b",
    "beacon": "68faf823d849c055e8ad61bcd2f07964323d98aa47aefb22ac6dfe8492deb3b2",
    "faults": "0cff54da1c4abb2730b3aa03d632638e69d1955e6447835d5093fed1ef7b7ae4",
    "beacon+faults": "206d1e2db9d1122df79702308b8a538470c6938e6702f208325e20982c7e7a74",
}

CHAOS_TASKS = "03bc89d153b470aea74f59e66c2ebfa4a95f9ff3dd465a30d15af0b526834695"

#: Scenario cases: example files with their durations cut, plus the
#: stacks the examples do not cover, each under strict audit.
FLOWS = [
    {"source": 0, "destination": 20, "interval": 0.5},
    {"source": 5, "destination": 30, "interval": 1.0},
]
_SMALL = {
    "n_nodes": 40,
    "range_fraction": 0.2,
    "velocity_fraction": 0.05,
    "duration": 2.0,
    "warmup": 0.5,
    "seed": 3,
}
SCENARIO_CASES = {
    "adaptive-beacon": {"duration": 2.0, "warmup": 0.5},
    "campus": {"duration": 1.5, "warmup": 0.5},
    "chaos": {"duration": 3.0, "warmup": 1.0},
    "health-check": {"duration": 2.0, "warmup": 0.5},
    "vehicular": {"duration": 2.0, "warmup": 0.5},
    "dsdv-strict": {**_SMALL, "name": "dsdv", "routing": "dsdv", "flows": FLOWS},
    "none-strict": {**_SMALL, "name": "none", "routing": "none"},
    "aodv-faults-strict": {
        **_SMALL,
        "name": "aodv-faults",
        "routing": "aodv",
        "hello": {"mode": "periodic", "interval": 0.5},
        "flows": FLOWS,
        "faults": {
            "crash_rate": 0.01,
            "crash_recover_after": 0.5,
            "loss_rate": 0.1,
            "hello_miss_limit": 2,
            "route_retries": 3,
            "route_retry_backoff": 0.2,
            "route_retry_cap": 0.8,
        },
    },
}

SCENARIO_DIGESTS = {
    "adaptive-beacon": "1f40845afa042753129623ebe88e0cf2b2d53a8b50aac948c3f1341ebf96f9a5",
    "campus": "c479a0eae0bc190c0bb30a4370009cf5412c6aa30b031bb4d14cee4869b827e7",
    "chaos": "a7f4169169976b3816bb245da42baf62171f29afc20836a9cc0991a8f57c7130",
    "health-check": "793963ad6f3182143287c7d5d8f3b5feae99eae7c4921e29b6849299d943bbf0",
    "vehicular": "bbb25292f384b5ff6ed6baa5630756255ffc63fd825a98a01b14440927e7880a",
    "dsdv-strict": "9d2d68e6820487b9271ec94ee1ac922f313d64c5c681b5e02162223503e4259b",
    "none-strict": "3308ce9327e8c3713aa6773e9816b894bcbca9d7b3776a16c1ad67f4db17068f",
    "aodv-faults-strict": "f5335ac3de1ac87025d4dc0446f0f1ca5bd8314653c28453807fb81114be38cb",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


def _traced(run) -> bytes:
    """``run()``'s JSON result followed by its schema-1 trace bytes.

    Sim and span counters restart at zero so the trace does not depend
    on what ran earlier in the process.
    """
    saved = Simulation._instance_ids, obs_spans._span_ids
    Simulation._instance_ids = itertools.count()
    obs_spans._span_ids = itertools.count()
    try:
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            with JsonlTracer(path) as tracer, observe(
                tracer=tracer, registry=MetricsRegistry()
            ):
                result = run()
            schema_2 = Path(scratch) / "trace.v2.jsonl"
            schema_2.write_bytes(as_schema_2(path))
            return _json_bytes(result) + as_schema_1(schema_2)
    finally:
        Simulation._instance_ids, obs_spans._span_ids = saved


def _submitted(monkeypatch, **options):
    """The worker and tasks :func:`measure_point` submits, not run."""
    captured = {}

    def capture(fn, tasks, jobs=None, store=None):
        captured["fn"], captured["tasks"] = fn, list(tasks)
        return [({"f_hello": 1.0, "f_cluster": 1.0, "f_route": 1.0}, 0.5)]

    monkeypatch.setattr(sweep_module, "run_tasks", capture)
    sweep_module.measure_point(BASE, BASE.velocity, **POINT, **options)
    monkeypatch.undo()
    assert len(captured["tasks"]) == 1
    return captured["fn"], captured["tasks"][0]


@pytest.mark.parametrize("case", sorted(TASK_OPTIONS))
def test_sweep_task_fingerprint(monkeypatch, case):
    fn, task = _submitted(monkeypatch, **TASK_OPTIONS[case])
    assert fn.__name__ == "_run_once_task"
    assert fn.__module__ == "repro.analysis.sweep"
    assert fingerprint(task_identity(fn, task)) == TASK_KEYS[case]


@pytest.mark.parametrize("case", sorted(TASK_OPTIONS))
def test_sweep_task_result_and_trace(monkeypatch, case):
    fn, task = _submitted(monkeypatch, **TASK_OPTIONS[case])
    digest = _sha256(_traced(lambda: fn(task)))
    assert digest == TASK_RESULTS[case]


@pytest.mark.parametrize("case", sorted(TASK_OPTIONS))
def test_sweep_manifest_key(case):
    options = {**POINT, "jobs": 2, **TASK_OPTIONS[case]}
    identity = sweep_module._sweep_identity(
        "velocity", BASE, [0.01, 0.02], options
    )
    assert fingerprint(identity) == MANIFEST_KEYS[case]


def test_chaos_tasks_fingerprints(monkeypatch):
    keys = []

    def capture(fn, tasks, jobs=None):
        tasks = list(tasks)
        keys.extend(fingerprint(task_identity(fn, task)) for task in tasks)
        return [({"f_hello": 1.0, "f_cluster": 1.0, "f_route": 1.0}, 0.0)] * len(
            tasks
        )

    monkeypatch.setattr(chaos_module, "run_tasks", capture)
    chaos_module.run_chaos_overhead(quick=True)
    assert len(keys) == 5 * 4 * 2
    assert _sha256("\n".join(keys).encode("ascii")) == CHAOS_TASKS


def _scenario(case: str) -> tuple[ScenarioConfig, bool]:
    """The case's config and whether it runs under strict audit."""
    overrides = SCENARIO_CASES[case]
    example = EXAMPLES / f"{case}.json"
    if example.exists():
        data = {**json.loads(example.read_text("utf-8")), **overrides}
        return ScenarioConfig.from_dict(data), False
    return ScenarioConfig.from_dict(overrides), True


@pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
def test_scenario_report_and_trace(case):
    config, strict = _scenario(case)
    health = (
        RunHealthConfig(strict=True, audit_every=0.5, residual_window=0.5)
        if strict
        else None
    )
    with observe(health=health):
        digest = _sha256(_traced(lambda: run_scenario(config).to_dict()))
    assert digest == SCENARIO_DIGESTS[case]


def test_every_example_scenario_is_covered():
    names = {path.stem for path in EXAMPLES.glob("*.json")}
    assert names <= set(SCENARIO_CASES)

