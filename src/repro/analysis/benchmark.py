"""Engine performance benchmark: the paper stack per link event.

``repro-manet bench`` drives this module and writes ``BENCH_engine.json``.
It answers one question about the simulator: **what does a link event
cost?**  Each row times the stack that
:func:`~repro.run_spec.build_stack` builds for a default
:class:`~repro.run_spec.RunSpec`: event HELLO, intra-cluster routing and
LID cluster maintenance over the incremental connectivity engine, with
the stats window open as in a real run.  Every overhead term of the
paper is a rate of link events (Eqn 3: ``λ = 16 d v / (π² r)``) and the
recommended step is ``dt ∝ r / v``, so at constant degree ``d`` each
node sees a constant number of events per step.  The rows hold the
degree fixed (:func:`bench_params`), which makes µs per link event
comparable across sizes; a flat µs/event is the shape the paper's model
asks of the simulator.

Every size first passes an **equivalence check** — a short run
comparing the simulation's edge sets and link events with a fresh sweep
of its positions every step — so no number is reported for a kernel
that silently diverged.  Then one warmed stack per size is timed in
:data:`WINDOWS` rounds; each round times one window per size, smallest
first, so a slow stretch of the host lands on every size alike rather
than on whichever row ran through it.  A row reports its median window.

**Bench history** (``repro-manet bench --history FILE``) turns a
one-off report into a perf-regression tracker: each run appends one
compact JSONL entry (machine, config, steps/sec per benchmark point) to
the history file, and :func:`update_bench_history` flags every point
whose steps/sec fell more than the threshold (default 20%) below the
best prior entry — the CLI exits non-zero on any flagged point, which
is how CI gates engine performance.
"""

from __future__ import annotations

import json
import logging
import math
import platform
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import numpy as np

from ..core.params import NetworkParameters
from ..mobility import EpochRandomWaypointModel
from ..obs.timing import PhaseTimer
from ..run_spec import RunSpec, build_stack
from ..sim import Simulation, recommended_step
from ..spatial import compute_edges, diff_edge_sets

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_REGRESSION_THRESHOLD",
    "WARMUP_STEPS",
    "WINDOWS",
    "bench_params",
    "bench_steps",
    "check_equivalence",
    "run_bench",
    "write_bench",
    "history_entry",
    "update_bench_history",
]

logger = logging.getLogger(__name__)

#: Fractional steps/sec drop vs the best prior history entry that
#: counts as a regression.
DEFAULT_REGRESSION_THRESHOLD = 0.20

#: Full validations (after the initial one) that :func:`check_equivalence`
#: must run the incremental engine through, and its step cap.
EQUIVALENCE_VALIDATIONS = 3
EQUIVALENCE_MAX_STEPS = 200

#: Network sizes the step benchmark reports on.
DEFAULT_SIZES = (500, 1000, 2000, 4000)

#: Steps each row runs before its stats window opens and its clock
#: starts, so formation and the first validations stay out of it.
WARMUP_STEPS = 5

#: Timed windows per size, run in rounds across the sizes.  Odd, so a
#: row's median is a window that ran.
WINDOWS = 7

#: The size at which a row's r and v are perfbench ``paper-stack``'s
#: (r = 0.1a, v = 0.05a); other sizes scale both by sqrt(N0 / N).
REFERENCE_NODES = 2000
REFERENCE_RANGE_FRACTION = 0.1
REFERENCE_VELOCITY_FRACTION = 0.05


def _peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in kilobytes."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def bench_params(n_nodes: int) -> NetworkParameters:
    """Parameters of the ``n_nodes`` row, at constant degree.

    r and v scale by ``sqrt(REFERENCE_NODES / n_nodes)``: the expected
    degree ``π r² N / a²`` and the events per node per step (Eqn 3 at
    the recommended step) are then the same at every size.  Below
    N = 80, r passes a/2 and the disc wraps the torus, so a node sees
    fewer neighbors and events than that.  Raises :class:`ValueError`
    for a size the scaling cannot place (r >= a, so N <= 20).
    """
    scale = math.sqrt(REFERENCE_NODES / n_nodes)
    return NetworkParameters.from_fractions(
        n_nodes=n_nodes,
        range_fraction=REFERENCE_RANGE_FRACTION * scale,
        velocity_fraction=REFERENCE_VELOCITY_FRACTION * scale,
    )


def _phase_dict(timer: PhaseTimer) -> dict[str, float]:
    return {p.phase: p.seconds for p in timer.report().phases}


def _median(values: list[float]) -> float | None:
    return float(np.median(values)) if values else None


def _engine_counters(engine) -> np.ndarray:
    """Validations, incremental steps and pairs rechecked so far."""
    return np.array(
        [engine.full_rebuilds, engine.incremental_steps, engine.at_risk_total]
    )


def _warm_stack(params: NetworkParameters, steps: int) -> Simulation:
    """The default seed-0 stack for ``params``, warmed up, stats open."""
    dt = recommended_step(params.tx_range, params.velocity)
    spec = RunSpec(
        params,
        seed=0,
        duration=WINDOWS * steps * dt,
        warmup=WARMUP_STEPS * dt,
    )
    sim = build_stack(spec).sim
    for _ in range(WARMUP_STEPS):
        sim.step()
    sim.stats.start_measuring()
    return sim


def _time_window(sim: Simulation, steps: int) -> dict:
    """Time ``steps`` steps of ``sim``, its phase timer reset first.

    ``step_ms`` splits the step wall times by whether the engine step
    was a validation (``True``) or incremental (``False``).
    """
    engine = sim._incremental
    sim.timer.reset()
    step_ms: dict[bool, list[float]] = {True: [], False: []}
    events = 0
    start = perf_counter()
    for _ in range(steps):
        rebuilds = engine.full_rebuilds
        before = perf_counter()
        events += sim.step().change_count
        step_ms[engine.full_rebuilds != rebuilds].append(
            (perf_counter() - before) * 1e3
        )
    return {
        "elapsed_s": perf_counter() - start,
        "events": events,
        "phases_s": _phase_dict(sim.timer),
        "step_ms": step_ms,
    }


def _stack_row(
    n_nodes: int, steps: int, windows: list[dict], counters: np.ndarray
) -> dict:
    """One size's row from its timed ``windows``.

    The timing fields come from the median window by µs/event.
    ``us_per_event_by_phase`` splits its ``us_per_event`` over the
    simulation's :class:`~repro.obs.timing.PhaseTimer` phases, plus an
    ``untimed`` entry for the wall time no phase covers, so its values
    sum to ``us_per_event``.  ``events_per_step`` and ``engine_stats``
    cover all timed steps; ``counters`` is the engine's
    :func:`_engine_counters` delta over them.  ``full_rebuilds``
    counts the engine's validations, and ``mean_at_risk`` is the mean
    number of candidate pairs whose distance an incremental step
    recomputed.  ``validation_ms_p50`` and ``incremental_ms_p50`` are
    the median step wall times of the steps whose engine step was a
    validation and of the rest (``None`` when no timed step was).
    """
    us_windows = [w["elapsed_s"] * 1e6 / w["events"] for w in windows]
    order = sorted(range(len(windows)), key=us_windows.__getitem__)
    median = windows[order[len(order) // 2]]
    elapsed, events, phases = (
        median["elapsed_s"], median["events"], median["phases_s"]
    )
    us_per_event = {
        phase: seconds * 1e6 / events for phase, seconds in phases.items()
    }
    us_per_event["untimed"] = (elapsed - sum(phases.values())) * 1e6 / events
    validations, incremental, at_risk = counters.tolist()
    return {
        "mode": "stack",
        "n_nodes": n_nodes,
        "steps": steps,
        "elapsed_s": elapsed,
        "steps_per_sec": steps / elapsed,
        "events_per_step": sum(w["events"] for w in windows)
        / (steps * len(windows)),
        "ms_per_step": elapsed * 1e3 / steps,
        "us_per_event": elapsed * 1e6 / events,
        "us_per_event_windows": us_windows,
        "us_per_event_by_phase": us_per_event,
        "phases_s": phases,
        "engine_stats": {
            "full_rebuilds": validations,
            "incremental_steps": incremental,
            "mean_at_risk": at_risk / incremental if incremental else 0.0,
            "validation_ms_p50": _median(
                [ms for w in windows for ms in w["step_ms"][True]]
            ),
            "incremental_ms_p50": _median(
                [ms for w in windows for ms in w["step_ms"][False]]
            ),
        },
    }


def check_equivalence(
    params: NetworkParameters, steps: int = 10, seed: int = 0
) -> str:
    """Check a simulation's edge sets against a fresh sweep every step.

    The reference is :func:`~repro.spatial.compute_edges` (the KD-tree
    sweep, which the test suite pins equal to the dense metric) on the
    simulation's own positions, and its link events are the
    :func:`~repro.spatial.diff_edge_sets` of consecutive references.
    Runs at least ``steps`` steps and on until the incremental engine
    has done :data:`EQUIVALENCE_VALIDATIONS` full validations after its
    initial one (at most ``EQUIVALENCE_MAX_STEPS`` steps), so the check
    crosses validations and is not confined to one validation cycle.
    Returns ``"ok"`` or a description of the first mismatch, or of a
    run too short to reach the validations.
    """
    sim = Simulation(
        params,
        EpochRandomWaypointModel(params.velocity, epoch=1.0),
        seed=seed,
    )
    engine = sim._incremental
    reference = compute_edges(sim.region, sim.positions, params.tx_range)
    if not np.array_equal(sim.edges, reference):
        return "initial edge sets differ (vs tree)"
    step = 0
    while step < steps or engine.full_rebuilds <= EQUIVALENCE_VALIDATIONS:
        if step == EQUIVALENCE_MAX_STEPS:
            return (
                f"only {engine.full_rebuilds - 1} validations in {step} "
                f"steps, expected {EQUIVALENCE_VALIDATIONS}"
            )
        step += 1
        events = sim.step()
        previous = reference
        reference = compute_edges(sim.region, sim.positions, params.tx_range)
        if not np.array_equal(sim.edges, reference):
            return f"edge sets differ at step {step} (vs tree)"
        expected = diff_edge_sets(previous, reference)
        for field in ("generated", "broken"):
            if not np.array_equal(
                getattr(events, field), getattr(expected, field)
            ):
                return (
                    f"{field} link events differ at step {step} "
                    f"(vs tree)"
                )
    return "ok"


def bench_steps(
    sizes=DEFAULT_SIZES, steps: int = 30
) -> tuple[list[dict], dict[str, str]]:
    """Benchmark the stack across ``sizes`` in alternating windows.

    Returns ``(results, equivalence)``: one row per size, smallest
    first, and the :func:`check_equivalence` verdict at each size
    (``"ok"`` or a mismatch string), keyed by ``str(N)``.  Every size's
    parameters are built before anything runs, so a size
    :func:`bench_params` cannot place raises its :class:`ValueError`
    up front, and every equivalence check runs before any timing.
    Each of the :data:`WINDOWS` rounds then times one window of
    ``steps`` steps per size, smallest size first.
    """
    all_params = [bench_params(n_nodes) for n_nodes in sorted(sizes)]
    equivalence = {
        str(params.n_nodes): check_equivalence(params)
        for params in all_params
    }
    sims = [_warm_stack(params, steps) for params in all_params]
    counters = [_engine_counters(sim._incremental) for sim in sims]
    windows: list[list[dict]] = [[] for _ in sims]
    for _ in range(WINDOWS):
        for sim, timed in zip(sims, windows):
            timed.append(_time_window(sim, steps))
    results = [
        _stack_row(
            sim.n_nodes,
            steps,
            timed,
            _engine_counters(sim._incremental) - before,
        )
        for sim, timed, before in zip(sims, windows, counters)
    ]
    return results, equivalence


def run_bench(sizes=DEFAULT_SIZES, steps: int = 30) -> dict:
    """Run the step benchmark and assemble the report."""
    import os

    from ..sim.engine import ENGINE_SCHEMA_VERSION

    results, equivalence = bench_steps(sizes, steps)
    return {
        "schema_version": 6,
        "engine_schema_version": ENGINE_SCHEMA_VERSION,
        "machine": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "sizes": list(sizes),
            "steps": steps,
            "windows": WINDOWS,
            "warmup_steps": WARMUP_STEPS,
        },
        "notes": [
            "rows hold the expected degree fixed: r and v are 0.1a and "
            "0.05a at N=2000, scaled by sqrt(2000/N)",
            "every size passes an equivalence check against a fresh "
            "pair sweep every step before any timing (see the "
            "equivalence table)",
            f"each row is the median of {WINDOWS} windows of `steps` "
            "steps; each round times one window per size, smallest N "
            "first",
            "peak_rss_kb is the process's peak over the whole benchmark "
            "(getrusage)",
        ],
        "step_benchmarks": results,
        "equivalence": equivalence,
        "peak_rss_kb": _peak_rss_kb(),
    }


def write_bench(payload: dict, path: str | Path) -> Path:
    """Write a benchmark report as indented JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# Bench history: perf-regression tracking across runs
# ----------------------------------------------------------------------
def history_entry(payload: dict) -> dict:
    """Compact JSONL history record for one benchmark report.

    ``points`` maps ``"<mode>:N<size>"`` to steps/sec, so entries from
    differently-configured runs only gate against each other where
    they measured the same point.  ``phases`` carries each point's
    per-phase *seconds per step*, which is what lets a later regression
    be attributed to the phase whose cost moved
    (:func:`repro.obs.compare.diff_phases`).
    """
    points: dict[str, float] = {}
    phases: dict[str, dict[str, float]] = {}
    for row in payload.get("step_benchmarks", []):
        key = f"{row['mode']}:N{row['n_nodes']}"
        points[key] = row["steps_per_sec"]
        steps = row.get("steps") or 0
        if steps and row.get("phases_s"):
            phases[key] = {
                phase: seconds / steps
                for phase, seconds in row["phases_s"].items()
            }
    return {
        "schema": 1,
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": payload.get("machine", {}),
        "config": payload.get("config", {}),
        "points": points,
        "phases": phases,
    }


def _read_history(path: Path) -> list[dict]:
    """Prior history entries; malformed lines are skipped with a warning."""
    entries: list[dict] = []
    if not path.exists():
        return entries
    for line_number, line in enumerate(
        path.read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            logger.warning(
                "%s:%d: skipping malformed bench-history line",
                path,
                line_number,
            )
    return entries


def update_bench_history(
    payload: dict,
    path: str | Path,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> tuple[dict, list[str]]:
    """Append this run to the history and flag steps/sec regressions.

    Every benchmark point is compared against the *best* prior entry
    for the same point; a drop of more than ``threshold`` (fraction) is
    a regression.  The new entry is appended regardless, so a
    regression is recorded evidence, not a write failure.  Returns
    ``(entry, regressions)``; an empty regression list means the gate
    passes (including the very first run, which has nothing to gate
    against).  When both the best prior entry and this run recorded
    per-phase timings for a regressed point, the regression line is
    followed by an attribution of the phases whose per-step cost moved
    most.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(
            f"threshold must lie in (0, 1), got {threshold}"
        )
    from ..obs.compare import diff_phases

    path = Path(path)
    entry = history_entry(payload)
    best_prior: dict[str, float] = {}
    best_phases: dict[str, dict[str, float]] = {}
    for prior in _read_history(path):
        for key, value in (prior.get("points") or {}).items():
            try:
                value = float(value)
            except (TypeError, ValueError):
                continue
            if value > best_prior.get(key, 0.0):
                best_prior[key] = value
                phases = (prior.get("phases") or {}).get(key)
                if phases:
                    best_phases[key] = phases
                else:
                    best_phases.pop(key, None)
    regressions: list[str] = []
    for key, current in sorted(entry["points"].items()):
        best = best_prior.get(key)
        if best is None or best <= 0.0:
            continue
        if current < (1.0 - threshold) * best:
            regressions.append(
                f"{key}: {current:.1f} steps/s is "
                f"{1.0 - current / best:.1%} below the best prior "
                f"{best:.1f} steps/s (threshold {threshold:.0%})"
            )
            prior_phases = best_phases.get(key)
            current_phases = entry["phases"].get(key)
            if prior_phases and current_phases:
                regressions.extend(
                    f"{key}:   phase {line} s/step"
                    for line in diff_phases(prior_phases, current_phases)
                )
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return entry, regressions
