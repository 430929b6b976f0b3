"""Engine performance benchmark: incremental vs batch edge-set kernels.

``repro-manet bench`` drives this module and writes ``BENCH_engine.json``.
It answers two questions about the simulation substrate:

* **How much faster is the incremental kernel?**  The edge engine is a
  bare loop that re-runs the batch KD-tree pair sweep every step and
  diffs the edge sets; the incremental engine is a
  :class:`~repro.sim.Simulation`, which runs the temporal-coherence
  kernel (:mod:`repro.spatial.incremental`).  Both run the same
  mobility model with the same seeds, so the steps/sec ratio isolates
  the connectivity kernel.  Each incremental row is preceded by an
  **equivalence check** — a short run comparing the simulation's edge
  sets and link events with a fresh sweep of its positions every step
  — so a speedup number is never reported for a kernel that silently
  diverged.
* **Does process parallelism pay?**  ``--sweep-jobs`` times an
  identical small sweep point at several ``jobs`` values; numbers are
  whatever the current machine supports (a single-core container shows
  overhead, not speedup — the report records ``cpu_count`` so readers
  can judge).

Peak RSS is read from ``getrusage`` and is monotone over the process
lifetime; modes are benchmarked smallest-N-first so the per-mode
snapshot is still a usable upper bound for that mode.  A background
:class:`~repro.obs.resources.ResourceSampler` additionally records the
*current* RSS and CPU utilisation over the whole benchmark
(``resources`` in the report).

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
import platform
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import numpy as np

from ..core.params import NetworkParameters
from ..mobility import EpochRandomWaypointModel
from ..obs.resources import ResourceSampler
from ..obs.timing import PhaseTimer
from ..sim import Simulation, recommended_step
from ..spatial import Boundary, SquareRegion, compute_edges, diff_edge_sets

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_MODES",
    "DEFAULT_REGRESSION_THRESHOLD",
    "bench_step_modes",
    "check_equivalence",
    "bench_parallel_sweep",
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
DEFAULT_SIZES = (100, 500, 2000, 5000)

#: Kernel modes the step benchmark runs, in reporting order.  Tokens
#: are the ``--modes`` CLI vocabulary; labels are the ``mode`` field in
#: result rows and history points.
DEFAULT_MODES = ("edge", "incremental")

_MODE_LABELS = {
    "edge": "edge-engine",
    "incremental": "incremental-engine",
}


def _peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in kilobytes."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _params_for(n_nodes: int) -> NetworkParameters:
    return NetworkParameters.from_fractions(
        n_nodes=n_nodes, range_fraction=0.1, velocity_fraction=0.05
    )


def _phase_dict(timer: PhaseTimer) -> dict[str, float]:
    return {p.phase: p.seconds for p in timer.report().phases}


def _bench_edge_engine(
    params: NetworkParameters, steps: int, seed: int = 0
) -> dict:
    """The batch edge-set kernel as a bare loop.

    Each step advances the same mobility model as the incremental row,
    re-sweeps every pair (:func:`~repro.spatial.compute_edges`, the
    KD-tree sweep) and diffs the edge sets, charged to the
    simulation's phase names (``mobility``, ``adjacency``,
    ``link_diff``).
    """
    timer = PhaseTimer()
    region = SquareRegion(params.side, Boundary.TORUS)
    mobility = EpochRandomWaypointModel(params.velocity, epoch=1.0)
    mobility.reset(params.n_nodes, region, seed)
    dt = recommended_step(params.tx_range, params.velocity)
    edges = compute_edges(region, mobility.positions, params.tx_range)
    start = perf_counter()
    for _ in range(steps):
        t0 = perf_counter()
        positions = mobility.advance(dt)
        t1 = perf_counter()
        new_edges = compute_edges(region, positions, params.tx_range)
        t2 = perf_counter()
        diff_edge_sets(edges, new_edges)
        t3 = perf_counter()
        timer.add("mobility", t1 - t0)
        timer.add("adjacency", t2 - t1)
        timer.add("link_diff", t3 - t2)
        edges = new_edges
    elapsed = perf_counter() - start
    return {
        "mode": "edge-engine",
        "n_nodes": params.n_nodes,
        "connectivity": "tree",
        "steps": steps,
        "elapsed_s": elapsed,
        "steps_per_sec": steps / elapsed,
        "phases_s": _phase_dict(timer),
        "peak_rss_kb": _peak_rss_kb(),
    }


def _bench_incremental_engine(
    params: NetworkParameters, steps: int, seed: int = 0
) -> dict:
    """The temporal-coherence kernel through :meth:`Simulation.step`.

    ``engine_stats`` counts the full validations and incremental steps;
    ``mean_at_risk`` is the mean number of candidate pairs whose
    distance an incremental step recomputed.
    """
    timer = PhaseTimer()
    sim = Simulation(
        params,
        EpochRandomWaypointModel(params.velocity, epoch=1.0),
        seed=seed,
        timer=timer,
    )
    start = perf_counter()
    for _ in range(steps):
        sim.step()
    elapsed = perf_counter() - start
    engine = sim._incremental
    return {
        "mode": "incremental-engine",
        "n_nodes": params.n_nodes,
        "connectivity": "incremental",
        "steps": steps,
        "elapsed_s": elapsed,
        "steps_per_sec": steps / elapsed,
        "phases_s": _phase_dict(timer),
        "peak_rss_kb": _peak_rss_kb(),
        "engine_stats": {
            "full_rebuilds": engine.full_rebuilds,
            "incremental_steps": engine.incremental_steps,
            "mean_at_risk": (
                engine.at_risk_total / engine.incremental_steps
                if engine.incremental_steps
                else 0.0
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


def bench_step_modes(
    sizes=DEFAULT_SIZES,
    steps: int = 30,
    modes=DEFAULT_MODES,
) -> tuple[list[dict], dict[str, dict]]:
    """Benchmark the requested kernels across ``sizes``.

    Returns ``(results, tables)``.  ``tables`` holds two per-size maps
    keyed by ``str(N)``:

    * ``"speedup_vs_edge"`` — mode steps/sec over the edge engine's,
      per mode label, at every size the edge engine ran.
    * ``"equivalence"`` — the :func:`check_equivalence` verdict for the
      incremental engine at that size (``"ok"`` or a mismatch string).
    """
    unknown = [m for m in modes if m not in _MODE_LABELS]
    if unknown:
        raise ValueError(
            f"unknown bench modes {unknown}; "
            f"choose from {sorted(_MODE_LABELS)}"
        )
    results: list[dict] = []
    speedup_vs_edge: dict[str, dict[str, float]] = {}
    equivalence: dict[str, str] = {}
    for n_nodes in sorted(sizes):
        params = _params_for(n_nodes)
        per_size: dict[str, dict] = {}
        if "edge" in modes:
            per_size["edge"] = _bench_edge_engine(params, steps)
        if "incremental" in modes:
            equivalence[str(n_nodes)] = check_equivalence(params)
            per_size["incremental"] = _bench_incremental_engine(
                params, steps
            )
        results.extend(
            per_size[m] for m in DEFAULT_MODES if m in per_size
        )
        if "edge" in per_size:
            edge_rate = per_size["edge"]["steps_per_sec"]
            speedup_vs_edge[str(n_nodes)] = {
                _MODE_LABELS[token]: row["steps_per_sec"] / edge_rate
                for token, row in per_size.items()
                if token != "edge"
            }
    tables = {
        "speedup_vs_edge": speedup_vs_edge,
        "equivalence": equivalence,
    }
    return results, tables


def bench_parallel_sweep(
    jobs_values=(1, 4),
    n_nodes: int = 120,
    seeds: int = 4,
    duration: float = 4.0,
) -> dict:
    """Wall-clock one sweep point at each ``jobs`` value.

    The per-seed work and results are identical across rows (the runner
    is deterministic), so the wall-clock ratio is pure scheduling.
    ``chunk_size`` records how many tasks each worker dispatch carried
    (the amortization knob of :func:`repro.analysis.parallel.run_tasks`).
    """
    from .parallel import task_chunk_size
    from .sweep import measure_point

    params = _params_for(n_nodes)
    rows = []
    serial_s: float | None = None
    for jobs in jobs_values:
        start = perf_counter()
        measure_point(
            params,
            params.tx_range,
            seeds=seeds,
            duration=duration,
            warmup=duration * 0.15,
            jobs=jobs,
        )
        elapsed = perf_counter() - start
        if jobs == 1:
            serial_s = elapsed
        rows.append(
            {
                "jobs": jobs,
                "chunk_size": task_chunk_size(seeds, jobs),
                "wall_s": elapsed,
                "vs_serial": None if serial_s is None else elapsed / serial_s,
            }
        )
    return {
        "n_nodes": n_nodes,
        "seeds": seeds,
        "duration": duration,
        "rows": rows,
    }


def run_bench(
    sizes=DEFAULT_SIZES,
    steps: int = 30,
    sweep_jobs=None,
    modes=DEFAULT_MODES,
) -> dict:
    """Run the requested benchmark stages and assemble the report."""
    import os

    from ..sim.engine import ENGINE_SCHEMA_VERSION

    payload: dict = {
        "schema_version": 4,
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
            "modes": list(modes),
        },
        "notes": [
            "incremental-engine rows are preceded by an equivalence "
            "check against a fresh pair sweep every step (see the "
            "equivalence table)",
            "peak_rss_kb is process-monotone (getrusage); modes run "
            "smallest-N-first",
        ],
    }
    sampler = ResourceSampler(interval=0.2)
    with sampler:
        results, tables = bench_step_modes(sizes, steps, modes)
        payload["step_benchmarks"] = results
        payload.update(tables)
        if sweep_jobs:
            payload["parallel_sweep"] = bench_parallel_sweep(
                tuple(sweep_jobs)
            )
    payload["resources"] = sampler.summary()
    return payload


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
