"""Inputs, program set-up, measured windows and output checks.

Every workload derives its inputs from the benchmark seed, drives the
program only through its public API, measures a wall-clock-bounded
window and checks the program's outputs.  The untraced measurement of a
workload returns an :class:`Outcome`; :mod:`probes` reuses the same
building blocks for the traced per-layer run.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.analysis import parallel
from repro.analysis.parallel import run_tasks
from repro.analysis.sweep import run_sweep
from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.clustering.properties import check_properties
from repro.clustering.stability import attach_cluster_dynamics
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.obs.attribution import attach_attribution
from repro.obs.context import observe
from repro.obs.health import attach_run_health
from repro.obs.summary import summarize_trace
from repro.obs.tracer import JsonlTracer
from repro.routing import HybridRoutingProtocol, IntraClusterRoutingProtocol
from repro.sim import HelloProtocol, Simulation
from repro.sim.engine import recommended_step
from repro.sim.traffic import CbrFlow, HybridRouterAdapter, TrafficProtocol
from repro.store import ResultStore

#: Seed at which the golden digests in ``golden.json`` are checked.
DEFAULT_SEED = 0

#: Stack workloads: r = 0.1a, v = 0.05a on a unit torus (epoch RWP).
RANGE_FRACTION = 0.10
VELOCITY_FRACTION = 0.05
EPOCH = 1.0
FLOW_INTERVAL = 0.1

#: Sweep workload: the Figure-2 velocity axis at r = 0.15a.
SWEEP_RANGE_FRACTION = 0.15
SWEEP_AXIS = (0.01, 0.15)
#: Each axis point is scaled by 1 +/- this share, drawn from the seed.
SWEEP_JITTER = 0.02


@dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`FULL` is the benchmark, :data:`TINY` its tests."""

    paper_nodes: int = 2000
    data_nodes: int = 500
    trace_nodes: int = 1000
    flows: int = 40
    sweep_nodes: int = 300
    sweep_points: int = 5
    sweep_seeds: int = 4
    sweep_duration: float = 2.0
    sweep_warmup: float = 0.5
    #: Steps run after set-up and before the measured window; the
    #: golden digest is taken at their end, so it does not depend on
    #: how many steps the window fits.
    warmup_steps: int = 10
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 5
    #: data-plane splits its window over this many independent
    #: scenarios (mobility and flows), pooling their steps: its cost
    #: depends on the placement far more than the other workloads'.
    data_episodes: int = 3


FULL = Scale()
TINY = replace(
    FULL,
    paper_nodes=150,
    data_nodes=120,
    trace_nodes=120,
    flows=6,
    sweep_nodes=60,
    sweep_points=2,
    sweep_seeds=2,
    sweep_duration=0.5,
    sweep_warmup=0.1,
    warmup_steps=3,
    setup_repeats=2,
    data_episodes=2,
)


# ----------------------------------------------------------------------
# Outcome and checks
# ----------------------------------------------------------------------
@dataclass
class Checks:
    """Correctness checks and run units attempted / failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}" if detail else name)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Outcome:
    """What one workload run reports.

    ``metrics`` maps a name to ``(value, unit)``; ``notes`` holds the
    human-readable extras (sample counts, digests, workload-specific
    figures) printed above the result line.
    """

    metrics: dict[str, tuple[float, str]]
    checks: Checks
    notes: dict[str, object] = field(default_factory=dict)


def digest(payload) -> str:
    """Short content hash of a JSON-able payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_golden(
    workload: str, value: str, seed: int, golden: dict | None, checks: Checks
) -> None:
    """At :data:`DEFAULT_SEED`, compare a digest with the recorded one."""
    if golden is None or seed != DEFAULT_SEED:
        return
    expected = golden.get(workload)
    checks.check(
        f"{workload} golden digest",
        value == expected,
        f"got {value}, recorded {expected}",
    )


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (and, optionally, reaped children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def derive_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed for one input stream of a benchmark seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def make_flows(positions: np.ndarray, side: float, count: int, seed: int) -> list[CbrFlow]:
    """``count`` CBR flows whose lengths are stratified over the network.

    Each flow's source is drawn uniformly; its destination is the node
    at a stratified quantile of the source's torus distances, so every
    seed gets the same spread of short and long flows and only their
    placement varies.  Route-discovery cost grows with flow length, so
    this keeps the data-plane work comparable from seed to seed.
    """
    rng = np.random.default_rng(derive_seed(seed, 1))
    n_nodes = len(positions)
    flows: list[CbrFlow] = []
    for index in range(count):
        source = int(rng.integers(n_nodes))
        delta = np.abs(positions - positions[source])
        delta = np.minimum(delta, side - delta)
        order = np.argsort(np.hypot(delta[:, 0], delta[:, 1]), kind="stable")
        quantile = (index + rng.uniform()) / count
        destination = int(order[1 + int(quantile * (n_nodes - 1))])
        start = float(rng.uniform(0.0, FLOW_INTERVAL))
        flows.append(CbrFlow(source, destination, FLOW_INTERVAL, start))
    return flows


def sweep_fractions(scale: Scale, seed: int, index: int = 0) -> np.ndarray:
    """Velocity axis (fractions of the side) of sweep pass ``index``.

    Every point is jittered from the seed, differently for every pass,
    so a run's median averages over several draws of the inputs.
    """
    rng = np.random.default_rng(derive_seed(seed, 100 + index))
    axis = np.linspace(*SWEEP_AXIS, scale.sweep_points)
    return axis * (1.0 + SWEEP_JITTER * rng.uniform(-1.0, 1.0, len(axis)))


# ----------------------------------------------------------------------
# Program set-up
# ----------------------------------------------------------------------
@dataclass
class Stack:
    """One simulation with the protocols the benchmark reads back."""

    sim: Simulation
    maintenance: ClusterMaintenanceProtocol
    hybrid: HybridRoutingProtocol | None = None
    traffic: TrafficProtocol | None = None


def build_stack(
    n_nodes: int,
    seed: int,
    flows: int = 0,
    range_fraction: float = RANGE_FRACTION,
    velocity_fraction: float = VELOCITY_FRACTION,
) -> Stack:
    """Event HELLO + LID maintenance + intra-cluster routing.

    The same assembly as the sweep's per-seed run; with ``flows`` > 0
    the hybrid router and a CBR traffic protocol carrying that many
    flows (see :func:`make_flows`, seeded by ``seed``) ride on top.
    """
    params = NetworkParameters.from_fractions(
        n_nodes=n_nodes,
        range_fraction=range_fraction,
        velocity_fraction=velocity_fraction,
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, epoch=EPOCH), seed=seed
    )
    sim.attach(HelloProtocol(mode="event"))
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    intra = IntraClusterRoutingProtocol(maintenance)
    sim.attach(intra)
    sim.attach(maintenance)
    attach_run_health(sim, maintenance)
    attach_cluster_dynamics(sim, maintenance)
    stack = Stack(sim, maintenance)
    if flows:
        stack.hybrid = sim.attach(HybridRoutingProtocol(maintenance, intra))
        demand = make_flows(sim.positions, params.side, flows, seed)
        stack.traffic = sim.attach(
            TrafficProtocol(demand, HybridRouterAdapter(stack.hybrid))
        )
    attach_attribution(sim, maintenance)
    return stack


def stack_digest(stack: Stack) -> str:
    """Digest of message totals, cluster structure and traffic counts."""
    payload: dict = {
        "totals": {
            category: [totals.messages, totals.bits]
            for category, totals in sorted(stack.sim.stats.totals.items())
        },
        "head_ratio": stack.maintenance.head_ratio(),
        "clusters": stack.maintenance.cluster_count(),
    }
    if stack.traffic is not None:
        traffic = stack.traffic.traffic
        payload["traffic"] = [traffic.generated, traffic.delivered, traffic.dropped]
    return digest(payload)


def check_structure(stack: Stack, checks: Checks) -> None:
    """P1/P2 on an adjacency matrix built here from ``sim.edges``."""
    sim = stack.sim
    adjacency = np.zeros((sim.n_nodes, sim.n_nodes), dtype=bool)
    edges = sim.edges
    adjacency[edges[:, 0], edges[:, 1]] = True
    adjacency[edges[:, 1], edges[:, 0]] = True
    violations = check_properties(stack.maintenance.state, adjacency)
    checks.check("cluster P1/P2", violations.ok, violations.describe())


def check_traffic(stack: Stack, checks: Checks) -> None:
    """Every packet generated is delivered, dropped or still in flight."""
    if stack.traffic is None:
        return
    traffic = stack.traffic.traffic
    in_flight = stack.traffic.in_flight_count
    checks.check(
        "traffic conservation",
        traffic.generated == traffic.delivered + traffic.dropped + in_flight,
        f"generated {traffic.generated} != delivered {traffic.delivered} "
        f"+ dropped {traffic.dropped} + in flight {in_flight}",
    )


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
#: Median time of one :func:`calibration_kernel` call on the reference
#: machine (a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4).  The host's
#: speed drifts by tens of percent over seconds when other tenants load
#: it, so every timing is rescaled to the reference speed:
#: ``reported = raw * CALIBRATION_REFERENCE_S / local kernel time``,
#: with the kernel run right next to the timed work.
CALIBRATION_REFERENCE_S = 0.00045


def calibration_kernel() -> int:
    """A fixed mix of interpreter and numpy work (about 0.5 ms)."""
    table: dict[int, int] = {}
    for key in range(3000):
        table[key & 127] = table.get(key & 127, 0) + key
    values = np.arange(4000)
    for _ in range(10):
        values = np.flatnonzero((values * 7 + 3) % 11 > 4)
    return len(table) + len(values)


def kernel_seconds() -> float:
    start = perf_counter()
    calibration_kernel()
    return perf_counter() - start


def speed_factor() -> float:
    """Current slowdown against the reference (median of 25 kernels)."""
    times = [kernel_seconds() for _ in range(25)]
    return statistics.median(times) / CALIBRATION_REFERENCE_S


def local_factors(kernel_times: list[float], span: int = 9) -> np.ndarray:
    """Per-sample slowdown: rolling median of neighbouring kernel times."""
    times = np.asarray(kernel_times)
    span = min(span, len(times) | 1)
    padded = np.pad(times, span // 2, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, span)
    return np.median(windows, axis=1) / CALIBRATION_REFERENCE_S


def timed_at_reference(fn) -> tuple[float, object]:
    """``fn()``'s wall time rescaled to the reference speed, and its result."""
    factor = speed_factor()
    start = perf_counter()
    result = fn()
    return (perf_counter() - start) / factor, result


# ----------------------------------------------------------------------
# Measured windows
# ----------------------------------------------------------------------
@dataclass
class Window:
    """Per-step wall times of a measured window, raw and at reference speed."""

    raw: np.ndarray
    factors: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.raw)

    @property
    def times(self) -> np.ndarray:
        return self.raw / self.factors

    @property
    def steps_per_s(self) -> float:
        return self.steps / float(self.times.sum())

    @property
    def raw_steps_per_s(self) -> float:
        return self.steps / float(self.raw.sum())

    def metrics(self) -> dict:
        times_ms = self.times * 1e3
        return {
            "steps_per_s": (self.steps_per_s, "1/s"),
            "step_ms_p50": (float(np.percentile(times_ms, 50)), "ms"),
            "step_ms_p95": (float(np.percentile(times_ms, 95)), "ms"),
        }


def step_window(sim: Simulation, seconds: float) -> Window:
    """Step until ``seconds`` of wall time passed, calibrating after each step."""
    durations: list[float] = []
    kernels: list[float] = []
    deadline = perf_counter() + seconds
    while not durations or perf_counter() < deadline:
        before = perf_counter()
        sim.step()
        durations.append(perf_counter() - before)
        kernels.append(kernel_seconds())
    return Window(np.asarray(durations), local_factors(kernels))


@dataclass
class StackRun:
    """A stack after its measured window, with what was measured."""

    stack: Stack
    setup_s: float
    window: Window
    peak_rss_mb: float
    #: Digest of the first episode at the end of its warm-up steps.
    digest: str = ""
    trace_bytes: int = 0


class StackWorkload:
    """paper-stack, data-plane and jsonl-trace: one stack, stepped.

    ``run`` sets the stack up ``setup_repeats`` times (``setup_s`` is the
    median), runs ``warmup_steps`` steps, checks the golden digest and
    P1/P2, measures the window, then checks P1/P2, traffic conservation
    and — for jsonl-trace — trace reconciliation.  ``probe`` (see
    :mod:`probes`) is told when the window starts and ends.  With
    several ``episodes`` the window is split over that many scenarios,
    each seeded from the benchmark seed; the golden digest belongs to
    the first.
    """

    def __init__(self, name: str, scale: Scale, seed: int, workdir: Path) -> None:
        self.name = name
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.sim_seed = derive_seed(seed, 0)
        self.traced = name == "jsonl-trace"
        self.episodes = scale.data_episodes if name == "data-plane" else 1
        if name == "paper-stack":
            self.n_nodes, self.flows = scale.paper_nodes, 0
        elif name == "data-plane":
            self.n_nodes, self.flows = scale.data_nodes, scale.flows
        elif name == "jsonl-trace":
            self.n_nodes, self.flows = scale.trace_nodes, 0
        else:
            raise ValueError(f"not a stack workload: {name!r}")

    @property
    def trace_path(self) -> Path:
        return self.workdir / f"{self.name}.jsonl"

    def _setup(self, scope: ExitStack, sim_seed: int) -> Stack:
        if not self.traced:
            return build_stack(self.n_nodes, sim_seed, self.flows)
        tracer = scope.enter_context(JsonlTracer(self.trace_path))
        scope.enter_context(observe(tracer=tracer))
        return build_stack(self.n_nodes, sim_seed, self.flows)

    def run(
        self, seconds: float, checks: Checks, golden=None, probe=None, episodes: int = 1
    ) -> StackRun:
        runs = [
            self._episode(
                seconds / episodes,
                self.sim_seed if index == 0 else derive_seed(self.seed, 10 + index),
                checks,
                golden if index == 0 else None,
                probe,
            )
            for index in range(episodes)
        ]
        if len(runs) == 1:
            return runs[0]
        return StackRun(
            runs[-1].stack,
            statistics.median(run.setup_s for run in runs),
            Window(
                np.concatenate([run.window.raw for run in runs]),
                np.concatenate([run.window.factors for run in runs]),
            ),
            max(run.peak_rss_mb for run in runs),
            runs[0].digest,
        )

    def _episode(self, seconds, sim_seed, checks, golden, probe) -> StackRun:
        setups: list[float] = []
        with ExitStack() as scope:
            for _ in range(self.scale.setup_repeats):
                scope.close()
                seconds_taken, stack = timed_at_reference(
                    lambda: self._setup(scope, sim_seed)
                )
                setups.append(seconds_taken)
            sim = stack.sim
            if probe is not None:
                probe.on_setup(stack)
            # Nominal window: the real one is bounded by wall time.
            sim.trace_run_begin(duration=float(seconds), warmup=0.0)
            sim.stats.start_measuring()
            for _ in range(self.scale.warmup_steps):
                sim.step()
            warm_digest = stack_digest(stack)
            check_golden(self.name, warm_digest, self.seed, golden, checks)
            check_structure(stack, checks)
            if probe is not None:
                probe.begin_window(stack)
            window = step_window(sim, seconds)
            if probe is not None:
                probe.end_window(stack)
            rss = peak_rss_mb()
            sim.stats.stop_measuring()
            sim.notify_run_end()
            sim.trace_run_end()
        checks.check("measured run", True)
        check_structure(stack, checks)
        check_traffic(stack, checks)
        run = StackRun(stack, statistics.median(setups), window, rss, warm_digest)
        if self.traced:
            run.trace_bytes = self.trace_path.stat().st_size
            self._check_trace(stack, checks)
            self.trace_path.unlink()
        return run

    def _check_trace(self, stack: Stack, checks: Checks) -> None:
        summary = summarize_trace(self.trace_path)
        checks.check(
            "trace reconciles", summary.reconciles(), "; ".join(summary.mismatches())
        )
        stats = {c: t.messages for c, t in stack.sim.stats.totals.items()}
        ledger = stack.sim.attribution
        attributed = (
            {} if ledger is None
            else {c: int(t.messages) for c, t in ledger.totals.items()}
        )
        checks.check(
            "attribution totals equal message totals",
            attributed == stats,
            f"ledger {attributed} vs stats {stats}",
        )
        checks.check(
            "trace totals equal message totals",
            summary.messages == stats,
            f"trace {summary.messages} vs stats {stats}",
        )

    def measure(self, seconds: float, golden=None) -> Outcome:
        checks = Checks()
        run = self.run(seconds, checks, golden, episodes=self.episodes)
        metrics = run.window.metrics()
        metrics["setup_s"] = (run.setup_s, "s")
        metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB")
        steps = run.window.steps
        notes: dict[str, object] = {
            "nodes": self.n_nodes,
            "episodes": self.episodes,
            "step_samples": steps,
            "raw_steps_per_s": run.window.raw_steps_per_s,
            "speed_factor": float(np.median(run.window.factors)),
            "digest": run.digest,
        }
        if self.traced:
            total_steps = steps + self.scale.warmup_steps
            notes["trace_bytes_per_step"] = run.trace_bytes / total_steps
        return Outcome(metrics, checks, notes)


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _kernel_median(_task) -> float:
    """Worker task: median time of 40 calibration kernels."""
    return statistics.median(kernel_seconds() for _ in range(40))


def stop_workers() -> None:
    """Shut the sweep's shared worker pool down and wait for its processes."""
    discard = getattr(parallel, "_discard_pool", None)
    if discard is not None:
        discard()
    for child in multiprocessing.active_children():
        child.join(timeout=60)


@dataclass
class SweepPass:
    """One cold sweep on a fresh store, then a warm rerun on that store.

    Walls are raw; ``factor`` is the worker pool's slowdown against the
    reference speed, measured right before and after the pass.
    """

    cold_wall: float
    warm_wall: float
    factor: float
    #: Steps the pass's tasks simulate in total.
    steps: int
    #: Wall ms per simulated step of every sweep point (its tasks' summed
    #: wall time over their summed steps), from the store's records.
    point_ms: list[float]
    records_written: int
    warm_hits: int
    result: dict


class SweepWorkload:
    """``run_sweep("velocity")`` over the Figure-2 axis, cold then warm."""

    name = "sweep"

    def __init__(self, scale: Scale, seed: int, workdir: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.jobs = min(2, os.cpu_count() or 1)
        self.base = NetworkParameters.from_fractions(
            n_nodes=scale.sweep_nodes,
            range_fraction=SWEEP_RANGE_FRACTION,
            velocity_fraction=VELOCITY_FRACTION,
        )
        self.tasks = scale.sweep_points * scale.sweep_seeds

    def values(self, index: int) -> np.ndarray:
        """Absolute velocities of pass ``index``."""
        return sweep_fractions(self.scale, self.seed, index) * self.base.side

    def _steps(self, velocity: float) -> int:
        """Steps one per-seed run of the sweep simulates at ``velocity``."""
        dt = recommended_step(self.base.tx_range, velocity)
        warmup = int(round(self.scale.sweep_warmup / dt))
        return warmup + max(1, int(round(self.scale.sweep_duration / dt)))

    def total_steps(self, values) -> int:
        return self.scale.sweep_seeds * sum(self._steps(v) for v in values)

    def _build_points(self) -> None:
        for fraction in sweep_fractions(self.scale, self.seed):
            build_stack(
                self.scale.sweep_nodes,
                0,
                range_fraction=SWEEP_RANGE_FRACTION,
                velocity_fraction=float(fraction),
            )

    def setup_s(self) -> float:
        """Median time to build every sweep point's stack in process.

        This is the set-up each per-seed run performs before its first
        step (``Simulation`` construction through every attach).
        """
        return statistics.median(
            timed_at_reference(self._build_points)[0]
            for _ in range(self.scale.setup_repeats)
        )

    def _sweep(self, values, store: ResultStore):
        return run_sweep(
            "velocity",
            self.base,
            values,
            seeds=self.scale.sweep_seeds,
            duration=self.scale.sweep_duration,
            warmup=self.scale.sweep_warmup,
            jobs=self.jobs,
            store=store,
        )

    def start_workers(self) -> None:
        self.worker_factor()

    def worker_factor(self) -> float:
        """Slowdown of the worker pool, every worker calibrating at once.

        The sweep's work runs in the pool, so its speed is calibrated
        there, under the same all-workers-busy load, not in this process.
        """
        times = run_tasks(_kernel_median, range(2 * self.jobs), jobs=self.jobs)
        return statistics.median(times) / CALIBRATION_REFERENCE_S

    def one_pass(self, index: int, checks: Checks, golden=None, probe=None) -> SweepPass:
        root = self.workdir / f"store-{index}"
        store = ResultStore(root)
        values = self.values(index)
        factor_before = self.worker_factor()
        if probe is not None:
            probe.begin_pass("cold")
        start = perf_counter()
        cold = self._sweep(values, store)
        cold_wall = perf_counter() - start
        if probe is not None:
            probe.end_pass("cold", cold_wall)
        written = store.writes
        hits_before = store.hits
        if probe is not None:
            probe.begin_pass("warm")
        start = perf_counter()
        warm = self._sweep(values, store)
        warm_wall = perf_counter() - start
        if probe is not None:
            probe.end_pass("warm", warm_wall)
        factor = (factor_before + self.worker_factor()) / 2.0
        points: dict[float, list[float]] = {}
        for path in store.iter_record_paths():
            record = store.load_record(path)
            velocity = record["fingerprint"]["task"][0]["velocity"]
            totals = points.setdefault(velocity, [0.0, 0])
            totals[0] += record["elapsed"] * 1e3
            totals[1] += self._steps(velocity)
        point_ms = [ms / steps for ms, steps in points.values()]
        tasks_read = sum(steps for _, steps in points.values())
        shutil.rmtree(root)
        result = cold.to_dict()
        warm_hits = store.hits - hits_before
        checks.check("cold sweep", True)
        checks.check("warm sweep", True)
        checks.check("warm rerun equals cold sweep", warm.to_dict() == result)
        checks.check(
            "cold sweep writes every task",
            written == self.tasks and tasks_read == self.total_steps(values),
            f"{written} writes for {self.tasks} tasks",
        )
        checks.check(
            "warm rerun hits every task",
            warm_hits == self.tasks,
            f"{warm_hits} hits for {self.tasks} tasks",
        )
        if index == 0:
            check_golden(self.name, digest(result), self.seed, golden, checks)
        return SweepPass(
            cold_wall,
            warm_wall,
            factor,
            self.total_steps(values),
            point_ms,
            written,
            warm_hits,
            result,
        )

    def passes(self, seconds: float, checks: Checks, golden=None, probe=None) -> list[SweepPass]:
        done: list[SweepPass] = []
        deadline = perf_counter() + seconds
        while not done or perf_counter() < deadline:
            done.append(self.one_pass(len(done), checks, golden, probe))
        return done

    @staticmethod
    def steps_per_s(done: list[SweepPass]) -> float:
        """Median over passes of simulated steps per cold-sweep second."""
        return statistics.median(p.steps * p.factor / p.cold_wall for p in done)

    def measure(self, seconds: float, golden=None) -> Outcome:
        checks = Checks()
        setup_s = self.setup_s()
        try:
            self.start_workers()
            done = self.passes(seconds, checks, golden)
        finally:
            stop_workers()
        # A point's step time is its tasks' wall time (set-up included)
        # over their steps; percentiles are over the points of a pass,
        # and the median over passes is reported.
        def percentile(q: float) -> float:
            return statistics.median(
                float(np.percentile([ms / p.factor for ms in p.point_ms], q))
                for p in done
            )

        metrics = {
            "steps_per_s": (self.steps_per_s(done), "1/s"),
            "step_ms_p50": (percentile(50), "ms"),
            "step_ms_p95": (percentile(95), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(children=True), "MB"),
        }
        notes = {
            "sweep_wall_s": statistics.median(p.cold_wall / p.factor for p in done),
            "raw_sweep_wall_s": statistics.median(p.cold_wall for p in done),
            "raw_steps_per_s": statistics.median(p.steps / p.cold_wall for p in done),
            "warm_rerun_s": statistics.median(p.warm_wall / p.factor for p in done),
            "passes": len(done),
            "tasks_per_pass": self.tasks,
            "steps_per_pass": statistics.median(p.steps for p in done),
            "step_samples": sum(len(p.point_ms) for p in done),
            "jobs": self.jobs,
            "speed_factor": statistics.median(p.factor for p in done),
            "digest": digest(done[0].result),
        }
        return Outcome(metrics, checks, notes)


def make_workload(name: str, scale: Scale, seed: int, workdir: Path):
    if name == "sweep":
        return SweepWorkload(scale, seed, workdir)
    return StackWorkload(name, scale, seed, workdir)


def load_golden(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["digests"]
