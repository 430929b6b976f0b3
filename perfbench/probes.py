"""The traced run: per-layer timers and counters around the program.

The benchmark wraps public functions and protocol hooks of each layer
from the outside (the program is not edited) with a :class:`Tracker`
that keeps, per name, the call count, total time and *self* time (total
minus the time of wrapped calls nested inside).  ``Simulation.step`` is
the root of the nesting, so its self time is what no wrapped layer
accounts for.

A traced run first measures the workload untraced for a third of
``--seconds`` (the baseline of ``bench.trace_overhead``), then installs
the wrappers and measures it again for the rest.  Two cross-checks
count towards the result's ``failed``/``attempted``:

* coverage — the wrapped layers must account for at least
  :data:`COVERAGE_MIN` of ``Simulation.step`` wall time (for the sweep:
  ``measure_point`` calls of the cold sweep's wall time);
* agreement — per protocol, the wrapper total plus the calibrated
  wrapper overhead per call must match the program's own
  ``protocol:<name>`` phase from ``Simulation.timing_report()`` within
  :data:`AGREEMENT_MAX` of the phase, plus half the estimated overhead
  (the calibration is only an estimate, and for near-free hooks such as
  the attribution ledger's the overhead is most of the phase); and the
  wrappers must count exactly the hook calls the engine makes
  (``on_step_begin`` and ``on_step_end`` per step, one link hook per
  link event).  A hook the wrappers miss fails these checks.

:data:`LAYER_METRICS` lists every per-layer metric with the layer it
measures, the end-to-end metric it should move and the workload on
which it should move it.  Metrics of layers a workload does not
exercise read 0.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import repro.analysis.sweep as sweep_module
import repro.routing.hybrid as hybrid_module
import repro.sim.engine as engine_module
from repro.mobility import EpochRandomWaypointModel
from repro.obs.context import observe
from repro.obs.spans import SpanTracker
from repro.obs.timing import PhaseTimer
from repro.routing import HybridRoutingProtocol, IntraClusterRoutingProtocol
from repro.sim import Simulation
from repro.sim.stats import MessageStats
from repro.sim.traffic import TrafficProtocol
from repro.spatial import IncrementalConnectivityEngine

from workloads import Checks, Outcome, SweepWorkload, stop_workers

#: Share of ``--seconds`` measured untraced before the traced window.
UNTRACED_SHARE = 1.0 / 3.0
#: Wrapped layers must account for at least this share of step wall time.
COVERAGE_MIN = 0.6
#: Largest relative gap between a protocol's wrapper total (plus the
#: calibrated wrapper overhead) and its ``protocol:<name>`` phase.
AGREEMENT_MAX = 0.25

#: ``(name, unit, layer, end-to-end metric it moves, workload)``.
LAYER_METRICS = (
    ("mobility.advance_ms", "ms", "mobility", "steps_per_s", "paper-stack"),
    ("spatial.connectivity_ms", "ms", "spatial", "steps_per_s", "paper-stack"),
    ("spatial.link_diff_ms", "ms", "spatial", "steps_per_s", "paper-stack"),
    ("spatial.link_events_per_step", "count", "spatial", "steps_per_s", "paper-stack"),
    ("spatial.full_rebuild_ratio", "ratio", "spatial", "steps_per_s", "paper-stack"),
    ("sim.engine.step_self_ms", "ms", "sim.engine", "steps_per_s", "paper-stack"),
    ("sim.engine.hook_calls_per_step", "count", "sim.engine", "steps_per_s", "paper-stack"),
    ("sim.engine.us_per_link_event", "us", "sim.engine", "steps_per_s", "paper-stack"),
    ("sim.engine.neighbor_queries_per_step", "count", "sim.engine", "steps_per_s", "paper-stack,data-plane"),
    ("sim.engine.neighbor_query_us", "us", "sim.engine", "steps_per_s", "paper-stack,data-plane"),
    ("sim.engine.adjacency_builds_per_step", "count", "sim.engine", "peak_rss_mb,steps_per_s", "paper-stack,data-plane"),
    ("sim.beacon.busy_ms", "ms", "sim.beacon", "steps_per_s", "paper-stack"),
    ("sim.beacon.hello_msgs_per_step", "count", "sim.beacon", "steps_per_s", "paper-stack"),
    ("clustering.maintenance.busy_ms", "ms", "clustering", "steps_per_s", "paper-stack"),
    ("clustering.maintenance.event_us", "us", "clustering", "steps_per_s", "paper-stack"),
    ("clustering.maintenance.repair_ratio", "ratio", "clustering", "steps_per_s", "paper-stack"),
    ("clustering.maintenance.cluster_msgs_per_step", "count", "clustering", "steps_per_s", "paper-stack"),
    ("clustering.form_ms", "ms", "clustering", "setup_s", "paper-stack"),
    ("routing.intra.busy_ms", "ms", "routing", "steps_per_s", "paper-stack"),
    ("routing.intra.route_msgs_per_step", "count", "routing", "steps_per_s", "paper-stack"),
    ("routing.hybrid.route_us_p50", "us", "routing", "steps_per_s", "data-plane"),
    ("routing.hybrid.route_us_p95", "us", "routing", "steps_per_s", "data-plane"),
    ("routing.hybrid.routes_per_step", "count", "routing", "steps_per_s", "data-plane"),
    ("routing.hybrid.cache_hit_ratio", "ratio", "routing", "steps_per_s", "data-plane"),
    ("routing.inter.discover_ms", "ms", "routing", "steps_per_s", "data-plane"),
    ("routing.intra.path_us", "us", "routing", "steps_per_s", "data-plane"),
    ("routing.hybrid.invalidate_ms", "ms", "routing", "steps_per_s", "data-plane"),
    ("sim.traffic.self_ms", "ms", "sim.traffic", "steps_per_s", "data-plane"),
    ("sim.traffic.packets_forwarded_per_step", "count", "sim.traffic", "steps_per_s", "data-plane"),
    ("sim.stats.records_per_step", "count", "sim.stats", "steps_per_s", "paper-stack,data-plane,jsonl-trace"),
    ("sim.stats.record_us", "us", "sim.stats", "steps_per_s", "paper-stack,data-plane,jsonl-trace"),
    ("obs.tracer.events_per_step", "count", "obs", "steps_per_s", "jsonl-trace"),
    ("obs.tracer.emit_us", "us", "obs", "steps_per_s", "jsonl-trace"),
    ("obs.tracer.busy_ms", "ms", "obs", "steps_per_s", "jsonl-trace"),
    ("obs.tracer.bytes_per_step", "B", "obs", "steps_per_s", "jsonl-trace"),
    ("obs.spans.starts_per_step", "count", "obs", "steps_per_s", "jsonl-trace"),
    ("obs.collectors.busy_ms", "ms", "obs", "steps_per_s", "jsonl-trace"),
    ("analysis.parallel.worker_busy_s", "s", "analysis.parallel", "steps_per_s", "sweep"),
    ("analysis.parallel.utilisation", "ratio", "analysis.parallel", "steps_per_s", "sweep"),
    ("analysis.parallel.point_s", "s", "analysis.parallel", "steps_per_s", "sweep"),
    ("analysis.sweep.cold_wall_s", "s", "analysis.sweep", "steps_per_s", "sweep"),
    ("store.records_written", "count", "store", "steps_per_s", "sweep"),
    ("store.warm_rerun_s", "s", "store", "steps_per_s", "sweep"),
    ("store.warm_hit_ratio", "ratio", "store", "steps_per_s", "sweep"),
    ("bench.traced_steps_per_s", "1/s", "benchmark", "steps_per_s", "all"),
    ("bench.trace_overhead", "ratio", "benchmark", "steps_per_s", "all"),
    ("bench.step_coverage", "ratio", "benchmark", "steps_per_s", "all"),
    ("bench.hook_agreement_err", "ratio", "benchmark", "steps_per_s", "paper-stack,data-plane,jsonl-trace"),
)

#: Protocols of the measured stack, by their ``name``; hooks of any
#: other attached protocol (attribution ledger, cluster-dynamics
#: collector, run-health monitors) count as ``obs`` collectors.
STACK_PROTOCOLS = frozenset(
    ("hello", "cluster-maintenance", "intra-cluster-routing", "hybrid-routing", "traffic")
)
STEP_HOOKS = ("on_step_begin", "on_link_up", "on_link_down", "on_step_end")
HOOKS = STEP_HOOKS + ("on_attach",)


class Tracker:
    """Call count, total and self time per wrapped name."""

    def __init__(self) -> None:
        #: Child-time accumulators of the wrapped calls in progress.
        self._stack: list[float] = [0.0]
        #: ``name -> [calls, total seconds, self seconds]``
        self.records: dict[str, list] = {}
        #: ``name -> per-call seconds`` for names wrapped with samples.
        self.samples: dict[str, list[float]] = {}
        #: Free-form counters fed by ``on_result`` callbacks.
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn, keep_samples: bool = False, on_result=None):
        record = self.records.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.setdefault(name, []) if keep_samples else None
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
                if samples is not None:
                    samples.append(elapsed)
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self) -> None:
        """Zero every record in place (wrappers keep their references)."""
        for record in self.records.values():
            record[:] = [0, 0.0, 0.0]
        for samples in self.samples.values():
            samples.clear()
        self.counts.clear()
        self._stack[:] = [0.0]

    def snapshot(self) -> dict:
        return {
            "records": {name: list(r) for name, r in self.records.items()},
            "samples": {name: list(s) for name, s in self.samples.items()},
            "counts": dict(self.counts),
        }

    def instrument_protocol(self, protocol) -> None:
        """Wrap an attached protocol's hooks (and its read-side calls)."""
        name = protocol.name
        for hook in HOOKS:
            if hasattr(protocol, hook):
                setattr(
                    protocol,
                    hook,
                    self.wrap(f"hook:{name}:{hook}", getattr(protocol, hook)),
                )
        if isinstance(protocol, HybridRoutingProtocol):
            protocol.route = self.wrap(
                "routing.hybrid.route", protocol.route, keep_samples=True
            )
        if isinstance(protocol, IntraClusterRoutingProtocol):
            protocol.path = self.wrap("routing.intra.path", protocol.path)
        if isinstance(protocol, TrafficProtocol):
            router = protocol.router
            router.next_hop = self.wrap("sim.traffic.next_hop", router.next_hop)


@contextmanager
def patched(targets):
    """Replace ``(owner, attribute, replacement)`` for the ``with`` body."""
    saved = []
    try:
        for owner, attribute, replacement in targets:
            own = attribute in vars(owner)
            saved.append((owner, attribute, vars(owner).get(attribute), own))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original, own in reversed(saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def stack_targets(tracker: Tracker) -> list:
    """Everything the stack workloads' traced run wraps."""
    wrap = tracker.wrap

    def on_step(events) -> None:
        tracker.count("link_events", events.generation_count + events.break_count)

    def on_incremental(result) -> None:
        tracker.count("connectivity_rebuilds", int(result.rebuilt))

    def on_full(_edges) -> None:
        tracker.count("connectivity_rebuilds")

    original_attach = Simulation.attach

    def attach(sim, protocol):
        tracker.instrument_protocol(protocol)
        return original_attach(sim, protocol)

    query = "sim.engine.neighbor_query"
    return [
        (Simulation, "step", wrap("sim.engine.step", Simulation.step, on_result=on_step)),
        (Simulation, "attach", attach),
        (Simulation, "neighbors_of", wrap(query, Simulation.neighbors_of)),
        (Simulation, "has_link", wrap(query, Simulation.has_link)),
        (Simulation, "degree_of", wrap(query, Simulation.degree_of)),
        (
            engine_module,
            "edges_to_adjacency",
            wrap("sim.engine.adjacency_build", engine_module.edges_to_adjacency),
        ),
        (
            engine_module,
            "compute_edges",
            wrap("spatial.connectivity", engine_module.compute_edges, on_result=on_full),
        ),
        (
            IncrementalConnectivityEngine,
            "step",
            wrap(
                "spatial.connectivity",
                IncrementalConnectivityEngine.step,
                on_result=on_incremental,
            ),
        ),
        (
            engine_module,
            "diff_edge_sets",
            wrap("spatial.link_diff", engine_module.diff_edge_sets),
        ),
        (
            EpochRandomWaypointModel,
            "advance",
            wrap("mobility.advance", EpochRandomWaypointModel.advance),
        ),
        (MessageStats, "record", wrap("sim.stats.record", MessageStats.record)),
        (
            hybrid_module,
            "discover_route",
            wrap("routing.inter.discover", hybrid_module.discover_route),
        ),
        (SpanTracker, "start", wrap("obs.spans.start", SpanTracker.start)),
        (SpanTracker, "start_lazy", wrap("obs.spans.start", SpanTracker.start_lazy)),
    ]


def wrapper_overhead(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one hook call, as the engine times it."""

    def hook(sim, u, v, time):
        return None

    wrapped = Tracker().wrap("calibration", hook)
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            hook(None, 1, 2, 0.0)
        bare = perf_counter()
        for _ in range(calls):
            wrapped(None, 1, 2, 0.0)
        best = min(best, ((perf_counter() - bare) - (bare - start)) / calls)
    return max(best, 0.0)


# ----------------------------------------------------------------------
# Stack workloads
# ----------------------------------------------------------------------
def _program_counters(stack) -> dict:
    sim = stack.sim
    counters = {
        "messages": {c: t.messages for c, t in sim.stats.totals.items()},
        "phases": {p.phase: p.seconds for p in sim.timing_report().phases},
        "reaffiliations": stack.maintenance.reaffiliations_total,
    }
    if stack.hybrid is not None:
        counters["cache_hits"] = stack.hybrid.cache_hits
        counters["discoveries"] = stack.hybrid.discoveries
    return counters


class StackProbe:
    """Snapshots the tracker and the program's counters around the window."""

    def __init__(self, tracker: Tracker) -> None:
        self.tracker = tracker
        self.form = [0, 0.0, 0.0]
        self.before: dict = {}
        self.after: dict = {}
        self.window: dict = {}

    def on_setup(self, stack) -> None:
        tracer = stack.sim.tracer
        if tracer.enabled:
            tracer.emit = self.tracker.wrap("obs.tracer.emit", tracer.emit)

    def begin_window(self, stack) -> None:
        self.form = list(
            self.tracker.records.get("hook:cluster-maintenance:on_attach", self.form)
        )
        self.tracker.reset()
        self.before = _program_counters(stack)

    def end_window(self, stack) -> None:
        self.window = self.tracker.snapshot()
        self.after = _program_counters(stack)

    def _delta(self, key: str, category: str | None = None) -> float:
        if category is not None:
            return self.after[key].get(category, 0) - self.before[key].get(category, 0)
        return self.after.get(key, 0) - self.before.get(key, 0)

    def layer_values(self, overhead: float) -> tuple[dict, dict]:
        """Per-layer values and the cross-check figures of the window."""
        records = self.window["records"]
        counts = self.window["counts"]

        def calls(name):
            return records.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return records.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return records.get(name, [0, 0.0, 0.0])[2]

        def per_call(seconds, count, scale):
            return seconds * scale / count if count else 0.0

        def hooks(protocol, which=STEP_HOOKS):
            names = [f"hook:{protocol}:{hook}" for hook in which]
            return (
                sum(calls(n) for n in names),
                sum(total(n) for n in names),
                sum(own(n) for n in names),
            )

        steps = calls("sim.engine.step")
        events = counts.get("link_events", 0)
        ms = 1e3 / steps
        route_samples = np.asarray(self.window["samples"].get("routing.hybrid.route", []))
        protocols = {
            name.split(":")[1] for name in records if name.startswith("hook:")
        }
        collectors = [p for p in protocols if p not in STACK_PROTOCOLS]
        hook_calls = sum(hooks(p)[0] for p in protocols)
        link_hooks = ("on_link_up", "on_link_down")
        maintenance_events = hooks("cluster-maintenance", link_hooks)
        hits = self._delta("cache_hits")
        lookups = hits + self._delta("discoveries")
        spatial = total("spatial.connectivity") + total("spatial.link_diff")
        values = {
            "mobility.advance_ms": total("mobility.advance") * ms,
            "spatial.connectivity_ms": total("spatial.connectivity") * ms,
            "spatial.link_diff_ms": total("spatial.link_diff") * ms,
            "spatial.link_events_per_step": events / steps,
            "spatial.full_rebuild_ratio": (
                counts.get("connectivity_rebuilds", 0) / calls("spatial.connectivity")
                if calls("spatial.connectivity")
                else 0.0
            ),
            "sim.engine.step_self_ms": own("sim.engine.step") * ms,
            "sim.engine.hook_calls_per_step": hook_calls / steps,
            "sim.engine.us_per_link_event": per_call(
                total("sim.engine.step") - total("mobility.advance") - spatial,
                events,
                1e6,
            ),
            "sim.engine.neighbor_queries_per_step": calls("sim.engine.neighbor_query") / steps,
            "sim.engine.neighbor_query_us": per_call(
                own("sim.engine.neighbor_query"), calls("sim.engine.neighbor_query"), 1e6
            ),
            "sim.engine.adjacency_builds_per_step": calls("sim.engine.adjacency_build") / steps,
            "sim.beacon.busy_ms": hooks("hello")[1] * ms,
            "sim.beacon.hello_msgs_per_step": self._delta("messages", "hello") / steps,
            "clustering.maintenance.busy_ms": hooks("cluster-maintenance")[1] * ms,
            "clustering.maintenance.event_us": per_call(
                maintenance_events[1], maintenance_events[0], 1e6
            ),
            "clustering.maintenance.repair_ratio": (
                self._delta("reaffiliations") / events if events else 0.0
            ),
            "clustering.maintenance.cluster_msgs_per_step": (
                self._delta("messages", "cluster") / steps
            ),
            "clustering.form_ms": per_call(self.form[1], self.form[0], 1e3),
            "routing.intra.busy_ms": hooks("intra-cluster-routing")[1] * ms,
            "routing.intra.route_msgs_per_step": self._delta("messages", "route") / steps,
            "routing.hybrid.route_us_p50": (
                float(np.percentile(route_samples, 50)) * 1e6 if route_samples.size else 0.0
            ),
            "routing.hybrid.route_us_p95": (
                float(np.percentile(route_samples, 95)) * 1e6 if route_samples.size else 0.0
            ),
            "routing.hybrid.routes_per_step": calls("routing.hybrid.route") / steps,
            "routing.hybrid.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "routing.inter.discover_ms": per_call(
                total("routing.inter.discover"), calls("routing.inter.discover"), 1e3
            ),
            "routing.intra.path_us": per_call(
                total("routing.intra.path"), calls("routing.intra.path"), 1e6
            ),
            "routing.hybrid.invalidate_ms": total("hook:hybrid-routing:on_link_down") * ms,
            "sim.traffic.self_ms": hooks("traffic")[2] * ms,
            "sim.traffic.packets_forwarded_per_step": calls("sim.traffic.next_hop") / steps,
            "sim.stats.records_per_step": calls("sim.stats.record") / steps,
            "sim.stats.record_us": per_call(
                own("sim.stats.record"), calls("sim.stats.record"), 1e6
            ),
            "obs.tracer.events_per_step": calls("obs.tracer.emit") / steps,
            "obs.tracer.emit_us": per_call(
                total("obs.tracer.emit"), calls("obs.tracer.emit"), 1e6
            ),
            "obs.tracer.busy_ms": total("obs.tracer.emit") * ms,
            "obs.spans.starts_per_step": calls("obs.spans.start") / steps,
            "obs.collectors.busy_ms": sum(hooks(p)[1] for p in collectors) * ms,
        }
        step_total = total("sim.engine.step")
        coverage = 1.0 - own("sim.engine.step") / step_total if step_total else 0.0
        agreement = {}
        for protocol in sorted(protocols):
            engine = self._delta("phases", f"protocol:{protocol}")
            count, seconds, _ = hooks(protocol)
            gap = abs(engine - (seconds + count * overhead))
            agreement[protocol] = {
                "error": gap / engine if engine else 0.0,
                "ok": gap <= AGREEMENT_MAX * engine + 0.5 * count * overhead,
                "calls": count,
                "expected_calls": 2 * steps + events,
            }
        return values, {"coverage": coverage, "agreement": agreement}


def _traced_stack(bench, seconds: float, golden) -> Outcome:
    checks = Checks()
    untraced = bench.run(seconds * UNTRACED_SHARE, checks, golden)
    untraced_rate = untraced.window.steps_per_s
    overhead = wrapper_overhead()
    tracker = Tracker()
    probe = StackProbe(tracker)
    with patched(stack_targets(tracker)):
        traced = bench.run(seconds * (1.0 - UNTRACED_SHARE), checks, golden, probe)
    values, cross = probe.layer_values(overhead)
    steps = traced.window.steps
    traced_rate = traced.window.steps_per_s
    if traced.trace_bytes:
        values["obs.tracer.bytes_per_step"] = traced.trace_bytes / (
            steps + bench.scale.warmup_steps
        )
    values["bench.traced_steps_per_s"] = traced_rate
    values["bench.trace_overhead"] = untraced_rate / traced_rate
    values["bench.step_coverage"] = cross["coverage"]
    agreement = cross["agreement"]
    values["bench.hook_agreement_err"] = max(
        (entry["error"] for entry in agreement.values()), default=0.0
    )
    checks.check(
        "wrapped layers cover Simulation.step",
        cross["coverage"] >= COVERAGE_MIN,
        f"coverage {cross['coverage']:.3f} < {COVERAGE_MIN}",
    )
    for protocol, entry in sorted(agreement.items()):
        checks.check(
            f"wrappers agree with protocol:{protocol}",
            entry["ok"],
            f"relative gap {entry['error']:.3f}",
        )
        checks.check(
            f"wrappers see every protocol:{protocol} hook call",
            entry["calls"] == entry["expected_calls"],
            f"{entry['calls']} calls, engine made {entry['expected_calls']}",
        )
    notes = {
        "untraced_steps_per_s": untraced_rate,
        "traced_step_samples": steps,
        "wrapper_overhead_us": overhead * 1e6,
        "hook_agreement": {p: round(e["error"], 4) for p, e in agreement.items()},
    }
    return _outcome(values, checks, notes)


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------
class SweepProbe:
    """Per-pass wall, merged worker phases and ``measure_point`` calls."""

    def __init__(self, tracker: Tracker, timer: PhaseTimer) -> None:
        self.tracker = tracker
        self.timer = timer
        self.cold: list[dict] = []
        self._busy = 0.0

    def begin_pass(self, kind: str) -> None:
        self.tracker.reset()
        self._busy = self.timer.report().total_seconds

    def end_pass(self, kind: str, wall: float) -> None:
        if kind != "cold":
            return
        calls, seconds, _ = self.tracker.records["analysis.sweep.measure_point"]
        self.cold.append(
            {
                "wall": wall,
                "busy": self.timer.report().total_seconds - self._busy,
                "points": calls,
                "point_seconds": seconds,
            }
        )


def _traced_sweep(bench: SweepWorkload, seconds: float, golden) -> Outcome:
    checks = Checks()
    tracker = Tracker()
    timer = PhaseTimer()
    probe = SweepProbe(tracker, timer)
    point = tracker.wrap("analysis.sweep.measure_point", sweep_module.measure_point)
    try:
        bench.start_workers()
        untraced = bench.passes(seconds * UNTRACED_SHARE, checks, golden)
        with patched([(sweep_module, "measure_point", point)]), observe(timer=timer):
            traced = bench.passes(
                seconds * (1.0 - UNTRACED_SHARE), checks, golden, probe
            )
    finally:
        stop_workers()
    untraced_rate = bench.steps_per_s(untraced)
    traced_rate = bench.steps_per_s(traced)
    busy = statistics.median(p["busy"] for p in probe.cold)
    coverage = statistics.median(p["point_seconds"] / p["wall"] for p in probe.cold)
    utilisation = statistics.median(
        p["busy"] / (bench.jobs * p["wall"]) for p in probe.cold
    )
    values = {
        "analysis.parallel.worker_busy_s": busy,
        "analysis.parallel.utilisation": utilisation,
        "analysis.parallel.point_s": statistics.median(
            p["point_seconds"] / p["points"] for p in probe.cold
        ),
        "analysis.sweep.cold_wall_s": statistics.median(
            p.cold_wall / p.factor for p in traced
        ),
        "store.records_written": statistics.median(p.records_written for p in traced),
        "store.warm_rerun_s": statistics.median(p.warm_wall / p.factor for p in traced),
        "store.warm_hit_ratio": statistics.median(
            p.warm_hits / bench.tasks for p in traced
        ),
        "bench.traced_steps_per_s": traced_rate,
        "bench.trace_overhead": untraced_rate / traced_rate,
        "bench.step_coverage": coverage,
    }
    checks.check(
        "measure_point calls cover the cold sweep",
        coverage >= COVERAGE_MIN,
        f"coverage {coverage:.3f} < {COVERAGE_MIN}",
    )
    checks.check(
        "merged worker phases fit the pool",
        0.0 < utilisation <= 1.0,
        f"utilisation {utilisation:.3f}",
    )
    notes = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    return _outcome(values, checks, notes)


def _outcome(values: dict, checks: Checks, notes: dict) -> Outcome:
    metrics = {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit, *_ in LAYER_METRICS
    }
    return Outcome(metrics, checks, notes)


def measure_traced(bench, seconds: float, golden=None) -> Outcome:
    """The traced run of any workload: per-layer metrics and cross-checks."""
    if isinstance(bench, SweepWorkload):
        return _traced_sweep(bench, seconds, golden)
    return _traced_stack(bench, seconds, golden)
