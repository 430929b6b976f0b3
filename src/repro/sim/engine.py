"""Time-stepped MANET simulation kernel.

The paper validated its analysis with GloMoSim; this kernel is the
Python substitute (see DESIGN.md, substitutions).  It advances a
mobility model in fixed steps and keeps the exact unit-disk
connectivity after every step as a sorted **edge set** (an ``(E, 2)``
pair array — ``O(E)`` state instead of an ``O(N^2)`` matrix).  One
connectivity path produces it: the temporal-coherence engine
(:class:`~repro.spatial.IncrementalConnectivityEngine`), whose status
flips are the step's link generation/break events; its full validations
return exact events too.  Only while a radio is failed on either side
of a step are the (masked) edge sets diffed instead
(:func:`~repro.spatial.diff_edge_sets`).  The kernel delivers
those events — in deterministic order — to attached protocols (HELLO
beaconing, clustering maintenance, routing).
Neighbor views are derived from the edge set lazily and cached until
the next step: the :attr:`Simulation.neighbor_csr` ``(indptr, indices)``
pair of ascending neighbor rows (backbone route discovery builds its
flood graph from it), and :attr:`Simulation.adjacency_lists`, the same
rows as Python lists, for ``O(degree)`` walks and bulk table builds.
Point queries (:meth:`Simulation.neighbors_of`) return the same rows;
while no radio is masked they read the engine's pair index until some
bulk reader builds the CSR, so a step with a few queries sorts nothing.
No step builds an ``N x N`` matrix.
Message accounting flows into a shared
:class:`~repro.sim.stats.MessageStats`.

A step calls only the hooks a protocol overrides: one inherited
unchanged from :class:`~repro.protocol.Protocol` is skipped (see
:func:`repro.protocol.overriding`).

The kernel is fully instrumented (see :mod:`repro.obs`): every step
charges its phases (mobility advance, adjacency recompute, link diff,
each protocol's hooks) to a :class:`~repro.obs.timing.PhaseTimer`, and
a tracer — the no-op null tracer unless one is configured explicitly or
through the ambient observability context — receives structured
``step`` / ``links`` / ``msgs`` events.

The step size must be small enough that a link is unlikely to appear
*and* disappear within one step; :func:`recommended_step` provides the
standard choice (a small fraction of ``r / v``).
"""

from __future__ import annotations

import itertools
import logging
import weakref
from collections.abc import Callable
from time import perf_counter

import numpy as np

from ..core.params import NetworkParameters
from ..mobility.base import MobilityModel
from ..obs import context as obs_context
from ..obs.spans import SpanTracker
from ..obs.timing import PhaseTimer, TimingReport
from ..protocol import Protocol, overriding
from ..spatial import (
    Boundary,
    IncrementalConnectivityEngine,
    LinkEvents,
    SquareRegion,
    # Neither is called here (no module calls ``edges_to_adjacency``):
    # the perfbench probes wrap ``repro.sim.engine.compute_edges`` and
    # ``repro.sim.engine.edges_to_adjacency``, so both stay importable
    # from this module until that benchmark next changes.
    compute_edges,  # noqa: F401
    csr_to_lists,
    degree_counts_from_edges,
    diff_edge_sets,
    edge_key,
    edge_keys,
    edges_to_adjacency,  # noqa: F401
    edges_to_csr,
)
from .stats import MessageStats

__all__ = [
    "ENGINE_SCHEMA_VERSION",
    "Protocol",
    "Simulation",
    "recommended_step",
    "strided_sampler",
]

logger = logging.getLogger(__name__)

#: Version of the engine's *result semantics*.  Bump whenever a change
#: to the kernel (or to any protocol it drives) can alter the numbers a
#: simulation run produces — stepping rules, event ordering, RNG use,
#: message accounting.  The value is folded into every task fingerprint
#: (:mod:`repro.store.fingerprint`), so bumping it invalidates all
#: previously stored results at once; purely structural refactors that
#: provably preserve outputs must NOT bump it, or the cache loses its
#: point.
ENGINE_SCHEMA_VERSION = 1


def strided_sampler(probe: Callable[[], float], samples: int = 50):
    """``(values, callback)``: ``callback`` is an ``on_measured_step``
    that appends ``probe()`` about ``samples`` times, evenly across the
    measurement window (every ``max(1, steps // samples)`` steps).
    """
    values: list[float] = []

    def callback(index: int, steps: int) -> None:
        if index % max(1, steps // samples) == 0:
            values.append(probe())

    return values, callback


def recommended_step(tx_range: float, velocity: float, fraction: float = 0.05) -> float:
    """Step size so nodes move at most ``fraction * r`` per step.

    Relative node speed is at most ``2 v``, so ``dt = fraction * r / (2 v)``
    keeps per-step link-state churn well below one event per pair.
    Returns a default of 0.1 for static networks.
    """
    if tx_range <= 0.0:
        raise ValueError(f"tx_range must be positive, got {tx_range}")
    if velocity <= 0.0:
        return 0.1
    return fraction * tx_range / (2.0 * velocity)


def _send_mirror(sim_ref):
    """``MessageStats.on_record`` hook passing each record to ``send``.

    It holds the simulation weakly: a bound method would close a cycle
    (sim → stats → hook → sim) that only the cyclic GC could free.  The
    tracer writes each run of sends as one ``msgs`` record.
    """

    def mirror(category: str, messages: int, bits: float, *_attribution) -> None:
        sim = sim_ref()
        # Attribute the transmission to the innermost materialized span
        # (the handler that sent it, or the phase/run otherwise).
        sim.tracer.send(
            sim.time,
            sim.sim_id,
            category,
            int(messages),
            float(bits),
            sim.spans.current,
        )

    return mirror


class Simulation:
    """Synchronous time-stepped simulation of ``N`` mobile nodes.

    The per-step edge set comes from the temporal-coherence engine
    (:class:`~repro.spatial.IncrementalConnectivityEngine`), bit-equal
    to a fresh :func:`~repro.spatial.compute_edges` of the positions.

    Parameters
    ----------
    params:
        Network parameters (node count, density/side, range, speed,
        message sizes).  The region side is derived from them.
    mobility:
        A mobility model instance; it is reset by the constructor.
    boundary:
        Region boundary rule; the paper's simulations wrap (torus).
    dt:
        Step size; defaults to :func:`recommended_step`.
    seed:
        Seed for mobility and any protocol randomness.
    tracer:
        Structured event sink; defaults to the ambient observability
        context's tracer (the no-op null tracer unless configured).
    timer:
        Phase timer; defaults to the ambient context's shared timer,
        or a private one when none is configured.
    """

    _instance_ids = itertools.count()

    def __init__(
        self,
        params: NetworkParameters,
        mobility: MobilityModel,
        boundary: Boundary = Boundary.TORUS,
        dt: float | None = None,
        seed: int | None = 0,
        tracer=None,
        timer: PhaseTimer | None = None,
    ) -> None:
        self.params = params
        self.region = SquareRegion(params.side, boundary)
        self.mobility = mobility
        self.dt = dt if dt is not None else recommended_step(
            params.tx_range, params.velocity
        )
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        self.rng = np.random.default_rng(seed)
        self.seed = seed

        context = obs_context.current()
        #: Sequential id distinguishing this run's events in shared
        #: traces and registries.
        self.sim_id = next(Simulation._instance_ids)
        self.tracer = tracer if tracer is not None else context.tracer
        self.timer = timer if timer is not None else (
            context.timer if context.timer is not None else PhaseTimer()
        )
        if context.registry is not None:
            self.stats = MessageStats(
                params.n_nodes,
                registry=context.registry,
                labels={"sim": str(self.sim_id)},
            )
        else:
            self.stats = MessageStats(params.n_nodes)
        if self.tracer.enabled:
            self.stats.on_record = _send_mirror(weakref.ref(self))
        #: Overhead-attribution ledger, set by
        #: :func:`repro.obs.attribution.attach_attribution`; ``None``
        #: (the default) leaves the cause and targets of every
        #: ``stats.record`` unread.
        self.attribution = None
        #: Fault injector, set by :func:`repro.faults.attach_faults`;
        #: ``None`` (the default) skips the fault phase entirely, so an
        #: un-faulted run is byte-identical to one on a kernel without
        #: fault support.
        self.faults = None
        #: Hierarchical causal span stack (run → phase → step →
        #: handler) writing to the same tracer; see repro.obs.spans.
        self.spans = SpanTracker(self.tracer, self.sim_id)
        self._run_span_open = False
        self._phase_span_open = False
        self._phase_name: str | None = None

        self.time = 0.0
        self._protocols: list[Protocol] = []
        #: Signal taps (see :meth:`add_signal_tap`): pure observers of
        #: each step's link events, fed before protocol hooks run.
        self._signal_taps: list = []

        self.mobility.reset(params.n_nodes, self.region, seed)
        self._incremental = IncrementalConnectivityEngine(
            self.region, params.tx_range
        )
        #: Radio state per node; failed nodes keep moving but hold no links.
        self.active = np.ones(params.n_nodes, dtype=bool)
        #: Whether every radio was active at the end of the previous
        #: step; the engine's events are only valid when no external
        #: masking happened on either side of the diff.
        self._prev_all_active = True
        # No radio has failed yet, so nothing is masked.
        self._set_edges(
            self._incremental.step(self.mobility.positions).edges,
            unmasked=True,
        )
        logger.debug(
            "sim %d: N=%d side=%.4g r=%.4g v=%.4g dt=%.4g seed=%s",
            self.sim_id,
            params.n_nodes,
            params.side,
            params.tx_range,
            params.velocity,
            self.dt,
            seed,
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _sync_phase_span(self) -> None:
        """Keep the open ``phase`` span aligned with ``stats.measuring``.

        Called at the top of each step while a run span is open: the
        first step opens the ``warmup`` (or ``measure``) phase span,
        and the warmup→measure transition closes one and opens the
        other, so every step/handler span nests under the phase that
        contains it.
        """
        phase = "measure" if self.stats.measuring else "warmup"
        if self._phase_span_open and phase == self._phase_name:
            return
        if self._phase_span_open:
            self.spans.end(self.time)
        self.spans.start(phase, "phase", self.time)
        self._phase_span_open = True
        self._phase_name = phase

    def trace_run_begin(self, duration: float, warmup: float) -> None:
        """Emit the ``run_begin`` boundary event (no-op when untraced).

        :meth:`run` calls this automatically; drivers that step the
        simulation manually should call it when opening their
        measurement window so traces stay reconcilable.
        """
        if self.tracer.enabled:
            self.tracer.emit(
                "run_begin",
                self.time,
                sim=self.sim_id,
                n_nodes=self.params.n_nodes,
                dt=self.dt,
                duration=float(duration),
                warmup=float(warmup),
                protocols=[p.name for p in self._protocols],
            )
            # Plain "run": the sim id already labels every record's
            # ``sim`` field, and embedding it in the name would go
            # stale when the parallel merge remaps worker sim ids.
            self.spans.start("run", "run", self.time)
            self._run_span_open = True

    def notify_run_end(self) -> None:
        """Deliver ``on_run_end`` to every protocol, charged to its phase.

        :meth:`run` calls this automatically after the measurement
        window closes; drivers that step the simulation manually should
        call it before :meth:`trace_run_end` so run-health protocols
        can flush their final telemetry into the trace.
        """
        for protocol in self._protocols:
            h0 = perf_counter()
            protocol.on_run_end(self, self.time)
            self.timer.add(f"protocol:{protocol.name}", perf_counter() - h0)

    def trace_run_end(self) -> None:
        """Emit ``run_end`` with final totals (no-op when untraced)."""
        if self.tracer.enabled:
            # Close the phase and run spans (and, defensively, any
            # handler span a protocol left open) before the boundary
            # event so every span_end falls inside the run's records.
            self.spans.unwind(self.time)
            self._run_span_open = False
            self._phase_span_open = False
            self._phase_name = None
            self.tracer.emit(
                "run_end",
                self.time,
                sim=self.sim_id,
                measured_time=self.stats.measured_time,
                totals={
                    category: {
                        "messages": totals.messages,
                        "bits": totals.bits,
                    }
                    for category, totals in self.stats.totals.items()
                },
            )

    def timing_report(self) -> TimingReport:
        """Per-phase wall-clock breakdown accumulated so far."""
        return self.timer.report()

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the simulation."""
        return self.params.n_nodes

    @property
    def positions(self) -> np.ndarray:
        """Current node positions."""
        return self.mobility.positions

    @property
    def neighbor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` CSR pair of the live edge set.

        Row ``i``, ``indices[indptr[i]:indptr[i + 1]]``, holds the
        neighbors of ``i`` in ascending order, equal to
        ``np.flatnonzero(edges_to_adjacency(edges, n)[i])``.  Built in
        ``O(N + E)`` plus one stable sort of the sorted edge set
        (:func:`~repro.spatial.edges_to_csr`) on first use and cached
        until the next step; bulk readers (:attr:`adjacency_lists`,
        which is sliced from it, and the backbone flood graph) pay for
        it, point queries on unmasked steps do not (see
        :meth:`neighbors_of`).  Both arrays are read-only, because
        :meth:`neighbors_of` hands out views.
        """
        if self._neighbor_csr is None:
            indptr, indices = edges_to_csr(self.edges, self.params.n_nodes)
            indptr.flags.writeable = indices.flags.writeable = False
            self._neighbor_csr = indptr, indices
        return self._neighbor_csr

    @property
    def adjacency_lists(self) -> list[list[int]]:
        """Per-node ascending neighbor lists of the live edge set.

        The rows of :attr:`neighbor_csr` as Python ints, so BFS walks
        over them visit neighbors in ascending order; cached until the
        next step.
        """
        if self._adjacency_lists is None:
            self._adjacency_lists = csr_to_lists(*self.neighbor_csr)
        return self._adjacency_lists

    @property
    def edge_count(self) -> int:
        """Number of live links."""
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Per-node degree vector from the live edge set."""
        return degree_counts_from_edges(self.edges, self.params.n_nodes)

    def neighbors_of(self, node: int) -> np.ndarray:
        """Ascending neighbors of ``node``, read-only.

        Row ``node`` of :attr:`neighbor_csr`.  While no CSR is cached
        for this step and the live edge set is the engine's unmasked
        one, the row comes from the engine's pair index
        (:meth:`~repro.spatial.IncrementalConnectivityEngine.neighbors`),
        so a few point queries per step cost ``O(degree)`` each instead
        of one sort of the whole edge set.
        """
        if self._neighbor_csr is None and self._pair_index is not None:
            row = self._pair_index.neighbors(node)
            row.flags.writeable = False
            return row
        indptr, indices = self.neighbor_csr
        return indices[indptr[node] : indptr[node + 1]]

    def degree_of(self, node: int) -> int:
        """Current degree of ``node``."""
        indptr = self.neighbor_csr[0]
        return int(indptr[node + 1] - indptr[node])

    def has_link(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are currently connected.

        Binary-searches the sorted edge set.
        """
        keys = self._edge_keys
        if keys is None:
            keys = self._edge_keys = edge_keys(
                np.asarray(self.edges, dtype=np.int64)
            )
        key = edge_key(u, v) if u < v else edge_key(v, u)
        slot = int(np.searchsorted(keys, key))
        return slot < len(keys) and keys.item(slot) == key

    # ------------------------------------------------------------------
    # Protocol management
    # ------------------------------------------------------------------
    def attach(self, protocol: Protocol) -> Protocol:
        """Attach a protocol; returns it for chaining.

        Protocol names must be unique per simulation — they key the
        timing/trace labels, so a collision would silently merge two
        protocols' telemetry.
        """
        for existing in self._protocols:
            if existing.name == protocol.name:
                raise ValueError(
                    f"a protocol named {protocol.name!r} is already "
                    "attached; give each attached protocol a distinct "
                    "`name`"
                )
        self._protocols.append(protocol)
        protocol.on_attach(self)
        return protocol

    @property
    def protocols(self) -> tuple[Protocol, ...]:
        """Attached protocols in delivery order."""
        return tuple(self._protocols)

    def add_signal_tap(self, tap) -> None:
        """Register ``tap(sim, events)`` to observe each step's link events.

        Taps run after the step's edge set and events are final but
        *before* any protocol hook, so ``on_step_end`` decisions (e.g.
        an adaptive beacon policy) see signals that already include the
        current step.  Taps must be pure observers — no RNG draws, no
        message recording, no trace emission — so that registering one
        cannot change a run's results (their wall-clock cost is charged
        to the ``control_signals`` timing phase).
        """
        self._signal_taps.append(tap)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_node(self, node: int) -> None:
        """Crash ``node``'s radio: all its links break at the next step.

        The node keeps moving (a dead radio does not stop the vehicle);
        attached protocols observe ordinary link-down events, so no
        special crash handling is required of them.
        """
        self.active[node] = False

    def recover_node(self, node: int) -> None:
        """Bring ``node``'s radio back; links re-form at the next step."""
        self.active[node] = True

    @property
    def failed_nodes(self) -> np.ndarray:
        """Indices of currently failed nodes."""
        return np.flatnonzero(~self.active)

    def _mask_failed(self, edges: np.ndarray) -> np.ndarray:
        """Drop edges with a failed endpoint from an edge set."""
        if self.active.all():
            return edges
        alive = self.active[edges[:, 0]] & self.active[edges[:, 1]]
        return edges.compress(alive, axis=0)

    def _set_edges(self, edges: np.ndarray, unmasked: bool = False) -> None:
        """Commit ``edges`` as the live edge set and drop the derived views.

        ``unmasked`` says that ``edges`` is exactly the engine's last
        step (no radio masked); while it holds, :meth:`neighbors_of`
        reads the engine's pair index.
        """
        #: Primary connectivity state: sorted (E, 2) edge array, i < j.
        self.edges = edges
        self._pair_index = self._incremental if unmasked else None
        self._neighbor_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._adjacency_lists: list[list[int]] | None = None
        #: :func:`~repro.spatial.edge_keys` of the live edge set (sorted),
        #: built lazily for :meth:`has_link` and cached until the next step.
        self._edge_keys: np.ndarray | None = None

    def notify_node_fail(self, node: int) -> None:
        """Deliver ``on_node_fail`` (state wipe) to every protocol that
        has one (see :func:`~repro.protocol.overriding`)."""
        for _, hook in overriding(self._protocols, "on_node_fail"):
            hook(self, node, self.time)

    def notify_node_recover(self, node: int) -> None:
        """Deliver ``on_node_recover`` to every protocol that has one."""
        for _, hook in overriding(self._protocols, "on_node_recover"):
            hook(self, node, self.time)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> LinkEvents:
        """Advance one step and deliver link events; returns the events.

        The events are the engine's own, on validation steps too; the
        masked edge sets are diffed only on masked steps, those with a
        failed radio before or after the step.
        """
        if self.attribution is not None:
            # Rows the ledger buffered since its last fold were recorded
            # at the current positions: fold them before the nodes move.
            self.attribution.fold()
        timer = self.timer
        t0 = perf_counter()
        positions = self.mobility.advance(self.dt)
        t1 = perf_counter()
        timer.add("mobility", t1 - t0)
        if self.faults is not None:
            # Fault phase: apply scheduled crash/recover events and
            # outage-region membership *before* connectivity is
            # recomputed, so the new radio mask shapes this step's edge
            # set and the resulting link events.  Transitions fire at
            # the post-step clock, matching the link events they cause.
            self.faults.advance(self, self.time + self.dt, positions)
            t1b = perf_counter()
            timer.add("faults", t1b - t1)
            t1 = t1b
        all_active = bool(self.active.all())
        result = self._incremental.step(positions)
        new_edges = self._mask_failed(result.edges)
        t2 = perf_counter()
        # The engine's events describe the *unmasked* connectivity; they
        # stand in for diff_edge_sets only while no radio was failed on
        # either side of the diff.
        if result.events is not None and all_active and self._prev_all_active:
            events = result.events
        else:
            events = diff_edge_sets(self.edges, new_edges)
        t3 = perf_counter()
        # Keep the sub-phases disjoint: "adjacency" is the engine step
        # minus the revalidation portion, which gets its own label so
        # the attribution stays honest.
        timer.add("adjacency", (t2 - t1) - result.revalidate_seconds)
        if not result.rebuilt:
            timer.add("incremental_revalidate", result.revalidate_seconds)
        timer.add("link_diff", t3 - t2)
        self._prev_all_active = all_active
        self._set_edges(new_edges, unmasked=all_active)
        self.time += self.dt
        self.stats.advance_time(self.dt)

        if self._signal_taps:
            s0 = perf_counter()
            for tap in self._signal_taps:
                tap(self, events)
            timer.add("control_signals", perf_counter() - s0)

        broken = events.broken
        generated = events.generated
        n_broken = len(broken)
        n_generated = len(generated)
        tracer = self.tracer
        if tracer.enabled and (n_broken or n_generated):
            # One record per step: the flat pair lists, in pair order.
            tracer.emit(
                "links",
                self.time,
                sim=self.sim_id,
                up=generated.ravel().tolist(),
                down=broken.ravel().tolist(),
            )

        track_spans = tracer.enabled
        if track_spans:
            if self._run_span_open:
                self._sync_phase_span()
            # Lazy: the step span only reaches the trace if a handler
            # span materializes inside it, so quiet steps cost nothing.
            self.spans.start_lazy("step", "step", self.time)

        protocols = self._protocols
        if protocols:
            # One call per (event, protocol) whose hook does work,
            # event-major in pair order: a hook a protocol inherits
            # unchanged from Protocol is not called (see
            # repro.protocol.overriding).  The clock is read once
            # after each call, and the time since the previous read is
            # charged to that call's protocol, so the protocol:<name>
            # phases partition the whole dispatch loop.  Hooks are bound
            # once per step, before the clock starts.  Endpoints reach
            # them as Python ints zipped from one list per column, so no
            # event builds a container for the cyclic GC to track.
            begins = overriding(protocols, "on_step_begin")
            down_hooks = overriding(protocols, "on_link_down") if n_broken else ()
            up_hooks = overriding(protocols, "on_link_up") if n_generated else ()
            ends = overriding(protocols, "on_step_end")
            downs = zip(broken[:, 0].tolist(), broken[:, 1].tolist())
            ups = zip(generated[:, 0].tolist(), generated[:, 1].tolist())
            now = self.time
            spent = [0.0] * len(protocols)
            last = perf_counter()
            for index, hook in begins:
                hook(self, now)
                tick = perf_counter()
                spent[index] += tick - last
                last = tick
            if down_hooks:
                for u, v in downs:
                    for index, hook in down_hooks:
                        hook(self, u, v, now)
                        tick = perf_counter()
                        spent[index] += tick - last
                        last = tick
            if up_hooks:
                for u, v in ups:
                    for index, hook in up_hooks:
                        hook(self, u, v, now)
                        tick = perf_counter()
                        spent[index] += tick - last
                        last = tick
            for index, hook in ends:
                hook(self, now)
                tick = perf_counter()
                spent[index] += tick - last
                last = tick
            for protocol, seconds in zip(protocols, spent):
                timer.add(f"protocol:{protocol.name}", seconds)

        if track_spans:
            self.spans.end(self.time)

        if tracer.enabled:
            tracer.emit(
                "step",
                self.time,
                sim=self.sim_id,
                ups=n_generated,
                downs=n_broken,
                measuring=self.stats.measuring,
            )
        return events

    def run(
        self,
        duration: float,
        warmup: float = 0.0,
        on_measured_step: Callable[[int, int], None] | None = None,
    ) -> MessageStats:
        """Run ``warmup`` unmeasured time then ``duration`` measured time.

        Warm-up lets the cluster structure reach steady state so that —
        as in the paper — only the *maintenance* stage is measured.
        ``on_measured_step(index, steps)`` is called after each of the
        ``steps`` measured steps, for drivers sampling mid-run state
        (see :func:`strided_sampler`).  Returns the statistics object.
        """
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
        if warmup < 0.0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        warmup_steps = int(round(warmup / self.dt))
        measured_steps = max(1, int(round(duration / self.dt)))
        self.trace_run_begin(duration, warmup)
        logger.info(
            "sim %d: running %d warm-up + %d measured steps (dt=%.4g)",
            self.sim_id,
            warmup_steps,
            measured_steps,
            self.dt,
        )
        wall_start = perf_counter()
        self.stats.stop_measuring()
        for _ in range(warmup_steps):
            self.step()
        self.stats.start_measuring()
        for index in range(measured_steps):
            self.step()
            if on_measured_step is not None:
                on_measured_step(index, measured_steps)
        self.stats.stop_measuring()
        self.notify_run_end()
        logger.info(
            "sim %d: finished in %.2fs wall-clock",
            self.sim_id,
            perf_counter() - wall_start,
        )
        self.trace_run_end()
        return self.stats
