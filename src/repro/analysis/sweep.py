"""Parameter sweeps of the clustered-MANET simulation vs. the analysis.

This is the engine behind Figures 1–3: for each value of the swept
parameter it runs the full simulation stack (paper-variant RWP mobility,
event-mode HELLO, LID clustering with reactive maintenance, proactive
intra-cluster routing), measures the three per-node control message
frequencies, and evaluates the closed-form model *with the measured
cluster-head ratio plugged in* — the paper's own methodology ("P for
LID is measured in real time during the simulation").
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..clustering import LowestIdClustering
from ..clustering.base import ClusteringAlgorithm
from ..core import overhead as overhead_model
from ..core.params import MessageSizes, NetworkParameters
from ..run_spec import RunSpec, build_stack
from ..sim.engine import strided_sampler
from .parallel import run_tasks
from .series import summarize

__all__ = ["SweepPoint", "SweepResult", "measure_point", "run_sweep"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: measured and predicted frequencies."""

    parameter_value: float
    params: NetworkParameters
    measured_head_ratio: float
    measured: dict[str, float]
    predicted: dict[str, float]
    seeds: int

    def to_dict(self) -> dict:
        """JSON-serializable view (round-trips via :meth:`from_dict`)."""
        return {
            "parameter_value": self.parameter_value,
            "params": {
                "n_nodes": self.params.n_nodes,
                "density": self.params.density,
                "tx_range": self.params.tx_range,
                "velocity": self.params.velocity,
                "messages": {
                    "p_hello": self.params.messages.p_hello,
                    "p_cluster": self.params.messages.p_cluster,
                    "p_route": self.params.messages.p_route,
                },
            },
            "measured_head_ratio": self.measured_head_ratio,
            "measured": dict(self.measured),
            "predicted": dict(self.predicted),
            "seeds": self.seeds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepPoint":
        """Rebuild a point from its :meth:`to_dict` form."""
        params_data = dict(data["params"])
        messages = MessageSizes(**params_data.pop("messages"))
        return cls(
            parameter_value=data["parameter_value"],
            params=NetworkParameters(messages=messages, **params_data),
            measured_head_ratio=data["measured_head_ratio"],
            measured=dict(data["measured"]),
            predicted=dict(data["predicted"]),
            seeds=data["seeds"],
        )


@dataclass
class SweepResult:
    """A full sweep: the paper's three-curves-per-figure data."""

    parameter: str
    points: list[SweepPoint] = field(default_factory=list)

    def values(self) -> list[float]:
        """Swept parameter values."""
        return [p.parameter_value for p in self.points]

    def measured_series(self, key: str) -> list[float]:
        """Measured series for ``f_hello`` / ``f_cluster`` / ``f_route``."""
        return [p.measured[key] for p in self.points]

    def predicted_series(self, key: str) -> list[float]:
        """Analysis series for the same keys."""
        return [p.predicted[key] for p in self.points]

    def to_dict(self) -> dict:
        """JSON-serializable view — the unit stored in sweep manifests."""
        return {
            "parameter": self.parameter,
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(
            parameter=data["parameter"],
            points=[SweepPoint.from_dict(p) for p in data["points"]],
        )


def _run_once_task(spec: RunSpec) -> tuple[dict[str, float], float]:
    """Picklable per-seed worker for :func:`measure_point`.

    Returns (frequencies, head ratio), the ratio sampled across the
    measurement window like the paper's real-time P measurement.  This
    function's import path is part of every stored sweep task's
    identity, so it keeps its module and name.
    """
    stack = build_stack(spec)
    ratios, sample = strided_sampler(stack.maintenance.head_ratio)
    stats = stack.sim.run(spec.duration, spec.warmup, on_measured_step=sample)
    frequencies = {
        "f_hello": stats.per_node_frequency("hello"),
        "f_cluster": stats.per_node_frequency("cluster"),
        "f_route": stats.per_node_frequency("route"),
    }
    return frequencies, float(np.mean(ratios))


def measure_point(
    params: NetworkParameters,
    parameter_value: float,
    seeds: int = 3,
    duration: float = 20.0,
    warmup: float = 2.0,
    epoch: float = 1.0,
    algorithm: ClusteringAlgorithm | None = None,
    convention: str = "consistent",
    jobs: int | None = None,
    store=None,
    beacon: dict | None = None,
    faults: dict | None = None,
) -> SweepPoint:
    """Measure one parameter point (averaged over ``seeds`` runs).

    ``jobs`` fans the per-seed runs out to worker processes (see
    :func:`repro.analysis.parallel.run_tasks`); results are seed-order
    deterministic, so any ``jobs`` value yields the identical point.
    ``store`` (default: the ambient :func:`repro.store.use_store`)
    memoizes each per-seed run by content address, so repeating a point
    — or resuming an interrupted sweep — skips completed simulations.
    ``beacon`` is an optional beacon/control block (see
    :func:`repro.sim.beacon.hello_from_config`) replacing the default
    event-mode HELLO; it becomes part of each task's store identity, so
    cached event-mode results are never served for a policy run.
    ``faults`` is an optional fault-injection block (see
    :func:`repro.faults.fault_config_from_dict`); the per-seed plan is
    compiled inside each worker from ``(faults, n_nodes, horizon,
    seed)``, and the declarative block joins the task's store identity
    the same way ``beacon`` does.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be positive, got {seeds}")
    algorithm = algorithm or LowestIdClustering()
    # Built (and validated) here, before any worker starts.
    specs = [
        RunSpec(params, seed, duration, warmup, epoch, algorithm, beacon, faults)
        for seed in range(seeds)
    ]
    logger.debug(
        "measuring point value=%g over %d seeds (N=%d, jobs=%s)",
        parameter_value,
        seeds,
        params.n_nodes,
        jobs,
    )
    runs = run_tasks(_run_once_task, specs, jobs=jobs, store=store)
    measured = {
        key: summarize([freqs[key] for freqs, _ in runs]).mean
        for key in ("f_hello", "f_cluster", "f_route")
    }
    head_ratio = summarize([ratio for _, ratio in runs]).mean
    predicted = {
        "f_hello": overhead_model.hello_frequency(params),
        "f_cluster": overhead_model.cluster_frequency(
            params, head_ratio, convention
        ),
        "f_route": overhead_model.route_frequency(
            params, head_ratio, convention
        ),
    }
    return SweepPoint(
        parameter_value=parameter_value,
        params=params,
        measured_head_ratio=head_ratio,
        measured=measured,
        predicted=predicted,
        seeds=seeds,
    )


def _sweep_identity(
    parameter: str, base: NetworkParameters, values, point_kwargs: dict
) -> dict:
    """Canonical identity of a whole sweep, for the run manifest.

    Execution-only knobs (``jobs``, ``store``) are excluded: they never
    change results, so they must not change the manifest address.
    """
    from .. import __version__
    from ..sim import engine
    from ..store import canonicalize

    options = {
        key: value
        for key, value in point_kwargs.items()
        if key not in ("jobs", "store")
    }
    return {
        "kind": "sweep",
        "parameter": parameter,
        "base": canonicalize(base),
        "values": [float(v) for v in values],
        "options": canonicalize(options),
        "engine_schema": engine.ENGINE_SCHEMA_VERSION,
        "version": __version__,
    }


def run_sweep(
    parameter: str,
    base: NetworkParameters,
    values,
    **point_kwargs,
) -> SweepResult:
    """Sweep one of ``"tx_range"``, ``"velocity"`` or ``"density"``.

    ``values`` are absolute parameter values.  A density sweep keeps
    ``N`` and the transmission range fixed and varies the area
    (``rho = N / a^2``), which is how the paper's Figure 3 varies
    density.  A ``jobs`` keyword is forwarded to :func:`measure_point`
    to parallelize each point's per-seed runs; a ``store`` keyword (or
    an ambient :func:`repro.store.use_store`) makes the sweep
    incremental — per-seed tasks are memoized as they complete, so an
    interrupted sweep resumes and a repeated one is pure cache hits —
    and records a sweep-level run manifest (the full
    :meth:`SweepResult.to_dict` plus cache accounting) on completion.
    """
    from ..obs.log import progress
    from ..store import context as store_context

    store = point_kwargs.get("store")
    if store is None:
        store = store_context.current_store()
    hits_before = store.hits if store is not None else 0
    misses_before = store.misses if store is not None else 0
    result = SweepResult(parameter=parameter)
    values = list(values)
    for index, value in enumerate(values):
        progress(
            "sweep %s: point %d/%d (%s=%g)",
            parameter,
            index + 1,
            len(values),
            parameter,
            float(value),
        )
        if parameter == "tx_range":
            params = base.with_(tx_range=float(value))
        elif parameter == "velocity":
            params = base.with_(velocity=float(value))
        elif parameter == "density":
            params = base.with_(density=float(value))
        else:
            raise ValueError(
                "parameter must be 'tx_range', 'velocity' or 'density', "
                f"got {parameter!r}"
            )
        result.points.append(
            measure_point(params, float(value), **point_kwargs)
        )
    if store is not None:
        from ..store import fingerprint

        identity = _sweep_identity(parameter, base, values, point_kwargs)
        key = fingerprint(identity)
        store.put_manifest(
            key,
            identity,
            {
                "parameter": parameter,
                "points": len(result.points),
                "tasks": {
                    "hits": store.hits - hits_before,
                    "misses": store.misses - misses_before,
                },
                "result": result.to_dict(),
            },
        )
        logger.info("sweep manifest %s written to %s", key[:12], store.root)
    return result
