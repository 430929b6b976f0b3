"""Ablations of the design choices DESIGN.md §6 calls out.

1. **Counting convention** — the self-consistent event counting vs the
   literal transliteration of the OCR-damaged equations; which one the
   simulation supports.
2. **ROUTE message payload** — per-entry vs full-table updates and the
   resulting overhead split (Section 6's "ROUTE dominates" claim).
3. **Boundary rule** — the paper's wrap-around (torus) vs a reflecting
   boundary; reflection concentrates nodes near walls and shifts the
   measured rates away from the BCV analysis.
4. **HELLO detection** — the event-driven lower bound vs realistic
   periodic beacons with soft timers: beacon traffic and neighbor-table
   staleness as the interval grows.
"""

from __future__ import annotations

from ..analysis import Table, relative_error
from ..core import overhead as overhead_model
from ..core.lid_analysis import lid_head_probability
from ..core.params import NetworkParameters
from ..run_spec import RunSpec, build_stack
from ..spatial import Boundary
from .config import scale_for

__all__ = [
    "run_ablation_conventions",
    "run_ablation_route_payload",
    "run_ablation_boundary",
    "run_ablation_beacon",
]


def _measure_stack(
    params: NetworkParameters,
    boundary: Boundary,
    duration: float,
    warmup: float,
    seed: int,
    hello_mode: str = "event",
    hello_interval: float = 1.0,
):
    """Run the standard stack; returns (sim, stats, maintenance, hello)."""
    stack = build_stack(
        RunSpec(
            params,
            seed,
            duration,
            warmup,
            beacon={"mode": hello_mode, "interval": hello_interval},
            boundary=boundary.value,
        )
    )
    stats = stack.sim.run(duration=duration, warmup=warmup)
    return stack.sim, stats, stack.maintenance, stack.hello


def run_ablation_conventions(quick: bool = False) -> Table:
    """Ablation 1: which equation-counting convention matches simulation."""
    scale = scale_for(quick)
    params = NetworkParameters.from_fractions(
        n_nodes=scale.n_nodes, range_fraction=0.15, velocity_fraction=0.05
    )
    _, stats, maintenance, _ = _measure_stack(
        params, Boundary.TORUS, scale.duration, scale.warmup, seed=1
    )
    head_ratio = maintenance.head_ratio()
    table = Table(
        title="Ablation — counting conventions vs simulation",
        headers=["quantity", "sim", "consistent", "printed", "err cons.", "err print."],
        notes=[f"measured P = {head_ratio:.4f}"],
    )
    rows = {
        "f_cluster": (
            stats.per_node_frequency("cluster"),
            overhead_model.cluster_frequency(params, head_ratio, "consistent"),
            overhead_model.cluster_frequency(params, head_ratio, "printed"),
        ),
        "f_route": (
            stats.per_node_frequency("route"),
            overhead_model.route_frequency(params, head_ratio, "consistent"),
            overhead_model.route_frequency(params, head_ratio, "printed"),
        ),
    }
    for name, (sim_value, consistent, printed) in rows.items():
        table.add_row(
            name,
            sim_value,
            consistent,
            printed,
            relative_error(sim_value, consistent),
            relative_error(sim_value, printed),
        )
    return table


def run_ablation_route_payload(quick: bool = False) -> Table:
    """Ablation 2: ROUTE per-entry vs full-table overhead shares."""
    scale = scale_for(quick)
    table = Table(
        title="Ablation — ROUTE payload reading and overhead dominance",
        headers=[
            "r/a",
            "P (Eqn 18)",
            "O_hello",
            "O_cluster",
            "O_route/entry",
            "O_route/full",
            "route share (full)",
        ],
    )
    for fraction in (0.08, 0.15, 0.25, 0.35):
        params = NetworkParameters.from_fractions(
            n_nodes=scale.n_nodes, range_fraction=fraction, velocity_fraction=0.05
        )
        head_p = float(
            lid_head_probability(params.n_nodes, params.density, params.tx_range)
        )
        o_hello = overhead_model.hello_overhead(params)
        o_cluster = overhead_model.cluster_overhead(params, head_p)
        o_entry = overhead_model.route_overhead(params, head_p, full_table=False)
        o_full = overhead_model.route_overhead(params, head_p, full_table=True)
        share = o_full / (o_hello + o_cluster + o_full)
        table.add_row(fraction, head_p, o_hello, o_cluster, o_entry, o_full, share)
    return table


def run_ablation_boundary(quick: bool = False) -> Table:
    """Ablation 3: torus (paper) vs reflecting boundary fit."""
    scale = scale_for(quick)
    params = NetworkParameters.from_fractions(
        n_nodes=scale.n_nodes, range_fraction=0.15, velocity_fraction=0.05
    )
    table = Table(
        title="Ablation — boundary rule vs analysis fit",
        headers=["boundary", "f_hello sim", "f_hello ana", "rel.err", "P meas"],
    )
    analysis = overhead_model.hello_frequency(params)
    for boundary in (Boundary.TORUS, Boundary.REFLECT):
        _, stats, maintenance, _ = _measure_stack(
            params, boundary, scale.duration, scale.warmup, seed=2
        )
        measured = stats.per_node_frequency("hello")
        table.add_row(
            boundary.value,
            measured,
            analysis,
            relative_error(measured, analysis),
            maintenance.head_ratio(),
        )
    return table


def run_ablation_beacon(quick: bool = False) -> Table:
    """Ablation 4: event-driven lower bound vs periodic beacons."""
    scale = scale_for(quick)
    params = NetworkParameters.from_fractions(
        n_nodes=max(60, scale.n_nodes // 2),
        range_fraction=0.15,
        velocity_fraction=0.05,
    )
    table = Table(
        title="Ablation — HELLO detection: event lower bound vs periodic beacons",
        headers=["mode", "interval", "f_hello", "neighbor errors"],
        notes=["neighbor errors = final count of stale/missing neighbor entries"],
    )
    sim, stats, _, hello = _measure_stack(
        params, Boundary.TORUS, scale.duration / 2, scale.warmup, seed=3
    )
    table.add_row(
        "event", "-", stats.per_node_frequency("hello"), hello.detection_errors(sim)
    )
    for interval in (0.5, 1.0, 2.0):
        sim, stats, _, hello = _measure_stack(
            params,
            Boundary.TORUS,
            scale.duration / 2,
            scale.warmup,
            seed=3,
            hello_mode="periodic",
            hello_interval=interval,
        )
        table.add_row(
            "periodic",
            interval,
            stats.per_node_frequency("hello"),
            hello.detection_errors(sim),
        )
    return table
