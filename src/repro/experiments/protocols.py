"""Protocol comparison: clustered hybrid routing vs flat baselines.

The paper's introduction motivates clustering with the claim that flat
proactive protocols (DSDV) become unacceptable as the network grows and
that clustering "significantly reduces" the communication overhead of
maintaining routing state.  This experiment quantifies that claim on
our substrate: the same mobility trace is replayed for three protocol
stacks —

* **hybrid** — LID clusters + proactive intra-cluster routing +
  reactive backbone discovery (plus HELLO and CLUSTER maintenance);
* **dsdv** — flat proactive distance-vector with periodic full dumps;
* **aodv** — flat on-demand discovery with full-network floods;

under an identical Poisson traffic workload, and reports per-node
control overhead (bits per unit time) and delivery ratio.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table
from ..clustering import ClusterMaintenanceProtocol, LowestIdClustering
from ..core.params import NetworkParameters
from ..mobility import EpochRandomWaypointModel, TraceRecorder, TraceReplayModel
from ..routing import (
    AodvProtocol,
    DsdvProtocol,
    HybridRoutingProtocol,
    IntraClusterRoutingProtocol,
)
from ..sim import HelloProtocol, Simulation
from .config import scale_for

__all__ = ["run_protocol_comparison", "run_traffic_epoch"]


def _record_trace(params: NetworkParameters, duration: float, seed: int):
    """Pre-record one mobility trace so all stacks see identical motion."""
    recorder = TraceRecorder(EpochRandomWaypointModel(params.velocity, epoch=1.0))
    sim = Simulation(params, recorder, seed=seed)
    steps = int(round(duration / sim.dt))
    for _ in range(steps):
        sim.step()
    return recorder.trace, sim.dt


def _traffic_pairs(n_nodes: int, count: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        u, v = rng.integers(0, n_nodes, size=2)
        if u != v:
            pairs.append((int(u), int(v)))
    return pairs


def run_traffic_epoch(
    stack: str,
    params: NetworkParameters,
    trace,
    dt: float,
    pairs: list[tuple[int, int]],
    warmup: float,
) -> dict[str, float]:
    """Run one protocol stack over a replayed trace with traffic.

    Returns per-node control overhead (bits/unit time), per-node control
    message rate, and the fraction of traffic requests that found a
    usable route.
    """
    sim = Simulation(params, TraceReplayModel(trace), dt=dt, seed=0)
    if stack == "hybrid":
        sim.attach(HelloProtocol("event"))
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        intra = IntraClusterRoutingProtocol(maintenance)
        sim.attach(intra)
        sim.attach(maintenance)
        find_path = sim.attach(HybridRoutingProtocol(maintenance, intra)).route
    elif stack == "dsdv":
        find_path = sim.attach(DsdvProtocol(periodic_interval=1.0)).path
    elif stack == "aodv":
        sim.attach(HelloProtocol("event"))  # AODV needs neighborhood sensing
        find_path = sim.attach(AodvProtocol()).route
    else:
        raise ValueError(f"unknown stack {stack!r}")

    warmup_steps = int(round(warmup / dt))
    measured_steps = len(trace) - 1 - warmup_steps
    if measured_steps <= 0:
        raise ValueError("trace too short for the requested warmup")
    # Spread traffic requests uniformly over the measured window.
    request_at = {
        int(round(k * measured_steps / len(pairs))): pair
        for k, pair in enumerate(pairs)
    }
    delivered = 0

    def on_measured_step(index: int, _steps: int) -> None:
        nonlocal delivered
        pair = request_at.get(index)
        if pair is not None and find_path(sim, *pair) is not None:
            delivered += 1

    sim.run(
        measured_steps * dt, warmup_steps * dt, on_measured_step=on_measured_step
    )
    return {
        "overhead": sim.stats.total_overhead(),
        "messages": sum(
            sim.stats.per_node_frequency(cat) for cat in sim.stats.totals
        ),
        "delivery": delivered / len(pairs) if pairs else float("nan"),
    }


def run_protocol_comparison(quick: bool = False) -> Table:
    """Compare the three stacks across network sizes."""
    scale = scale_for(quick)
    sizes = [60, 120] if quick else [100, 200, 400]
    duration = scale.duration
    table = Table(
        title="Protocol comparison — per-node control overhead (bits/unit time)",
        headers=["N", "stack", "overhead", "msgs/node/t", "delivery"],
        notes=[
            "identical replayed mobility and traffic per N across stacks",
            "hybrid = HELLO + CLUSTER + intra-cluster ROUTE + backbone discovery",
        ],
    )
    for n_nodes in sizes:
        params = NetworkParameters.from_fractions(
            n_nodes=n_nodes, range_fraction=0.18, velocity_fraction=0.03
        )
        trace, dt = _record_trace(params, duration, seed=n_nodes)
        pairs = _traffic_pairs(n_nodes, 30 if quick else 60, seed=n_nodes + 1)
        for stack in ("hybrid", "dsdv", "aodv"):
            metrics = run_traffic_epoch(
                stack, params, trace, dt, pairs, warmup=duration * 0.15
            )
            table.add_row(
                n_nodes,
                stack,
                metrics["overhead"],
                metrics["messages"],
                metrics["delivery"],
            )
    return table
