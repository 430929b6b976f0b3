"""Declarative scenario runner.

A *scenario* is a JSON-serializable description of one complete
simulation — network parameters, mobility model, clustering algorithm,
routing stack, HELLO mode, data-plane flows, and run lengths — that the
runner turns into an assembled protocol stack, executes, and summarizes.
This is the adoption surface for users who want results without writing
orchestration code::

    repro-manet simulate scenario.json

Example scenario::

    {
      "name": "campus",
      "n_nodes": 200,
      "range_fraction": 0.15,
      "velocity_fraction": 0.05,
      "mobility": {"model": "epoch-rwp", "epoch": 1.0},
      "clustering": {"algorithm": "lid"},
      "routing": "hybrid",
      "hello": {"mode": "event"},
      "duration": 20.0,
      "warmup": 2.0,
      "seed": 0,
      "flows": [{"source": 0, "destination": 10, "interval": 0.5}]
    }
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .clustering import (
    DmacClustering,
    HighestConnectivityClustering,
    LowestIdClustering,
)
from .core.params import MessageSizes, NetworkParameters
from .run_spec import RunSpec, build_stack
from .sim.beacon import hello_from_config

__all__ = ["ScenarioConfig", "ScenarioReport", "run_scenario", "load_scenario"]

logger = logging.getLogger(__name__)

_CLUSTERING_ALGORITHMS = {
    "lid": LowestIdClustering,
    "hcc": HighestConnectivityClustering,
    "dmac": DmacClustering,
}

_ROUTING_STACKS = ("hybrid", "dsdv", "aodv", "none")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description."""

    name: str
    n_nodes: int
    range_fraction: float
    velocity_fraction: float
    mobility: dict = field(default_factory=lambda: {"model": "epoch-rwp"})
    clustering: dict = field(default_factory=lambda: {"algorithm": "lid"})
    routing: str = "hybrid"
    #: HELLO block: ``event`` or ``periodic`` mode, read by
    #: :func:`repro.sim.beacon.hello_from_config` like ``beacon``.
    hello: dict = field(default_factory=lambda: {"mode": "event"})
    #: Optional beacon/control block (see
    #: :func:`repro.sim.beacon.hello_from_config`); when present it
    #: supersedes the legacy ``hello`` block and unlocks
    #: ``mode: "adaptive"`` with a policy spec.
    beacon: dict | None = None
    boundary: str = "torus"
    duration: float = 20.0
    warmup: float = 2.0
    seed: int = 0
    flows: list = field(default_factory=list)
    messages: dict = field(default_factory=dict)
    #: Optional fault-injection block (see
    #: :func:`repro.faults.fault_config_from_dict`): crash/loss/outage
    #: schedule plus graceful-degradation knobs.  The compiled plan is
    #: a pure function of this block, the network size, the run horizon
    #: and the seed.
    faults: dict | None = None

    def __post_init__(self) -> None:
        if self.routing not in _ROUTING_STACKS:
            raise ValueError(
                f"routing must be one of {_ROUTING_STACKS}, got {self.routing!r}"
            )
        algorithm = self.clustering.get("algorithm", "lid")
        if algorithm not in _CLUSTERING_ALGORITHMS:
            raise ValueError(
                f"clustering.algorithm must be one of "
                f"{tuple(_CLUSTERING_ALGORITHMS)}, got {algorithm!r}"
            )
        try:
            hello_from_config(self.hello)
        except ValueError as error:
            raise ValueError(f"scenario 'hello' block: {error}") from None
        if self.hello.get("mode") == "adaptive":
            raise ValueError("hello mode 'adaptive' needs the 'beacon' block")
        # Build-and-discard: surfaces bad run lengths and bad beacon or
        # faults blocks at load time, with the errors the runner would
        # hit.
        self.run_spec()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Build (and validate) a config from parsed JSON.

        Unknown top-level keys are rejected with the full list of
        valid keys, so a typo like ``"mobilty"`` fails loudly instead
        of silently running with defaults.
        """
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario keys: {sorted(unknown)}; "
                f"valid keys are: {sorted(known)}"
            )
        return cls(**data)

    def to_dict(self) -> dict:
        """JSON-serializable view; ``from_dict`` round-trips it."""
        return asdict(self)

    def network_parameters(self) -> NetworkParameters:
        """The derived :class:`NetworkParameters`."""
        messages = MessageSizes(**self.messages) if self.messages else None
        return NetworkParameters.from_fractions(
            n_nodes=self.n_nodes,
            range_fraction=self.range_fraction,
            velocity_fraction=self.velocity_fraction,
            messages=messages,
        )

    def run_spec(self) -> RunSpec:
        """The :class:`~repro.run_spec.RunSpec` this scenario describes."""
        algorithm_spec = dict(self.clustering)
        algorithm_name = algorithm_spec.pop("algorithm", "lid")
        return RunSpec(
            params=self.network_parameters(),
            seed=self.seed,
            duration=self.duration,
            warmup=self.warmup,
            algorithm=_CLUSTERING_ALGORITHMS[algorithm_name](**algorithm_spec),
            beacon=self.beacon if self.beacon is not None else self.hello,
            faults=self.faults,
            routing=self.routing,
            mobility=self.mobility,
            boundary=self.boundary,
            flows=tuple(self.flows),
        )


@dataclass
class ScenarioReport:
    """Everything one scenario run produced."""

    name: str
    frequencies: dict[str, float]
    overheads: dict[str, float]
    total_overhead: float
    head_ratio: float | None
    cluster_count: int | None
    traffic: dict[str, float] | None

    def to_dict(self) -> dict:
        """JSON-serializable view."""
        return asdict(self)

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"scenario: {self.name}"]
        for category in sorted(self.frequencies):
            lines.append(
                f"  {category:16s} {self.frequencies[category]:10.4g} msg/node/t"
                f"  {self.overheads[category]:12.4g} bits/node/t"
            )
        lines.append(f"  {'total overhead':16s} {self.total_overhead:23.4g} bits/node/t")
        if self.head_ratio is not None:
            lines.append(
                f"  clusters: {self.cluster_count}  (P = {self.head_ratio:.4f})"
            )
        if self.traffic is not None:
            lines.append(
                "  traffic: delivery {delivery:.2%}, latency {latency:.3g}, "
                "hops {hops:.3g} ({delivered}/{generated} delivered)".format(
                    **self.traffic
                )
            )
        return "\n".join(lines)


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario JSON file."""
    data = json.loads(Path(path).read_text())
    return ScenarioConfig.from_dict(data)


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Assemble the stack described by ``config``, run it, summarize."""
    logger.info(
        "scenario %s: N=%d routing=%s duration=%g warmup=%g",
        config.name,
        config.n_nodes,
        config.routing,
        config.duration,
        config.warmup,
    )
    stack = build_stack(config.run_spec())
    stats = stack.sim.run(duration=config.duration, warmup=config.warmup)

    traffic_summary = None
    if stack.traffic is not None:
        outcome = stack.traffic.traffic
        traffic_summary = {
            "generated": outcome.generated,
            "delivered": outcome.delivered,
            "dropped": outcome.dropped,
            "delivery": outcome.delivery_ratio(),
            "latency": outcome.mean_latency(),
            "hops": outcome.mean_hops(),
        }

    maintenance = stack.maintenance
    return ScenarioReport(
        name=config.name,
        frequencies=stats.frequencies(),
        overheads=stats.overheads(),
        total_overhead=stats.total_overhead(),
        head_ratio=maintenance.head_ratio() if maintenance else None,
        cluster_count=maintenance.cluster_count() if maintenance else None,
        traffic=traffic_summary,
    )
