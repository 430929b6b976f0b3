"""One description of a simulation run and one builder for its stack.

A :class:`RunSpec` describes one run in plain data; :func:`build_stack`
attaches its stack.  The sweep worker behind Figures 1–3, the scenario
runner, the chaos experiment and the ablations all build here, in one
order: faults, then HELLO (except under ``dsdv``, which senses its own
neighborhood), then the routing stack — ``intra`` (the figures'
intra-cluster routing plus cluster maintenance), ``hybrid`` (plus the
inter-cluster router), ``none`` (maintenance alone) or the flat
``dsdv``/``aodv`` — then run health, cluster dynamics and attribution
(no-ops unless the ambient context asks for them), and traffic last.

A spec is also a store task.  Its :meth:`~RunSpec.canonical_form` is
the historical sweep-task list ``[params, seed, duration, warmup,
epoch, algorithm(, beacon(, faults))]``; the other fields join it only
when they differ from the sweep's values, so figure runs keep their
fingerprints and every other run gets its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .clustering import ClusterMaintenanceProtocol, LowestIdClustering
from .clustering.base import ClusteringAlgorithm
from .clustering.stability import attach_cluster_dynamics
from .core.params import NetworkParameters
from .faults import attach_faults, build_plan, fault_config_from_dict
from .mobility import (
    ConstantVelocityModel,
    EpochRandomWaypointModel,
    GaussMarkovModel,
    ManhattanModel,
    RandomDirectionModel,
    RandomWalkModel,
    RandomWaypointModel,
)
from .obs.attribution import attach_attribution
from .obs.health import attach_run_health
from .routing import (
    AodvProtocol,
    DsdvProtocol,
    HybridRoutingProtocol,
    IntraClusterRoutingProtocol,
)
from .sim import (
    AodvRouterAdapter,
    CbrFlow,
    DsdvRouterAdapter,
    HelloProtocol,
    HybridRouterAdapter,
    Simulation,
    TrafficProtocol,
)
from .sim.beacon import hello_from_config
from .spatial import Boundary

__all__ = ["ROUTING_STACKS", "RunSpec", "Stack", "build_stack"]

#: Routing stacks :func:`build_stack` assembles (see the module doc).
ROUTING_STACKS = ("intra", "hybrid", "dsdv", "aodv", "none")

#: Fields of the historical sweep-task list, in order.
_TASK_FIELDS = 8


@dataclass(frozen=True)
class RunSpec:
    """Plain-data description of one simulation run.

    ``beacon`` is a HELLO block (see
    :func:`repro.sim.beacon.hello_from_config`); ``None`` is event-mode
    HELLO.  ``faults`` is a fault block (see
    :func:`repro.faults.fault_config_from_dict`).  ``mobility`` is a
    scenario mobility block; ``None`` is the paper's epoch random
    waypoint with period ``epoch``.  ``flows`` holds
    :class:`~repro.sim.CbrFlow` keyword dicts.
    """

    params: NetworkParameters
    seed: int
    duration: float
    warmup: float
    epoch: float = 1.0
    algorithm: ClusteringAlgorithm = field(default_factory=LowestIdClustering)
    beacon: dict | None = None
    faults: dict | None = None
    routing: str = "intra"
    mobility: dict | None = None
    boundary: str = "torus"
    flows: tuple = ()

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.warmup < 0.0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup}")
        if self.routing not in ROUTING_STACKS:
            raise ValueError(
                f"routing must be one of {ROUTING_STACKS}, got {self.routing!r}"
            )
        object.__setattr__(self, "flows", tuple(self.flows))
        # Surface bad blocks here, before any worker starts.
        if self.beacon is not None:
            hello_from_config(self.beacon)
        if self.faults is not None:
            fault_config_from_dict(self.faults)

    def canonical_form(self) -> list:
        """The store identity of this run (see the module doc)."""
        task = [
            self.params,
            self.seed,
            self.duration,
            self.warmup,
            self.epoch,
            self.algorithm,
        ]
        extras = {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(self)[_TASK_FIELDS:]
            if getattr(self, spec_field.name) != spec_field.default
        }
        if extras:
            return task + [self.beacon, self.faults, extras]
        if self.faults is not None:
            return task + [self.beacon, self.faults]
        if self.beacon is not None:
            return task + [self.beacon]
        return task


@dataclass
class Stack:
    """What :func:`build_stack` attached; ``None`` where absent."""

    sim: Simulation
    hello: HelloProtocol | None
    maintenance: ClusterMaintenanceProtocol | None
    traffic: TrafficProtocol | None


def _build_mobility(spec: RunSpec):
    """Instantiate the mobility model a spec describes."""
    velocity = spec.params.velocity
    if spec.mobility is None:
        return EpochRandomWaypointModel(velocity, epoch=spec.epoch)
    block = spec.mobility
    model = block.get("model", "epoch-rwp")
    half, x1_5 = 0.5 * velocity, 1.5 * velocity
    speeds = (block.get("v_min", half), block.get("v_max", x1_5))
    if model == "cv":
        return ConstantVelocityModel(velocity)
    if model == "epoch-rwp":
        return EpochRandomWaypointModel(velocity, epoch=block.get("epoch", 1.0))
    if model == "rwp":
        return RandomWaypointModel(
            speeds, (block.get("pause_min", 0.0), block.get("pause_max", 0.0))
        )
    if model == "walk":
        return RandomWalkModel(speeds, interval=block.get("interval", 1.0))
    if model == "direction":
        return RandomDirectionModel(speeds, pause=block.get("pause", 0.0))
    if model == "gauss-markov":
        return GaussMarkovModel(velocity, alpha=block.get("alpha", 0.75))
    if model == "manhattan":
        return ManhattanModel(speeds, blocks=block.get("blocks", 5))
    raise ValueError(f"unknown mobility model {model!r}")


def build_stack(spec: RunSpec) -> Stack:
    """Assemble the stack ``spec`` describes, in the fixed attach order."""
    sim = Simulation(
        spec.params,
        _build_mobility(spec),
        boundary=Boundary(spec.boundary),
        seed=spec.seed,
    )
    fault_config = None
    if spec.faults is not None:
        fault_config = fault_config_from_dict(spec.faults)
        plan = build_plan(
            fault_config,
            spec.params.n_nodes,
            horizon=spec.warmup + spec.duration,
            seed=spec.seed,
        )
        attach_faults(sim, plan)

    hello = None
    if spec.routing != "dsdv":
        block = dict(spec.beacon) if spec.beacon is not None else {}
        if (
            fault_config is not None
            and fault_config.hello_miss_limit is not None
            and block.get("mode", "event") != "event"
        ):
            # The fault block's degradation knob, unless the HELLO
            # block pins its own.
            block.setdefault("miss_limit", fault_config.hello_miss_limit)
        hello = sim.attach(hello_from_config(block))

    maintenance = intra = router = None
    if spec.routing in ("intra", "hybrid", "none"):
        maintenance = ClusterMaintenanceProtocol(spec.algorithm)
    if spec.routing in ("intra", "hybrid"):
        # Before maintenance: routing sees the pre-repair membership.
        intra = sim.attach(IntraClusterRoutingProtocol(maintenance))
    if maintenance is not None:
        sim.attach(maintenance)
    if spec.routing == "hybrid":
        hybrid = sim.attach(HybridRoutingProtocol(maintenance, intra))
        router = HybridRouterAdapter(hybrid)
    elif spec.routing == "dsdv":
        router = DsdvRouterAdapter(sim.attach(DsdvProtocol()))
    elif spec.routing == "aodv":
        retries = {}
        if fault_config is not None:
            retries = dict(
                max_retries=fault_config.route_retries,
                retry_backoff=fault_config.route_retry_backoff,
                retry_backoff_cap=fault_config.route_retry_cap,
            )
        router = AodvRouterAdapter(sim.attach(AodvProtocol(**retries)))

    # Bound-check only the categories this stack produces.
    categories = tuple(
        category
        for category, protocol in (
            ("hello", hello),
            ("cluster", maintenance),
            ("route", intra),
        )
        if protocol is not None
    )
    attach_run_health(sim, maintenance, categories=categories)
    # Attached before the run so window sums reconcile with the trace.
    attach_cluster_dynamics(sim, maintenance)
    # After every message-producing protocol, so the ledger sees them all.
    attach_attribution(sim, maintenance)

    traffic = None
    if spec.flows:
        if router is None:
            raise ValueError(f"flows need a router, routing is {spec.routing!r}")
        flows = [CbrFlow(**flow) for flow in spec.flows]
        traffic = sim.attach(TrafficProtocol(flows, router))
    return Stack(sim, hello, maintenance, traffic)
