"""Full-stack golden digests: the refactor gate of the protocol layer.

Every case runs the paper stack (HELLO + intra-cluster routing + one-hop
cluster maintenance, with an overhead-attribution ledger) at N=200 and
reduces the outcome to a digest:

* per-category message and bit totals of ``MessageStats``;
* the ``sha256`` of the final ``roles`` and ``head_of`` arrays;
* ``head_changes_total`` and ``reaffiliations_total``;
* the attribution ledger's per-cause totals, plus the ``sha256`` of its
  whole snapshot (per-node, per-cluster and heatmap shares included).

The matrix is LID / HCC (``dynamic_priority=True``) / DMAC x event /
periodic HELLO x faults off / on (crash + loss) x 2 seeds, LID with
adaptive (staleness-bounded) HELLO x faults off / on x 2 seeds, LID
with event HELLO x faults off / on at a third seed (2), plus one run
with non-integer message sizes and a full-table, star-topology
intra-cluster router.

Two mobility rows run LID with event HELLO under non-uniform motion:
Gauss-Markov, and random waypoint with a speed range and pauses.  They
gate the incremental connectivity engine on nodes of unequal and
changing speed (the other rows move every node at one speed).

Two further rows run LID with event HELLO on a small and on a dense
network: N=80, and N=200 at ``range_fraction=0.3``.  They gate the
incremental engine on those inputs inside a full stack.

Two d-hop rows run MobDHop and Max-Min (both d=2) under
:class:`~repro.clustering.DHopClusterMaintenanceProtocol` with event
HELLO and no intra-cluster router; their digests drop the one-hop
maintenance counters.

Data-plane rows add CBR traffic on top of LID with event HELLO: the
hybrid router (faults off / on x 2 seeds), one faulted AODV run and
DSDV runs with faults off and on.  They gate the route reads, so their digests
also carry the traffic books (generated / delivered / dropped /
hop-count sum), the ``sha256`` of the router's route table in
insertion order (DSDV: every entry with its metric and sequence
number), the discovery and cache-hit counters of the on-demand
routers, and the intra-cluster ``path`` answers for a fixed grid of
same-cluster pairs at the end of the run.

Send-site rows reach the record calls no row above reaches: a
per-step ``broadcast_flood`` over the cluster backbone and a blind
one, and adaptive HELLO under the ``analytic-rate`` and
``churn-feedback`` policies.  They are LID rows with event HELLO (the
flood rows) or adaptive HELLO, and pin the same digest.

Traced rows gate the telemetry path: the hybrid + CBR stack at N=300
(faults off / on, seed 0) runs under ``observe`` with a
:class:`~repro.obs.JsonlTracer` and a live :class:`~repro.obs.MetricsRegistry`,
with the ledger attached by ``attach_attribution`` ahead of the traffic
protocol (the order ``run_scenario`` uses).  Their digests pin the
``sha256`` of the trace bytes and of their schema-2 rewrite
(:func:`trace_schema2.as_schema_2`, the byte-exact expansion of each
``msgs`` record into per-send ``msg_tx`` lines), of the ledger snapshot
at a mid-run step and at run end, and of the OpenMetrics text of the
registry rebuilt from the trace and of the live registry.  Sim and span ids are process
counters, so the rows run with both counters restarted at zero.

The test asserts the digests are byte-identical to the committed
fixture ``golden_stack.json``: a change that is meant to preserve
simulation results must pass it unchanged.

Regenerate the fixture only together with a deliberate
``ENGINE_SCHEMA_VERSION`` bump, from the root of a checkout::

    PYTHONPATH=src:tests python -c \\
        "import test_golden_stack; test_golden_stack.regenerate_fixture()"
"""

from __future__ import annotations

import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.clustering import (
    ClusterMaintenanceProtocol,
    DHopClusterMaintenanceProtocol,
    DmacClustering,
    HighestConnectivityClustering,
    LowestIdClustering,
    MaxMinDCluster,
    MobDHopClustering,
)
from repro.control import build_policy
from repro.core.params import MessageSizes, NetworkParameters
from repro.faults import FaultConfig, attach_faults, build_plan
from repro.mobility import (
    EpochRandomWaypointModel,
    GaussMarkovModel,
    RandomWaypointModel,
)
from repro.obs import (
    JsonlTracer,
    MetricsRegistry,
    observe,
    registry_from_trace,
    render_openmetrics,
)
from repro.obs import spans as obs_spans
from repro.obs.attribution import OverheadLedger, attach_attribution
from repro.routing import (
    AodvProtocol,
    DsdvProtocol,
    HybridRoutingProtocol,
    IntraClusterRoutingProtocol,
    broadcast_flood,
)
from repro.sim import (
    AodvRouterAdapter,
    CbrFlow,
    DsdvRouterAdapter,
    HelloProtocol,
    HybridRouterAdapter,
    Simulation,
    TrafficProtocol,
)
from repro.sim.engine import ENGINE_SCHEMA_VERSION, Protocol
from trace_schema2 import as_schema_2

FIXTURE = Path(__file__).with_name("golden_stack.json")

N_NODES = 200
RANGE_FRACTION = 0.15
WARMUP = 0.5
DURATION = 3.0
FAULTS = FaultConfig(
    crash_rate=0.01, crash_recover_after=1.0, loss_rate=0.08, hello_miss_limit=3
)
ODD_SIZES = MessageSizes(p_hello=250.5, p_cluster=127.25, p_route=96.125)
FLOWS = 12
FLOW_INTERVAL = 0.2
TRACED_N_NODES = 300


def _cases() -> dict[str, dict]:
    cases = {}
    for algorithm in ("lid", "hcc", "dmac"):
        for hello in ("event", "periodic"):
            for faults in (False, True):
                for seed in (0, 1):
                    name = (
                        f"{algorithm}-{hello}-"
                        f"{'faults' if faults else 'clean'}-s{seed}"
                    )
                    cases[name] = dict(
                        algorithm=algorithm, hello=hello, faults=faults, seed=seed
                    )
    for faults in (False, True):
        for seed in (0, 1):
            name = f"lid-adaptive-{'faults' if faults else 'clean'}-s{seed}"
            cases[name] = dict(
                algorithm="lid", hello="adaptive", faults=faults, seed=seed
            )
    for faults in (False, True):
        name = f"lid-event-{'faults' if faults else 'clean'}-s2"
        cases[name] = dict(algorithm="lid", hello="event", faults=faults, seed=2)
    cases["lid-event-clean-s0-odd-sizes-star-full"] = dict(
        algorithm="lid",
        hello="event",
        faults=False,
        seed=0,
        sizes=ODD_SIZES,
        full_table=True,
        topology="star",
    )
    for faults in (False, True):
        for seed in (0, 1):
            name = f"lid-event-{'faults' if faults else 'clean'}-s{seed}-hybrid-cbr"
            cases[name] = dict(
                algorithm="lid", hello="event", faults=faults, seed=seed,
                routing="hybrid",
            )
    cases["lid-event-faults-s0-aodv-cbr"] = dict(
        algorithm="lid", hello="event", faults=True, seed=0, routing="aodv"
    )
    for faults in (False, True):
        name = f"lid-event-{'faults' if faults else 'clean'}-s0-dsdv-cbr"
        cases[name] = dict(
            algorithm="lid", hello="event", faults=faults, seed=0, routing="dsdv"
        )
    for algorithm in ("mobdhop", "maxmin"):
        cases[f"{algorithm}-d2-event-clean-s0"] = dict(
            algorithm=algorithm, hello="event", faults=False, seed=0
        )
    for mobility in ("gauss-markov", "rwp-pause"):
        cases[f"lid-event-clean-s0-{mobility}"] = dict(
            algorithm="lid", hello="event", faults=False, seed=0,
            mobility=mobility,
        )
    cases["lid-event-clean-s0-n80"] = dict(
        algorithm="lid", hello="event", faults=False, seed=0, n_nodes=80
    )
    cases["lid-event-clean-s0-r30"] = dict(
        algorithm="lid", hello="event", faults=False, seed=0,
        range_fraction=0.3,
    )
    return cases


CASES = _cases()

SEND_SITE_CASES = {
    "lid-event-clean-s0-flood-backbone": dict(
        algorithm="lid", hello="event", faults=False, seed=0, flood="backbone"
    ),
    "lid-event-clean-s0-flood-blind": dict(
        algorithm="lid", hello="event", faults=False, seed=0, flood="blind"
    ),
    "lid-adaptive-analytic-clean-s0": dict(
        algorithm="lid", hello="adaptive", faults=False, seed=0,
        policy="analytic-rate",
    ),
    "lid-adaptive-churn-clean-s0": dict(
        algorithm="lid", hello="adaptive", faults=False, seed=0,
        policy="churn-feedback",
    ),
}


class _Flooder(Protocol):
    """One network-wide flood per step, from a rotating source.

    ``backbone`` floods over the maintained cluster state (heads and
    gateways retransmit); otherwise every reached node does.
    """

    name = "flooder"

    def __init__(self, maintenance, backbone: bool) -> None:
        self.maintenance = maintenance
        self.backbone = backbone
        self.floods = 0

    def on_step_end(self, sim: Simulation, time: float) -> None:
        source = self.floods * 37 % sim.n_nodes
        self.floods += 1
        state = self.maintenance.state if self.backbone else None
        broadcast_flood(sim, source, state)


TRACED_CASES = {
    f"lid-event-{'faults' if faults else 'clean'}-s0-hybrid-cbr-traced": dict(
        faults=faults, seed=0
    )
    for faults in (False, True)
}


def _mobility(name: str, velocity: float):
    """The mobility model of a row: epoch RWP unless the row names one."""
    if name == "gauss-markov":
        return GaussMarkovModel(velocity, update_interval=0.5)
    if name == "rwp-pause":
        return RandomWaypointModel((0.5 * velocity, 1.5 * velocity), (0.0, 0.3))
    return EpochRandomWaypointModel(velocity, epoch=1.0)


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _flows(seed: int, n_nodes: int = N_NODES) -> list[CbrFlow]:
    """``FLOWS`` CBR flows between distinct random endpoints."""
    rng = np.random.default_rng(1000 + seed)
    flows = []
    for _ in range(FLOWS):
        source, destination = rng.choice(n_nodes, size=2, replace=False)
        flows.append(CbrFlow(int(source), int(destination), FLOW_INTERVAL))
    return flows


def _route_table(router) -> list:
    """The router's route state in insertion order."""
    if isinstance(router, HybridRoutingProtocol):
        return [[list(key), path] for key, path in router._cache.items()]
    if isinstance(router, DsdvProtocol):
        return [
            [node, entry.destination, entry.next_hop, entry.metric, entry.sequence]
            for node, table in enumerate(router.tables)
            for entry in table.values()
        ]
    return [
        [node, destination, entry.next_hop, entry.hops]
        for node, table in enumerate(router.routes)
        for destination, entry in table.items()
    ]


def run_case(
    algorithm: str,
    hello: str,
    faults: bool,
    seed: int,
    sizes: MessageSizes | None = None,
    full_table: bool = False,
    topology: str = "all",
    routing: str | None = None,
    mobility: str = "epoch-rwp",
    n_nodes: int = N_NODES,
    range_fraction: float = RANGE_FRACTION,
    policy: str = "staleness-bounded",
    flood: str | None = None,
) -> dict:
    """Run one case of the matrix and return its digest.

    ``routing`` (``"hybrid"``, ``"aodv"`` or ``"dsdv"``) adds that
    router and a CBR traffic protocol, and the data-plane fields to the
    digest.  ``algorithm="mobdhop"`` or ``"maxmin"`` runs d-hop
    maintenance (d=2) without an intra-cluster router.  ``mobility``
    (``"gauss-markov"`` or ``"rwp-pause"``) replaces the epoch random
    waypoint model.  ``n_nodes`` and ``range_fraction`` size the network.
    ``policy`` names the adaptive HELLO beacon policy.  ``flood``
    (``"backbone"`` or ``"blind"``) adds one ``broadcast_flood`` per step.
    """
    params = NetworkParameters.from_fractions(
        n_nodes=n_nodes,
        range_fraction=range_fraction,
        velocity_fraction=0.05,
        messages=sizes or MessageSizes(),
    )
    sim = Simulation(params, _mobility(mobility, params.velocity), seed=seed)
    if faults:
        attach_faults(
            sim, build_plan(FAULTS, n_nodes, horizon=WARMUP + DURATION, seed=seed)
        )
    miss_limit = FAULTS.hello_miss_limit if faults else None
    if hello == "event":
        sim.attach(HelloProtocol(mode="event"))
    elif hello == "adaptive":
        sim.attach(
            HelloProtocol(
                mode="adaptive",
                policy=build_policy({"policy": policy}),
                signal_window=0.5,
                miss_limit=miss_limit,
            )
        )
    else:
        sim.attach(HelloProtocol(mode="periodic", interval=0.5, miss_limit=miss_limit))
    intra = None
    if algorithm in ("mobdhop", "maxmin"):
        dhop = {"mobdhop": MobDHopClustering, "maxmin": MaxMinDCluster}[algorithm]
        maintenance = sim.attach(
            DHopClusterMaintenanceProtocol(dhop(d=2), d=2)
        )
    else:
        clustering = {
            "lid": LowestIdClustering,
            "hcc": HighestConnectivityClustering,
            "dmac": DmacClustering,
        }[algorithm]()
        maintenance = ClusterMaintenanceProtocol(
            clustering, dynamic_priority=algorithm == "hcc"
        )
        intra = sim.attach(
            IntraClusterRoutingProtocol(
                maintenance, full_table=full_table, topology=topology
            )
        )
        sim.attach(maintenance)
    router = traffic = None
    if routing == "hybrid":
        router = sim.attach(HybridRoutingProtocol(maintenance, intra))
        adapter = HybridRouterAdapter(router)
    elif routing == "aodv":
        router = sim.attach(AodvProtocol(max_retries=2))
        adapter = AodvRouterAdapter(router)
    elif routing == "dsdv":
        router = sim.attach(DsdvProtocol())
        adapter = DsdvRouterAdapter(router)
    if router is not None:
        traffic = sim.attach(TrafficProtocol(_flows(seed, n_nodes), adapter))
    if flood is not None:
        sim.attach(_Flooder(maintenance, backbone=flood == "backbone"))
    ledger = sim.attach(OverheadLedger(maintenance))
    sim.run(duration=DURATION, warmup=WARMUP)

    state = maintenance.state
    snapshot = ledger.snapshot()
    digest = {
        "totals": {
            category: [totals.messages, totals.bits]
            for category, totals in sorted(sim.stats.totals.items())
        },
        "roles_sha256": _sha256(state.roles),
        "head_of_sha256": _sha256(state.head_of),
        "causes": snapshot["causes"],
        "ledger_sha256": _sha256_json(snapshot),
    }
    if isinstance(maintenance, ClusterMaintenanceProtocol):
        digest.update(
            head_changes_total=maintenance.head_changes_total,
            reaffiliations_total=maintenance.reaffiliations_total,
        )
    if router is not None:
        books = traffic.traffic
        # Every fifth node: the path grid is its same-cluster pairs.
        path_grid = range(0, n_nodes, 5)
        paths = [
            [source, destination, intra.path(sim, source, destination)]
            for source in path_grid
            for destination in path_grid
            if source != destination and state.same_cluster(source, destination)
        ]
        digest.update(
            traffic=[
                books.generated,
                books.delivered,
                books.dropped,
                sum(books.hop_counts),
            ],
            route_table_sha256=_sha256_json(_route_table(router)),
            intra_paths=len(paths),
            intra_paths_sha256=_sha256_json(paths),
        )
        if not isinstance(router, DsdvProtocol):
            digest.update(
                discoveries=router.discoveries, cache_hits=router.cache_hits
            )
    return digest


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256_json(payload) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_traced_case(faults: bool, seed: int) -> dict:
    """Run one traced row and return its digest.

    The stack is driven step by step the way :meth:`Simulation.run`
    drives it, so the ledger can be read between two measured steps.
    """
    saved = Simulation._instance_ids, obs_spans._span_ids
    Simulation._instance_ids = itertools.count()
    obs_spans._span_ids = itertools.count()
    try:
        with tempfile.TemporaryDirectory() as scratch:
            trace_path = Path(scratch) / "trace.jsonl"
            registry = MetricsRegistry()
            with JsonlTracer(trace_path) as tracer, observe(
                tracer=tracer, registry=registry
            ):
                params = NetworkParameters.from_fractions(
                    n_nodes=TRACED_N_NODES,
                    range_fraction=0.15,
                    velocity_fraction=0.05,
                )
                sim = Simulation(
                    params,
                    EpochRandomWaypointModel(params.velocity, epoch=1.0),
                    seed=seed,
                )
                if faults:
                    attach_faults(
                        sim,
                        build_plan(
                            FAULTS,
                            TRACED_N_NODES,
                            horizon=WARMUP + DURATION,
                            seed=seed,
                        ),
                    )
                sim.attach(HelloProtocol(mode="event"))
                maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
                intra = sim.attach(IntraClusterRoutingProtocol(maintenance))
                sim.attach(maintenance)
                router = sim.attach(HybridRoutingProtocol(maintenance, intra))
                ledger = attach_attribution(sim, maintenance)
                sim.attach(
                    TrafficProtocol(
                        _flows(seed, TRACED_N_NODES), HybridRouterAdapter(router)
                    )
                )
                warmup_steps = int(round(WARMUP / sim.dt))
                measured_steps = max(1, int(round(DURATION / sim.dt)))
                sim.trace_run_begin(DURATION, WARMUP)
                sim.stats.stop_measuring()
                for _ in range(warmup_steps):
                    sim.step()
                sim.stats.start_measuring()
                for index in range(measured_steps):
                    sim.step()
                    if index == measured_steps // 2:
                        snapshot_mid = _sha256_json(ledger.snapshot())
                sim.stats.stop_measuring()
                sim.notify_run_end()
                sim.trace_run_end()
                snapshot_end = _sha256_json(ledger.snapshot())
            return {
                "totals": {
                    category: [totals.messages, totals.bits]
                    for category, totals in sorted(sim.stats.totals.items())
                },
                "trace_sha256": _file_sha256(trace_path),
                "schema2_trace_sha256": hashlib.sha256(
                    as_schema_2(trace_path)
                ).hexdigest(),
                "snapshot_mid_sha256": snapshot_mid,
                "snapshot_end_sha256": snapshot_end,
                "openmetrics_trace_sha256": _text_sha256(
                    render_openmetrics(registry_from_trace(trace_path))
                ),
                "openmetrics_live_sha256": _text_sha256(
                    render_openmetrics(registry)
                ),
            }
    finally:
        Simulation._instance_ids, obs_spans._span_ids = saved


def regenerate_fixture(path: Path = FIXTURE) -> None:
    """Rewrite the fixture from the current code (deliberate bumps only)."""
    fixture = {
        "engine_schema_version": ENGINE_SCHEMA_VERSION,
        "digests": {name: run_case(**case) for name, case in CASES.items()},
        "send_site_digests": {
            name: run_case(**case) for name, case in SEND_SITE_CASES.items()
        },
        "traced_digests": {
            name: run_traced_case(**case) for name, case in TRACED_CASES.items()
        },
    }
    path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_matches_the_engine_schema_version(fixture):
    assert fixture["engine_schema_version"] == ENGINE_SCHEMA_VERSION
    assert set(fixture["digests"]) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stack_digest_is_byte_identical(name, fixture):
    digest = run_case(**CASES[name])
    assert _canonical(digest) == _canonical(fixture["digests"][name])


@pytest.mark.parametrize("name", sorted(SEND_SITE_CASES))
def test_send_site_digest_is_byte_identical(name, fixture):
    digest = run_case(**SEND_SITE_CASES[name])
    assert _canonical(digest) == _canonical(fixture["send_site_digests"][name])


def test_send_site_rows_cover_the_fixture(fixture):
    assert set(fixture["send_site_digests"]) == set(SEND_SITE_CASES)


@pytest.mark.parametrize("name", sorted(TRACED_CASES))
def test_traced_stack_digest_is_byte_identical(name, fixture):
    digest = run_traced_case(**TRACED_CASES[name])
    assert _canonical(digest) == _canonical(fixture["traced_digests"][name])


@pytest.mark.parametrize("mobility", ["gauss-markov", "rwp-pause"])
def test_mobility_rows_run_the_incremental_engine(mobility):
    # The rows gate the per-pair recheck budgets only if their motion
    # leaves the engine incremental steps between validations.
    params = NetworkParameters.from_fractions(
        n_nodes=N_NODES, range_fraction=RANGE_FRACTION, velocity_fraction=0.05
    )
    sim = Simulation(params, _mobility(mobility, params.velocity), seed=0)
    for _ in range(20):
        sim.step()
    assert sim._incremental.incremental_steps > 0


def test_traced_rows_cover_the_fixture(fixture):
    assert set(fixture["traced_digests"]) == set(TRACED_CASES)


def _causes(digests: dict) -> set:
    return {
        cause
        for digest in digests.values()
        for per_category in digest["causes"].values()
        for cause in per_category
    }


def test_matrix_exercises_every_repair_path(fixture):
    """The fixture is only a gate if the runs actually repair things."""
    causes = _causes(fixture["digests"])
    assert "unattributed" not in causes
    assert {
        "reaffiliation",
        "head-adjacency-repair",
        "head-merge-cascade",
        "intra-cluster-update",
        "crash-recovery",
        "loss-retransmit",
        "event-hello",
        "periodic-hello",
        "adaptive-hello-staleness",
        "dsdv-periodic",
        "dsdv-triggered",
        "route-discovery",
        "link-break-repair",
    } <= causes


def test_send_site_rows_reach_their_causes(fixture):
    causes = _causes(fixture["send_site_digests"])
    assert "unattributed" not in causes
    assert {
        "broadcast-flood",
        "adaptive-hello-analytic",
        "adaptive-hello-churn",
    } <= causes
