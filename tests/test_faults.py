"""Fault-injection tests: plans, degradation paths, chaos determinism.

The contract under test (DESIGN.md / repro.faults): fault plans are a
pure function of ``(config, n_nodes, horizon, seed)``; an inert plan
replays bit-identically to running without one; the hardened stack
keeps P1/P2 through crash/recover storms under a strict auditor; and
``jobs`` never changes faulted sweep results.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.clustering import (
    ClusterMaintenanceProtocol,
    DmacClustering,
    HighestConnectivityClustering,
    LowestIdClustering,
)
from repro.core.params import NetworkParameters
from repro.faults import (
    FAULT_CONFIG_KEYS,
    FaultConfig,
    FaultPlan,
    OutageSpec,
    attach_faults,
    build_plan,
    fault_config_from_dict,
)
from repro.mobility import ConstantVelocityModel, EpochRandomWaypointModel
from repro.obs import context as obs_context
from repro.obs.audit import InvariantAuditor
from repro.obs.tracer import CollectingTracer
from repro.routing import AodvProtocol, IntraClusterRoutingProtocol
from repro.sim import HelloProtocol, Simulation


def _params(n=60, vf=0.03):
    return NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=0.2, velocity_fraction=vf
    )


def _sim(params, seed=0, epoch=1.0):
    return Simulation(
        params, EpochRandomWaypointModel(params.velocity, epoch=epoch), seed=seed
    )


# ---------------------------------------------------------------------
# Declarative config
# ---------------------------------------------------------------------
class TestFaultConfig:
    def test_round_trip(self):
        config = fault_config_from_dict(
            {
                "crash_rate": 0.01,
                "crash_recover_after": 2.0,
                "loss_rate": 0.1,
                "hello_miss_limit": 3,
                "route_retries": 2,
                "outages": [
                    {"center": [0.2, 0.8], "radius": 0.1, "start": 1.0}
                ],
            }
        )
        assert fault_config_from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown faults keys.*crash_rte"):
            fault_config_from_dict({"crash_rte": 0.1})

    def test_unknown_outage_key_rejected(self):
        with pytest.raises(ValueError, match="unknown outage keys"):
            fault_config_from_dict(
                {"outages": [{"radius": 0.1, "centre": [0.5, 0.5]}]}
            )

    @pytest.mark.parametrize(
        "block",
        [
            {"crash_rate": -0.1},
            {"loss_rate": 1.0},
            {"loss_rate": -0.2},
            {"crash_recover_after": 0.0},
            {"hello_miss_limit": 0},
            {"route_retries": -1},
            {"route_retry_backoff": 0.0},
            {"outages": [{"radius": 0.0}]},
        ],
    )
    def test_invalid_values_rejected(self, block):
        with pytest.raises(ValueError):
            fault_config_from_dict(block)

    def test_inert_property(self):
        assert FaultConfig().inert
        assert fault_config_from_dict({"hello_miss_limit": 5}).inert
        assert not FaultConfig(crash_rate=0.1).inert
        assert not FaultConfig(loss_rate=0.1).inert
        assert not FaultConfig(outages=(OutageSpec(),)).inert

    def test_all_keys_constructible(self):
        block = {key: getattr(FaultConfig(), key) for key in FAULT_CONFIG_KEYS}
        assert fault_config_from_dict(block) == FaultConfig()


class TestOutageSpec:
    def test_active_window(self):
        spec = OutageSpec(start=1.0, duration=2.0)
        assert not spec.active_at(0.5)
        assert spec.active_at(1.0)
        assert spec.active_at(2.9)
        assert not spec.active_at(3.0)
        assert OutageSpec(start=1.0).active_at(1e9)  # open-ended

    def test_center_moves_and_wraps(self):
        spec = OutageSpec(center=(0.9, 0.5), velocity=(0.2, 0.0), start=0.0)
        center = spec.center_at(1.0, side=10.0)
        np.testing.assert_allclose(center, [1.0, 5.0])  # wrapped past 10


# ---------------------------------------------------------------------
# Compiled schedule
# ---------------------------------------------------------------------
class TestBuildPlan:
    CONFIG = {"crash_rate": 0.05, "crash_recover_after": 1.5}

    def test_pure_function_of_inputs(self):
        one = build_plan(self.CONFIG, 80, horizon=20.0, seed=7)
        two = build_plan(self.CONFIG, 80, horizon=20.0, seed=7)
        assert one == two

    def test_seed_changes_schedule(self):
        one = build_plan(self.CONFIG, 80, horizon=20.0, seed=7)
        two = build_plan(self.CONFIG, 80, horizon=20.0, seed=8)
        assert one.events != two.events
        assert one.loss_entropy != two.loss_entropy

    def test_crashes_paired_with_recoveries(self):
        plan = build_plan(self.CONFIG, 80, horizon=20.0, seed=7)
        crashes = [e for e in plan.events if e[1] == "crash"]
        recoveries = [e for e in plan.events if e[1] == "recover"]
        assert crashes and len(crashes) == len(recoveries)
        recover_after = self.CONFIG["crash_recover_after"]
        times = sorted(t for t, _, _ in recoveries)
        expected = sorted(t + recover_after for t, _, _ in crashes)
        np.testing.assert_allclose(times, expected)

    def test_zero_rate_plan_is_inert(self):
        plan = build_plan({}, 80, horizon=20.0, seed=7)
        assert plan.events == ()
        assert plan.inert

    def test_permanent_crashes_have_no_recoveries(self):
        plan = build_plan({"crash_rate": 0.05}, 80, horizon=20.0, seed=7)
        assert plan.events
        assert all(kind == "crash" for _, kind, _ in plan.events)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_plan({}, 0, horizon=20.0, seed=7)
        with pytest.raises(ValueError):
            build_plan({}, 80, horizon=0.0, seed=7)


# ---------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------
def _explicit_plan(events, **config):
    return FaultPlan(
        config=FaultConfig(**config), horizon=100.0, events=tuple(events)
    )


class TestFaultInjector:
    def test_crash_then_recover_flips_radio_mask(self):
        sim = _sim(_params())
        plan = _explicit_plan(
            [(0.5, "crash", 3), (2.0, "recover", 3)], crash_rate=0.001
        )
        injector = attach_faults(sim, plan)
        while sim.time < 1.0:
            sim.step()
        assert not sim.active[3]
        assert injector.crashes_total == 1
        while sim.time < 2.5:
            sim.step()
        assert sim.active[3]
        assert injector.recoveries_total == 1

    def test_double_attach_rejected(self):
        sim = _sim(_params())
        attach_faults(sim, build_plan({}, sim.n_nodes, 10.0, seed=0))
        with pytest.raises(ValueError, match="already attached"):
            attach_faults(sim, build_plan({}, sim.n_nodes, 10.0, seed=0))

    def test_outage_region_silences_and_releases(self):
        sim = _sim(_params())
        # A region covering everything for one simulated second.
        spec = OutageSpec(center=(0.5, 0.5), radius=0.9, start=1.0, duration=1.0)
        injector = attach_faults(
            sim, _explicit_plan([], outages=(spec,))
        )
        while sim.time < 1.5:
            sim.step()
        assert not sim.active.any()
        assert injector.outage_enters_total == sim.n_nodes
        while sim.time < 2.5:
            sim.step()
        assert sim.active.all()
        assert injector.outage_exits_total == sim.n_nodes

    def test_fault_events_traced(self):
        tracer = CollectingTracer()
        with obs_context.observe(tracer=tracer):
            sim = _sim(_params())
            attach_faults(
                sim,
                _explicit_plan(
                    [(0.5, "crash", 1), (1.5, "recover", 1)],
                    crash_rate=0.001,
                    loss_rate=0.25,
                ),
            )
            while sim.time < 2.0:
                sim.step()
        events = [(r["event"], r.get("kind")) for r in tracer.records]
        assert ("fault_inject", "loss") in events  # attach-time marker
        assert ("fault_inject", "crash") in events
        assert ("fault_clear", "crash") in events


#: Global-counter fields that legitimately differ between two sims in
#: one process (ids are drawn from process-wide counters).
_ID_FIELDS = ("sim", "span", "parent", "src_span", "dst_span")


def _normalized(records):
    return [
        {k: v for k, v in record.items() if k not in _ID_FIELDS}
        for record in records
    ]


def _traced_run(seed, plan_factory, steps=30):
    tracer = CollectingTracer()
    with obs_context.observe(tracer=tracer):
        sim = _sim(_params(), seed=seed)
        plan = plan_factory(sim)
        if plan is not None:
            attach_faults(sim, plan)
        sim.attach(HelloProtocol(mode="event"))
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        sim.attach(maintenance)
        for _ in range(steps):
            sim.step()
        positions = sim.positions.copy()
        sent = {
            category: totals.messages
            for category, totals in sim.stats.totals.items()
        }
    return _normalized(tracer.records), positions, sent


class TestInertPlanIdentity:
    def test_zero_loss_plan_bit_identical_to_no_plan(self):
        """An attached but inert plan must not perturb the run at all."""
        bare = _traced_run(42, lambda sim: None)
        inert = _traced_run(
            42, lambda sim: build_plan({}, sim.n_nodes, 10.0, seed=42)
        )
        assert bare[0] == inert[0]
        np.testing.assert_array_equal(bare[1], inert[1])
        assert bare[2] == inert[2]

    def test_zero_loss_with_degradation_knobs_still_inert(self):
        bare = _traced_run(7, lambda sim: None)
        knobs = _traced_run(
            7,
            lambda sim: build_plan(
                {"hello_miss_limit": 3, "route_retries": 2},
                sim.n_nodes,
                10.0,
                seed=7,
            ),
        )
        assert bare[0] == knobs[0]


# ---------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------
class TestGracefulDegradation:
    def test_event_hello_loss_triggers_retransmits(self):
        sim = _sim(_params())
        injector = attach_faults(
            sim, _explicit_plan([], loss_rate=0.3)
        )
        sim.attach(HelloProtocol(mode="event"))
        for _ in range(40):
            sim.step()
        assert injector.hello_losses_total > 0
        assert injector.hello_retransmits_total > 0

    def test_event_hello_retransmits_need_no_dense_adjacency(self):
        sim = _sim(_params())
        injector = attach_faults(sim, _explicit_plan([], loss_rate=0.3))
        sim.attach(HelloProtocol(mode="event"))
        for _ in range(40):
            sim.step()
            # Retransmit checks are point link queries on the edge set.
            assert sim._adjacency_cache is None
        assert injector.hello_retransmits_total > 0

    def test_periodic_hello_miss_tolerance(self):
        sim = _sim(_params())
        injector = attach_faults(sim, _explicit_plan([], loss_rate=0.3))
        sim.attach(HelloProtocol(mode="periodic", interval=0.5, miss_limit=3))
        for _ in range(60):
            sim.step()
        assert injector.hello_losses_total > 0

    def test_miss_limit_rejected_in_event_mode(self):
        with pytest.raises(ValueError, match="miss_limit"):
            HelloProtocol(mode="event", miss_limit=3)

    def test_aodv_retries_with_capped_backoff(self):
        # Nodes far outside radio range: every discovery fails, so the
        # retry chain runs to its cap.
        params = NetworkParameters.from_side(
            n_nodes=4, side=1000.0, tx_range=1.0, velocity=0.0
        )
        sim = Simulation(params, ConstantVelocityModel(0.0), seed=1)
        aodv = sim.attach(
            AodvProtocol(max_retries=2, retry_backoff=0.2, retry_backoff_cap=0.3)
        )
        assert aodv.discover(sim, 0, 3) is None
        assert aodv._pending  # retry scheduled
        for _ in range(20):
            sim.step()
        assert aodv.route_retries == 2
        assert not aodv._pending  # chain exhausted at the cap

    def test_aodv_retry_disabled_by_default(self):
        params = NetworkParameters.from_side(
            n_nodes=4, side=1000.0, tx_range=1.0, velocity=0.0
        )
        sim = Simulation(params, ConstantVelocityModel(0.0), seed=1)
        aodv = sim.attach(AodvProtocol())
        assert aodv.discover(sim, 0, 3) is None
        assert not aodv._pending

    @pytest.mark.parametrize(
        "algorithm",
        [LowestIdClustering(), HighestConnectivityClustering(), DmacClustering()],
        ids=["lid", "hcc", "dmac"],
    )
    def test_crash_storm_keeps_invariants_strict(self, algorithm):
        """P1/P2 hold through a crash/recover storm, strictly audited."""
        sim = _sim(_params(n=80), seed=3)
        attach_faults(
            sim,
            build_plan(
                {"crash_rate": 0.02, "crash_recover_after": 1.0, "loss_rate": 0.1},
                sim.n_nodes,
                horizon=8.0,
                seed=3,
            ),
        )
        sim.attach(HelloProtocol(mode="event"))
        maintenance = ClusterMaintenanceProtocol(algorithm)
        sim.attach(IntraClusterRoutingProtocol(maintenance))
        sim.attach(maintenance)
        auditor = sim.attach(
            InvariantAuditor(maintenance, every=0.5, strict=True)
        )
        while sim.time < 8.0:
            sim.step()  # strict auditor raises on any violation
        assert auditor.audits > 0
        assert auditor.violations == 0

    def test_crashed_head_members_reaffiliate(self):
        sim = _sim(_params(n=60), seed=5)
        sim.attach(HelloProtocol(mode="event"))
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        sim.attach(maintenance)
        for _ in range(10):
            sim.step()
        state = maintenance.state
        heads = [n for n in range(sim.n_nodes) if state.head_of[n] == n]
        victim = next(
            h for h in heads if any(state.head_of[m] == h for m in range(sim.n_nodes) if m != h)
        )
        attach_faults(
            sim,
            _explicit_plan([(sim.time + sim.dt / 2, "crash", victim)], crash_rate=0.001),
        )
        for _ in range(5):
            sim.step()
        from repro.clustering import check_properties

        assert check_properties(maintenance.state, sim.adjacency).ok


# ---------------------------------------------------------------------
# Sweep / scenario integration
# ---------------------------------------------------------------------
class TestSweepIntegration:
    FAULTS = {"crash_rate": 0.01, "crash_recover_after": 1.0, "loss_rate": 0.1}

    def test_jobs_do_not_change_faulted_results(self):
        from repro.analysis.sweep import measure_point

        params = _params(n=40)
        kwargs = dict(
            seeds=2, duration=2.0, warmup=0.5, faults=self.FAULTS
        )
        serial = measure_point(params, 0.03, jobs=1, **kwargs)
        fanned = measure_point(params, 0.03, jobs=2, **kwargs)
        assert serial.to_dict() == fanned.to_dict()

    def test_invalid_faults_rejected_before_workers(self):
        from repro.analysis.sweep import measure_point

        with pytest.raises(ValueError, match="unknown faults keys"):
            measure_point(
                _params(n=40), 0.03, seeds=1, duration=1.0, faults={"bogus": 1}
            )

    def test_faults_change_task_identity_but_not_classic_tasks(self):
        from repro.store import fingerprint, task_identity
        from repro.analysis.sweep import _run_once_task
        from repro.run_spec import RunSpec

        params = _params(n=40)
        classic = RunSpec(params, 0, 2.0, 0.5)
        faulted = RunSpec(params, 0, 2.0, 0.5, faults=self.FAULTS)
        key_classic = fingerprint(task_identity(_run_once_task, classic))
        key_faulted = fingerprint(task_identity(_run_once_task, faulted))
        assert key_classic != key_faulted
        legacy = (params, 0, 2.0, 0.5, 1.0, LowestIdClustering())
        assert key_classic == fingerprint(task_identity(_run_once_task, legacy))

    @pytest.mark.parametrize(
        "field", [{"routing": "none"}, {"boundary": "reflect"}]
    )
    def test_non_sweep_fields_change_task_identity(self, field):
        from repro.store import fingerprint, task_identity
        from repro.analysis.sweep import _run_once_task
        from repro.run_spec import RunSpec

        params = _params(n=40)
        sweep = RunSpec(params, 0, 2.0, 0.5, faults=self.FAULTS)
        other = RunSpec(params, 0, 2.0, 0.5, faults=self.FAULTS, **field)
        key_sweep = fingerprint(task_identity(_run_once_task, sweep))
        key_other = fingerprint(task_identity(_run_once_task, other))
        assert key_sweep != key_other

    def test_scenario_faults_block(self):
        from repro.scenario import ScenarioConfig, run_scenario

        config = ScenarioConfig.from_dict(
            {
                "name": "chaos-test",
                "n_nodes": 40,
                "range_fraction": 0.2,
                "velocity_fraction": 0.03,
                "duration": 2.0,
                "warmup": 0.5,
                "seed": 1,
                "faults": {
                    "crash_rate": 0.01,
                    "crash_recover_after": 1.0,
                    "loss_rate": 0.1,
                    "hello_miss_limit": 3,
                },
            }
        )
        report = run_scenario(config)
        assert report is not None

    def test_scenario_rejects_unknown_fault_keys(self):
        from repro.scenario import ScenarioConfig

        with pytest.raises(ValueError, match="unknown faults keys"):
            ScenarioConfig.from_dict(
                {
                    "name": "bad",
                    "n_nodes": 40,
                    "range_fraction": 0.2,
                    "velocity_fraction": 0.03,
                    "duration": 2.0,
                    "faults": {"crash_rat": 0.01},
                }
            )

    def test_chaos_table_ratios(self):
        from repro.experiments.chaos_overhead import chaos_table

        roster = (("none", None), ("crash", {"crash_rate": 0.01}))
        measured = {
            (0, "none"): {"f_hello": 1.0, "f_cluster": 1.0, "f_route": 2.0},
            (0, "crash"): {"f_hello": 1.0, "f_cluster": 2.0, "f_route": 3.0},
        }
        table = chaos_table([0.05], measured, roster, "test")
        rows = table.rows
        assert rows[0][-1] == "baseline"
        assert rows[1][-1] == "1.500x"
        assert any("1.500x" in note for note in table.notes)


# ---------------------------------------------------------------------
# Worker-pool resilience (satellite: BrokenProcessPool retry)
# ---------------------------------------------------------------------
def _die_once(task):
    flag, value = task
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)  # simulate a worker killed mid-task
    return value * 2


def _die_always(task):
    os._exit(1)


class TestBrokenPoolRetry:
    @pytest.fixture(autouse=True)
    def _fast_backoff(self, monkeypatch):
        import repro.analysis.parallel as parallel

        monkeypatch.setattr(parallel, "_POOL_RETRY_BACKOFF", 0.01)
        yield
        parallel._discard_pool()

    def test_transient_worker_death_is_retried(self, tmp_path):
        from repro.analysis.parallel import run_tasks
        from repro.obs.metrics import MetricsRegistry

        flag = str(tmp_path / "died")
        registry = MetricsRegistry()
        with obs_context.observe(registry=registry):
            results = run_tasks(
                _die_once, [(flag, v) for v in range(6)], jobs=2
            )
        assert results == [v * 2 for v in range(6)]
        gauges = {
            row["name"]: row["value"]
            for row in registry.to_dict()["gauges"]
        }
        assert gauges.get("worker_retries", 0) >= 1

    def test_persistent_worker_death_raises(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.analysis.parallel import run_tasks

        with pytest.raises(BrokenProcessPool):
            run_tasks(_die_always, list(range(4)), jobs=2)


# ---------------------------------------------------------------------
# CLI interrupt handling (satellite: clean Ctrl-C)
# ---------------------------------------------------------------------
class TestCliInterrupt:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        from repro import cli

        def _interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run_simulate", _interrupted)
        code = cli.main(["simulate", "whatever.json"])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err
