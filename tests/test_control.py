"""The adaptive beaconing control plane: policies, signals, wiring.

Covers the :mod:`repro.control` subsystem end to end: policy decision
rules against synthetic signals, the :class:`ControlSignals` engine tap,
the adaptive :class:`HelloProtocol` mode (including the bit-identity of
the ``fixed`` policy with the classic ``periodic`` mode, gated through
the compare CLI), scenario/beacon config validation, store-identity and
``jobs`` determinism of beacon-configured sweeps, and the control
telemetry (``control_window`` events, histograms, report and compare
surfaces).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.cli import main
from repro.control import (
    AnalyticRatePolicy,
    BeaconPolicy,
    ChurnFeedbackPolicy,
    ControlSignals,
    FixedPeriodPolicy,
    StalenessBoundedPolicy,
    build_policy,
)
from repro.core.linkdynamics import (
    bcv_link_change_rate,
    bcv_link_generation_rate,
)
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.obs import (
    CollectingTracer,
    JsonlTracer,
    MetricsRegistry,
    TraceDigest,
    compare_traces,
    observe,
)
from repro.obs import spans
from repro.obs.attribution import (
    CAUSE_CHURN_HELLO,
    CAUSE_PERIODIC_HELLO,
    CAUSE_STALENESS_HELLO,
    KNOWN_CAUSES,
    attach_attribution,
)
from repro.sim import HelloProtocol, Simulation
from repro.sim.beacon import hello_from_config


def _params(n=40, vf=0.05):
    return NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=0.15, velocity_fraction=vf
    )


def _sim(params, seed=0, tracer=None):
    return Simulation(
        params,
        EpochRandomWaypointModel(params.velocity, epoch=1.0),
        seed=seed,
        tracer=tracer,
    )


class FakeSignals:
    """Synthetic ControlSignals stand-in for policy unit tests."""

    def __init__(self, params, rates, degrees, windows_closed=1):
        self.params = params
        self.n_nodes = len(rates)
        self.rates = np.asarray(rates, dtype=float)
        self.degrees = np.asarray(degrees, dtype=float)
        self.windows_closed = windows_closed

    def link_change_rate(self, node):
        return float(self.rates[node])

    def degree(self, node):
        return float(self.degrees[node])

    def mean_link_change_rate(self):
        return float(self.rates.mean())


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------
class TestFixedPeriodPolicy:
    def test_returns_interval_verbatim(self):
        policy = FixedPeriodPolicy(interval=0.7)
        assert policy.next_interval(0, None) == 0.7
        assert policy.initial_interval() == 0.7
        assert not policy.adaptive
        assert policy.cause == CAUSE_PERIODIC_HELLO

    def test_spec_round_trips(self):
        policy = FixedPeriodPolicy(interval=0.7)
        rebuilt = build_policy(policy.spec())
        assert isinstance(rebuilt, FixedPeriodPolicy)
        assert rebuilt.interval == 0.7

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            FixedPeriodPolicy(interval=0.0)


class TestAnalyticRatePolicy:
    def test_inverse_of_eqn4_rate(self):
        params = _params()
        signals = FakeSignals(params, rates=[1.0], degrees=[6.0])
        policy = AnalyticRatePolicy()
        rate = bcv_link_generation_rate(6.0, params.tx_range, params.velocity)
        assert policy.next_interval(0, signals) == pytest.approx(
            min(8.0, max(0.1, 1.0 / rate))
        )

    def test_zero_degree_stretches_to_max(self):
        signals = FakeSignals(_params(), rates=[1.0], degrees=[0.0])
        assert AnalyticRatePolicy().next_interval(0, signals) == 8.0

    def test_clamps_to_bounds(self):
        params = _params(vf=0.45)
        signals = FakeSignals(params, rates=[1.0], degrees=[500.0])
        policy = AnalyticRatePolicy(min_interval=0.2, max_interval=2.0)
        assert policy.next_interval(0, signals) == 0.2

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="min_interval"):
            AnalyticRatePolicy(min_interval=2.0, max_interval=1.0)


class TestChurnFeedbackPolicy:
    def test_cold_start_holds_interval(self):
        signals = FakeSignals(
            _params(), rates=[0.0], degrees=[5.0], windows_closed=0
        )
        policy = ChurnFeedbackPolicy(interval=1.0)
        assert policy.next_interval(0, signals) == 1.0

    def test_high_churn_shrinks_low_churn_stretches(self):
        params = _params()
        expected = bcv_link_change_rate(5.0, params.tx_range, params.velocity)
        policy = ChurnFeedbackPolicy(interval=1.0)
        hot = FakeSignals(params, rates=[10.0 * expected], degrees=[5.0])
        assert policy.next_interval(0, hot) == pytest.approx(0.8)
        cold = FakeSignals(params, rates=[0.0], degrees=[5.0])
        assert policy.next_interval(0, cold) == pytest.approx(0.8 * 1.25)

    def test_multiplicative_convergence_respects_clamp(self):
        params = _params()
        policy = ChurnFeedbackPolicy(interval=1.0, min_interval=0.5)
        hot = FakeSignals(params, rates=[1e6], degrees=[5.0])
        for _ in range(50):
            interval = policy.next_interval(0, hot)
        assert interval == 0.5

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError, match="low"):
            ChurnFeedbackPolicy(low=1.5, high=1.0)
        with pytest.raises(ValueError, match="increase"):
            ChurnFeedbackPolicy(increase=0.9)
        with pytest.raises(ValueError, match="decrease"):
            ChurnFeedbackPolicy(decrease=1.1)


class TestStalenessBoundedPolicy:
    def test_cold_start_holds_interval(self):
        signals = FakeSignals(
            _params(), rates=[0.0], degrees=[5.0], windows_closed=0
        )
        assert StalenessBoundedPolicy(interval=1.0).next_interval(0, signals) == 1.0

    def test_inverts_staleness_model_for_explicit_target(self):
        signals = FakeSignals(_params(), rates=[2.0], degrees=[5.0])
        policy = StalenessBoundedPolicy(target=3.0, timeout_multiple=2.5)
        # T = target / (0.5 * lambda * (m + 0.5)) = 3 / (0.5 * 2 * 3) = 1.0
        assert policy.next_interval(0, signals) == pytest.approx(1.0)

    def test_default_target_self_calibrates_to_mean_rate(self):
        # Nodes at the network-mean rate keep the base interval; a node
        # at half the mean doubles it.
        signals = FakeSignals(_params(), rates=[2.0, 2.0, 1.0], degrees=[5.0] * 3)
        policy = StalenessBoundedPolicy(interval=1.0)
        mean = signals.mean_link_change_rate()
        assert policy.next_interval(0, signals) == pytest.approx(mean / 2.0)
        assert policy.next_interval(2, signals) == pytest.approx(mean / 1.0)

    def test_quiet_node_stretches_to_max(self):
        signals = FakeSignals(_params(), rates=[0.0, 4.0], degrees=[5.0, 5.0])
        assert StalenessBoundedPolicy().next_interval(0, signals) == 8.0

    def test_rejects_timeout_multiple_at_or_below_one(self):
        with pytest.raises(ValueError, match="timeout_multiple"):
            StalenessBoundedPolicy(timeout_multiple=1.0)


class TestBuildPolicy:
    def test_policy_instances_pass_through(self):
        policy = ChurnFeedbackPolicy()
        assert build_policy(policy) is policy

    def test_unknown_policy_lists_valid_names(self):
        with pytest.raises(ValueError) as error:
            build_policy({"policy": "psychic"})
        message = str(error.value)
        assert "psychic" in message
        for name in ("fixed", "analytic-rate", "churn-feedback", "staleness-bounded"):
            assert name in message

    def test_unknown_parameter_lists_valid_keys(self):
        with pytest.raises(ValueError) as error:
            build_policy({"policy": "staleness-bounded", "margni": 1.1})
        message = str(error.value)
        assert "margni" in message
        assert "margin" in message

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="dict"):
            build_policy(42)

    def test_every_policy_spec_round_trips(self):
        for cls in (
            FixedPeriodPolicy,
            AnalyticRatePolicy,
            ChurnFeedbackPolicy,
            StalenessBoundedPolicy,
        ):
            policy = cls()
            rebuilt = build_policy(policy.spec())
            assert type(rebuilt) is cls
            assert rebuilt.spec() == policy.spec()

    def test_every_policy_has_distinct_known_cause(self):
        causes = {
            cls.cause
            for cls in (
                AnalyticRatePolicy,
                ChurnFeedbackPolicy,
                StalenessBoundedPolicy,
            )
        }
        assert len(causes) == 3
        assert causes <= set(KNOWN_CAUSES)


# ---------------------------------------------------------------------------
# ControlSignals
# ---------------------------------------------------------------------------
class TestControlSignals:
    def test_windows_close_and_rates_track_churn(self):
        params = _params(vf=0.2)
        sim = _sim(params, seed=1)
        signals = ControlSignals(sim, window=1.0, alpha=0.5)
        steps = int(round(5.0 / sim.dt))
        for _ in range(steps):
            sim.step()
        assert signals.windows_closed >= 4
        assert signals.mean_link_change_rate() > 0.0
        assert signals.last_window is not None
        assert signals.last_window["elapsed"] == pytest.approx(1.0, rel=0.1)
        # Faster networks churn more.
        slow_sim = _sim(_params(vf=0.01), seed=1)
        slow = ControlSignals(slow_sim, window=1.0, alpha=0.5)
        for _ in range(steps):
            slow_sim.step()
        assert signals.mean_link_change_rate() > slow.mean_link_change_rate()

    def test_tap_is_a_pure_observer(self):
        params = _params()
        steps = int(round(2.0 / params.side))  # arbitrary small count
        baseline = _sim(params, seed=7)
        for _ in range(40):
            baseline.step()
        reference = baseline.positions.copy()
        tapped = _sim(params, seed=7)
        ControlSignals(tapped, window=1.0, alpha=0.5)
        for _ in range(40):
            tapped.step()
        assert np.array_equal(reference, tapped.positions)

    def test_validation(self):
        sim = _sim(_params())
        with pytest.raises(ValueError, match="window"):
            ControlSignals(sim, window=0.0)
        with pytest.raises(ValueError, match="alpha"):
            ControlSignals(sim, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            ControlSignals(sim, alpha=1.5)


# ---------------------------------------------------------------------------
# HelloProtocol adaptive mode
# ---------------------------------------------------------------------------
class TestHelloProtocolValidation:
    def test_timeout_must_exceed_interval(self):
        with pytest.raises(ValueError, match="timeout"):
            HelloProtocol("periodic", interval=1.0, timeout=1.0)
        with pytest.raises(ValueError, match="timeout"):
            HelloProtocol("periodic", interval=1.0, timeout=0.5)

    def test_default_timeout_is_two_point_five_intervals(self):
        hello = HelloProtocol("periodic", interval=0.4)
        assert hello.timeout == pytest.approx(1.0)

    def test_adaptive_requires_policy(self):
        with pytest.raises(ValueError, match="policy"):
            HelloProtocol("adaptive")

    def test_policy_requires_adaptive_mode(self):
        with pytest.raises(ValueError, match="adaptive"):
            HelloProtocol("periodic", policy={"policy": "fixed"})


class TestHelloFromConfig:
    def test_unknown_keys_list_valid_keys(self):
        with pytest.raises(ValueError) as error:
            hello_from_config({"mode": "periodic", "intervall": 2.0})
        message = str(error.value)
        assert "intervall" in message
        assert "interval" in message

    def test_adaptive_without_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            hello_from_config({"mode": "adaptive"})

    def test_adaptive_top_level_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            hello_from_config(
                {"mode": "adaptive", "policy": "fixed", "interval": 2.0}
            )

    def test_policy_string_shorthand(self):
        hello = hello_from_config(
            {"mode": "adaptive", "policy": "churn-feedback"}
        )
        assert isinstance(hello.policy, ChurnFeedbackPolicy)

    def test_policy_outside_adaptive_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            hello_from_config({"mode": "periodic", "policy": "fixed"})
        with pytest.raises(ValueError, match="adaptive"):
            hello_from_config({"mode": "event", "window": 2.0})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="dict"):
            hello_from_config("adaptive")


def _run_traced(path, beacon, seed=3, duration=6.0, n=40):
    """One traced run with reset id counters, for byte comparisons."""
    Simulation._instance_ids = itertools.count()
    spans._span_ids = itertools.count()
    params = _params(n=n)
    with JsonlTracer(path) as tracer:
        sim = _sim(params, seed=seed, tracer=tracer)
        if beacon is None:
            sim.attach(HelloProtocol("periodic", interval=1.0))
        else:
            sim.attach(hello_from_config(beacon))
        sim.run(duration=duration, warmup=1.0)
    return path


class TestFixedPolicyBitIdentity:
    def test_traces_are_byte_identical_and_compare_clean(self, tmp_path, capsys):
        periodic = _run_traced(tmp_path / "periodic.jsonl", None)
        fixed = _run_traced(
            tmp_path / "fixed.jsonl",
            {"mode": "adaptive", "policy": {"policy": "fixed", "interval": 1.0}},
        )
        assert periodic.read_bytes() == fixed.read_bytes()
        # The compare gate agrees: self-diff within threshold, exit 0.
        code = main(["compare", str(periodic), str(fixed)])
        out = capsys.readouterr().out
        assert code == 0
        assert "WITHIN THRESHOLD" in out

    def test_fixed_policy_emits_no_control_telemetry(self):
        tracer = CollectingTracer()
        params = _params()
        sim = _sim(params, seed=2, tracer=tracer)
        hello = sim.attach(
            hello_from_config(
                {"mode": "adaptive", "policy": {"policy": "fixed"}}
            )
        )
        sim.run(duration=4.0, warmup=0.5)
        assert hello.signals is None
        assert tracer.of("control_window") == []


class TestAdaptiveTelemetry:
    def test_control_window_events_and_heterogeneous_timers(self):
        tracer = CollectingTracer()
        params = _params(vf=0.1)
        sim = _sim(params, seed=2, tracer=tracer)
        hello = sim.attach(
            hello_from_config(
                {"mode": "adaptive", "policy": "staleness-bounded"}
            )
        )
        sim.run(duration=6.0, warmup=1.0)
        windows = tracer.of("control_window")
        assert windows
        record = windows[-1]
        assert record["policy"] == "staleness-bounded"
        assert record["beacons"] > 0
        assert record["min_interval"] <= record["mean_interval"]
        assert record["mean_interval"] <= record["max_interval"]
        assert record["staleness"] >= 0.0
        # Per-node advertised timeouts actually diverge.
        assert len(np.unique(hello._advertised_timeout)) > 1

    def test_adaptive_hellos_attributed_to_policy_cause(self):
        tracer = CollectingTracer()
        params = _params(vf=0.1)
        sim = _sim(params, seed=4, tracer=tracer)
        sim.attach(
            hello_from_config(
                {"mode": "adaptive", "policy": "churn-feedback"}
            )
        )
        attach_attribution(sim)
        sim.run(duration=4.0, warmup=0.5)
        records = tracer.of("attribution")
        assert records
        causes = records[-1]["causes"]["hello"]
        assert CAUSE_CHURN_HELLO in causes
        assert causes[CAUSE_CHURN_HELLO]["messages"] > 0
        # Every adaptive HELLO carries the policy cause — nothing leaks
        # into the periodic bucket — and the ledger reconciles bitwise.
        assert CAUSE_PERIODIC_HELLO not in causes
        assert records[-1]["reconciled"] is True

    def test_beacon_interval_histograms_exported(self):
        registry = MetricsRegistry()
        params = _params(vf=0.1)
        with observe(registry=registry):
            sim = _sim(params, seed=2)
            sim.attach(
                hello_from_config(
                    {"mode": "adaptive", "policy": "staleness-bounded"}
                )
            )
            sim.run(duration=5.0, warmup=1.0)
        names = {metric.name for metric in registry.collect()}
        assert {
            "beacon_interval",
            "neighbor_staleness",
            "detection_latency",
        } <= names
        interval_hist = next(
            metric
            for metric in registry.collect()
            if metric.name == "beacon_interval"
        )
        assert interval_hist.count > 0
        assert interval_hist.labels["policy"] == "staleness-bounded"


class TestCompareControlRows:
    def test_digest_and_compare_carry_control_aggregates(self, tmp_path, capsys):
        trace = _run_traced(
            tmp_path / "adaptive.jsonl",
            {"mode": "adaptive", "policy": "staleness-bounded"},
        )
        digest = TraceDigest.from_trace(trace)
        assert digest.control
        assert digest.control["mean_interval"] > 0.0
        report = compare_traces(trace, trace)
        control_rows = [
            row for row in report.rows if row.metric.startswith("control:")
        ]
        assert control_rows
        assert all(not row.gating for row in control_rows)
        # Self-compare stays clean: control rows never gate.
        code = main(["compare", str(trace), str(trace)])
        assert code == 0
        assert "control:" in capsys.readouterr().out

    def test_report_renders_adaptive_beaconing_section(self, tmp_path, capsys):
        trace = _run_traced(
            tmp_path / "adaptive.jsonl",
            {"mode": "adaptive", "policy": "churn-feedback"},
        )
        out_file = tmp_path / "report.md"
        code = main(["report", str(trace), "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "### Adaptive beaconing" in text
        assert "churn-feedback" in text
        assert "Engine schema version" in text


# ---------------------------------------------------------------------------
# Scenario and sweep integration
# ---------------------------------------------------------------------------
class TestScenarioBeaconBlock:
    def _config(self, beacon):
        from repro.scenario import ScenarioConfig

        return ScenarioConfig(
            name="t",
            n_nodes=30,
            range_fraction=0.2,
            velocity_fraction=0.05,
            beacon=beacon,
            duration=2.0,
            warmup=0.5,
        )

    def test_beacon_block_round_trips(self):
        from repro.scenario import ScenarioConfig

        config = self._config(
            {"mode": "adaptive", "policy": {"policy": "staleness-bounded"}}
        )
        rebuilt = ScenarioConfig.from_dict(config.to_dict())
        assert rebuilt.beacon == config.beacon

    def test_invalid_beacon_block_rejected_at_load(self):
        with pytest.raises(ValueError, match="valid policies"):
            self._config({"mode": "adaptive", "policy": "psychic"})
        with pytest.raises(ValueError, match="valid keys"):
            self._config({"mode": "periodic", "intervall": 1.0})

    def test_run_scenario_with_adaptive_beacon(self):
        from repro.scenario import run_scenario

        report = run_scenario(
            self._config({"mode": "adaptive", "policy": "analytic-rate"})
        )
        assert report.frequencies["hello"] > 0.0


class TestSweepBeaconPlumbing:
    def test_jobs_does_not_change_adaptive_sweep_results(self):
        from repro.analysis.sweep import measure_point

        params = _params(n=30)
        beacon = {"mode": "adaptive", "policy": "staleness-bounded"}
        kwargs = dict(
            parameter_value=params.velocity,
            seeds=2,
            duration=2.0,
            warmup=0.5,
            beacon=beacon,
        )
        serial = measure_point(params, jobs=1, **kwargs)
        parallel = measure_point(params, jobs=2, **kwargs)
        assert serial.measured == parallel.measured
        assert serial.measured_head_ratio == parallel.measured_head_ratio

    def test_beacon_spec_changes_store_identity(self):
        from repro.analysis.parallel import task_identity
        from repro.analysis.sweep import _run_once_task
        from repro.run_spec import RunSpec
        from repro.store import fingerprint

        params = _params(n=30)
        classic = RunSpec(params, 0, 2.0, 0.5)
        beacon = RunSpec(
            params, 0, 2.0, 0.5, beacon={"mode": "adaptive", "policy": "churn-feedback"}
        )
        key_classic = fingerprint(task_identity(_run_once_task, classic))
        key_beacon = fingerprint(task_identity(_run_once_task, beacon))
        assert key_classic != key_beacon

    def test_invalid_beacon_rejected_before_running(self):
        from repro.analysis.sweep import measure_point

        with pytest.raises(ValueError, match="valid policies"):
            measure_point(
                _params(n=30),
                parameter_value=1.0,
                seeds=1,
                duration=1.0,
                warmup=0.2,
                beacon={"mode": "adaptive", "policy": "psychic"},
            )


class TestCliBeaconPolicy:
    def test_sweep_accepts_beacon_policy_flag(self, tmp_path, capsys):
        params = _params(n=30)
        velocity = f"{params.velocity:.6f}"
        code = main(
            [
                "sweep",
                "velocity",
                velocity,
                "--n",
                "30",
                "--seeds",
                "1",
                "--duration",
                "2.0",
                "--beacon-policy",
                "staleness-bounded",
            ]
        )
        assert code == 0
        assert "f_hello" in capsys.readouterr().out

    def test_unknown_beacon_policy_is_usage_error(self, capsys):
        code = main(
            [
                "sweep",
                "velocity",
                "0.05",
                "--beacon-policy",
                "psychic",
            ]
        )
        assert code == 2
        assert "valid policies" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Frontier experiment plumbing (no simulation runs)
# ---------------------------------------------------------------------------
class TestFrontierTable:
    def test_dominance_verdicts(self):
        from repro.experiments.adaptive_beaconing import frontier_table

        params = _params(n=30)
        roster = (("fixed", {}), ("smart", {}), ("wasteful", {}))
        measured = {
            (0, "fixed"): {"f_hello": 1.0, "staleness": 4.0},
            (0, "smart"): {"f_hello": 0.9, "staleness": 3.9},
            (0, "wasteful"): {"f_hello": 1.2, "staleness": 3.0},
        }
        table = frontier_table(
            [0.05], [params], measured, roster, "frontier"
        )
        verdicts = {row[1]: row[5] for row in table.rows}
        assert verdicts == {
            "fixed": "baseline",
            "smart": "dominates",
            "wasteful": "-",
        }
        assert any("dominance: smart@v/a=0.050" in note for note in table.notes)

    def test_registered_in_experiment_registry(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "adaptive-beaconing" in EXPERIMENTS
