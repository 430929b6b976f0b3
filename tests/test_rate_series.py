"""Tests for windowed rate series and dynamic-priority maintenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    ClusterMaintenanceProtocol,
    HighestConnectivityClustering,
    check_properties,
)
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import MessageStats, RateSeries, Simulation
from repro.sim.beacon import HelloProtocol


class TestRateSeries:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RateSeries(MessageStats(10), "hello", 0.0)

    def test_windows_accumulate(self):
        stats = MessageStats(10)
        stats.start_measuring()
        series = RateSeries(stats, "hello", window=1.0)
        series.sample(0.0)
        for step in range(1, 31):
            stats.record("hello", 5)
            stats.advance_time(0.1)
            series.sample(step * 0.1)
        # ~3 completed windows of 1.0 each.
        assert len(series.rates) == 3
        # 5 msgs per 0.1t over 10 nodes -> 5 msgs/node/t.
        for rate in series.rates:
            assert rate == pytest.approx(5.0, rel=0.01)

    def test_steady_state_skips_transient(self):
        stats = MessageStats(1)
        stats.start_measuring()
        series = RateSeries(stats, "x", window=1.0)
        # Fake windows directly.
        series.rates = [100.0, 10.0, 10.0, 10.0]
        assert series.steady_state_rate() == pytest.approx(10.0)

    def test_empty_series_raises(self):
        series = RateSeries(MessageStats(1), "x", window=1.0)
        with pytest.raises(ValueError):
            series.steady_state_rate()

    def test_window_exactly_equal_to_elapsed(self):
        """A sample landing exactly on the window boundary closes it."""
        stats = MessageStats(10)
        stats.start_measuring()
        series = RateSeries(stats, "hello", window=1.0)
        series.sample(0.0)
        stats.record("hello", 20)
        stats.advance_time(1.0)
        series.sample(1.0)
        assert series.times == [1.0]
        assert series.rates == [pytest.approx(2.0)]  # 20 / (10 nodes * 1.0)

    def test_steady_state_rate_with_one_window(self):
        """One completed window: skip_fraction truncates to zero skipped."""
        stats = MessageStats(5)
        stats.start_measuring()
        series = RateSeries(stats, "hello", window=1.0)
        series.sample(0.0)
        stats.record("hello", 10)
        series.sample(1.0)
        assert len(series.rates) == 1
        assert series.steady_state_rate() == pytest.approx(2.0)
        # Even an aggressive skip keeps the sole window.
        assert series.steady_state_rate(skip_fraction=0.9) == pytest.approx(2.0)

    def test_sampling_while_measurement_stopped(self):
        """Windows elapsing while stats ignore records yield zero rates."""
        stats = MessageStats(10)
        series = RateSeries(stats, "hello", window=1.0)
        series.sample(0.0)
        stats.record("hello", 50)  # dropped: measurement not started
        series.sample(1.0)
        assert series.rates == [pytest.approx(0.0)]
        stats.start_measuring()
        stats.record("hello", 30)
        series.sample(2.0)
        assert series.rates[-1] == pytest.approx(3.0)

    def test_live_simulation_series(self):
        params = NetworkParameters.from_fractions(
            n_nodes=80, range_fraction=0.15, velocity_fraction=0.05
        )
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=1
        )
        sim.attach(HelloProtocol("event"))
        sim.stats.start_measuring()
        series = RateSeries(sim.stats, "hello", window=2.0)
        series.sample(sim.time)
        for _ in range(int(round(12.0 / sim.dt))):
            sim.step()
            series.sample(sim.time)
        assert len(series.rates) >= 5
        # Steady state should match the end-of-run average closely.
        overall = sim.stats.per_node_frequency("hello")
        assert series.steady_state_rate() == pytest.approx(overall, rel=0.25)


class TestDynamicPriorityMaintenance:
    def test_hcc_dynamic_stays_valid(self):
        params = NetworkParameters.from_fractions(
            n_nodes=70, range_fraction=0.2, velocity_fraction=0.05
        )
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=2
        )
        maintenance = ClusterMaintenanceProtocol(
            HighestConnectivityClustering(), dynamic_priority=True
        )
        sim.attach(maintenance)
        for _ in range(120):
            sim.step()
            violations = check_properties(maintenance.state, sim.neighbor_csr)
            assert violations.ok, violations.describe()

    def test_dynamic_priority_changes_merge_outcomes(self):
        """With live degrees, the denser head can win a merge that the
        formation-time priorities would have decided the other way."""
        params = NetworkParameters.from_fractions(
            n_nodes=70, range_fraction=0.2, velocity_fraction=0.05
        )

        def head_series(dynamic):
            sim = Simulation(
                params, EpochRandomWaypointModel(params.velocity, 1.0), seed=3
            )
            maintenance = ClusterMaintenanceProtocol(
                HighestConnectivityClustering(), dynamic_priority=dynamic
            )
            sim.attach(maintenance)
            heads = []
            for _ in range(150):
                sim.step()
                heads.append(tuple(sorted(maintenance.state.heads())))
            return heads

        static = head_series(False)
        dynamic = head_series(True)
        # The two policies must eventually diverge on the same trace.
        assert static != dynamic
