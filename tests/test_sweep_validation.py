"""Tests for the sweep harness and the validation verdicts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    SweepResult,
    measure_point,
    run_sweep,
    validate_sweep,
)
from repro.analysis.sweep import SweepPoint
from repro.core.params import NetworkParameters


@pytest.fixture(scope="module")
def small_point():
    """One cheap measured point shared across tests."""
    params = NetworkParameters.from_fractions(
        n_nodes=60, range_fraction=0.2, velocity_fraction=0.05
    )
    return measure_point(
        params, 0.2, seeds=1, duration=4.0, warmup=0.5
    )


class TestMeasurePoint:
    def test_structure(self, small_point):
        assert isinstance(small_point, SweepPoint)
        assert set(small_point.measured) == {"f_hello", "f_cluster", "f_route"}
        assert set(small_point.predicted) == {"f_hello", "f_cluster", "f_route"}
        assert 0.0 < small_point.measured_head_ratio <= 1.0
        assert small_point.seeds == 1

    def test_frequencies_positive(self, small_point):
        for value in small_point.measured.values():
            assert value > 0.0
        for value in small_point.predicted.values():
            assert value > 0.0

    def test_prediction_uses_measured_p(self, small_point):
        from repro.core import overhead as oh

        expected = oh.cluster_frequency(
            small_point.params, small_point.measured_head_ratio, "consistent"
        )
        assert small_point.predicted["f_cluster"] == pytest.approx(expected)

    def test_rejects_zero_seeds(self):
        params = NetworkParameters.from_fractions(
            n_nodes=20, range_fraction=0.2, velocity_fraction=0.05
        )
        with pytest.raises(ValueError):
            measure_point(params, 0.2, seeds=0)

    @pytest.mark.parametrize(
        "lengths, message",
        [
            ({"duration": 0.0}, "duration must be positive, got 0.0"),
            ({"duration": -1.0}, "duration must be positive, got -1.0"),
            ({"warmup": -5.0}, "warmup must be non-negative, got -5.0"),
        ],
    )
    def test_rejects_bad_run_lengths_before_running(
        self, monkeypatch, lengths, message
    ):
        import repro.analysis.sweep as sweep_module

        def no_workers(*args, **kwargs):
            raise AssertionError("a worker ran")

        monkeypatch.setattr(sweep_module, "run_tasks", no_workers)
        params = NetworkParameters.from_fractions(
            n_nodes=20, range_fraction=0.2, velocity_fraction=0.05
        )
        with pytest.raises(ValueError, match=message):
            measure_point(params, 0.2, seeds=1, **lengths)
        with pytest.raises(ValueError, match=message):
            run_sweep("velocity", params, [0.01], seeds=1, **lengths)


class TestRunSweep:
    def test_velocity_sweep_structure(self):
        base = NetworkParameters.from_fractions(
            n_nodes=40, range_fraction=0.25, velocity_fraction=0.05
        )
        result = run_sweep(
            "velocity",
            base,
            [0.02, 0.06],
            seeds=1,
            duration=3.0,
            warmup=0.5,
        )
        assert isinstance(result, SweepResult)
        assert result.values() == [0.02, 0.06]
        assert len(result.measured_series("f_hello")) == 2
        # f_hello grows with velocity (both measured and predicted).
        assert result.predicted_series("f_hello")[1] > result.predicted_series(
            "f_hello"
        )[0]

    def test_density_sweep_changes_area(self):
        base = NetworkParameters(
            n_nodes=40, density=40.0, tx_range=0.2, velocity=0.05
        )
        result = run_sweep(
            "density", base, [40.0, 90.0], seeds=1, duration=2.0, warmup=0.5
        )
        sides = [point.params.side for point in result.points]
        assert sides[0] > sides[1]
        assert all(point.params.n_nodes == 40 for point in result.points)

    def test_unknown_parameter_rejected(self):
        base = NetworkParameters.from_fractions(
            n_nodes=20, range_fraction=0.2, velocity_fraction=0.05
        )
        with pytest.raises(ValueError, match="parameter"):
            run_sweep("speed_of_light", base, [1.0])


class TestValidateSweep:
    def _synthetic_result(self, measured, predicted):
        result = SweepResult(parameter="tx_range")
        base = NetworkParameters.from_fractions(
            n_nodes=20, range_fraction=0.2, velocity_fraction=0.05
        )
        for i, (m, p) in enumerate(zip(measured, predicted)):
            result.points.append(
                SweepPoint(
                    parameter_value=float(i),
                    params=base,
                    measured_head_ratio=0.3,
                    measured={"f_hello": m, "f_cluster": m, "f_route": m},
                    predicted={"f_hello": p, "f_cluster": p, "f_route": p},
                    seeds=1,
                )
            )
        return result

    def test_perfect_agreement(self):
        result = self._synthetic_result([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        verdict = validate_sweep(result)
        assert verdict.all_agree()
        for curve in verdict.curves.values():
            assert curve.mean_relative_error == 0.0
            assert curve.correlation == pytest.approx(1.0)

    def test_constant_offset_still_agrees_on_shape(self):
        result = self._synthetic_result([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        verdict = validate_sweep(result)
        assert verdict.all_agree(max_mean_error=1.5)
        for curve in verdict.curves.values():
            assert curve.mean_relative_error == pytest.approx(1.0)
            assert curve.correlation == pytest.approx(1.0)

    def test_opposite_trend_fails(self):
        result = self._synthetic_result([3.0, 2.0, 1.0], [1.0, 2.0, 3.0])
        verdict = validate_sweep(result)
        assert not verdict.all_agree()
        assert not verdict.curves["f_hello"].same_trend

    def test_real_sweep_agrees(self):
        """End-to-end: a small real sweep passes shape validation."""
        base = NetworkParameters.from_fractions(
            n_nodes=60, range_fraction=0.12, velocity_fraction=0.05
        )
        result = run_sweep(
            "tx_range",
            base,
            [0.10, 0.18, 0.28],
            seeds=2,
            duration=6.0,
            warmup=1.0,
        )
        verdict = validate_sweep(result)
        assert verdict.curves["f_hello"].agrees(max_mean_error=0.6)
        assert verdict.curves["f_cluster"].agrees(max_mean_error=0.8)
        # ROUTE is a known lower bound: allow larger magnitude error but
        # require the shape to track.
        assert verdict.curves["f_route"].same_trend
        assert verdict.curves["f_route"].correlation > 0.9
