"""Tests for the experiment registry and the cheap experiments.

The expensive figure sweeps are exercised end-to-end by the benchmark
suite; here we run the analytical and small experiments and assert the
*claims* each one reproduces.
"""

from __future__ import annotations

import pytest

from repro.analysis import Table
from repro.experiments import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.claims import measure_cv_rates, measure_window_degree
from repro.experiments.config import FULL, QUICK, ExperimentScale, scale_for
from repro.experiments.figures45 import (
    measure_lid_head_ratio,
    run_fig4a,
    run_fig4b,
    run_fig5b,
)


class TestRegistry:
    def test_all_ids_registered(self):
        expected = {
            "fig1",
            "fig2",
            "fig3",
            "fig4a",
            "fig4b",
            "fig5a",
            "fig5b",
            "sec6",
            "claim1",
            "claim2",
            "protocols",
            "clustering",
            "mobility",
            "backbone",
            "stability",
            "dhop",
            "adaptive-beaconing",
            "chaos-overhead",
            "ablation-conventions",
            "ablation-route-payload",
            "ablation-boundary",
            "ablation-beacon",
        }
        assert set(experiment_ids()) == expected

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_runner_dispatch(self):
        table = run_experiment("fig4a", quick=True)
        assert isinstance(table, Table)


class TestScale:
    def test_presets(self):
        assert scale_for(True) is QUICK
        assert scale_for(False) is FULL
        assert FULL.n_nodes == 400  # the paper's N

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale("x", 5, 1, 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            ExperimentScale("x", 50, 0, 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            ExperimentScale("x", 50, 1, 1.0, 0.0, 1)


class TestFig4:
    def test_member_mass_approaches_one(self):
        table = run_fig4a()
        masses = [row[2] for row in table.rows]
        assert masses == sorted(masses)
        assert masses[-1] > 0.999

    def test_approximation_error_shrinks(self):
        table = run_fig4b()
        errors = [row[3] for row in table.rows]
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.01


class TestFig5:
    def test_cluster_count_decreases_with_range(self):
        table = run_fig5b(quick=True)
        simulated = [row[2] for row in table.rows]
        analytical = [row[3] for row in table.rows]
        assert simulated == sorted(simulated, reverse=True)
        assert analytical == sorted(analytical, reverse=True)

    def test_measure_lid_head_ratio_bounds(self):
        ratio = measure_lid_head_ratio(50, 0.2, seeds=2)
        assert 0.0 < ratio <= 1.0

    def test_small_degree_regime_agreement(self):
        """Where d is small the Eqn 16 fixpoint tracks simulation well
        (the paper's accurate regime)."""
        from repro.core.degree import expected_degree
        from repro.core.lid_analysis import lid_head_probability_exact

        n, r = 300, 0.04  # d ~ 1.5
        measured = measure_lid_head_ratio(n, r, seeds=6)
        degree = float(expected_degree(n, float(n), r))
        predicted = float(lid_head_probability_exact(degree))
        assert measured == pytest.approx(predicted, rel=0.15)


class TestSec6:
    def test_exponent_table_matches_claims(self):
        table = run_experiment("sec6", quick=True)
        for quantity, parameter, claimed, measured, r_squared in table.rows:
            assert measured == pytest.approx(claimed, abs=0.15), (
                quantity,
                parameter,
            )
            assert r_squared > 0.95 or abs(claimed) < 0.2


class TestClaims:
    def test_claim1_window_degree(self):
        measured = measure_window_degree(150, 0.15, seeds=4)
        from repro.core.degree import expected_degree

        predicted = float(expected_degree(150, 150.0, 0.15))
        assert measured == pytest.approx(predicted, rel=0.1)

    def test_claim2_table_small(self):
        table = run_experiment("claim2", quick=True)
        for _r, model, _analysis, _measured, rel_err in table.rows:
            assert rel_err < 0.25, model

    @pytest.mark.parametrize(
        "kwargs, rate",
        [
            # N <= 100: the dense metric.
            (dict(n_nodes=60, tx_range=0.2, seed=3), 3.055555555555552),
            # Sparse N > 100: the grid index.
            (dict(n_nodes=300, tx_range=0.1, seed=1), 7.488888888888889),
            # BCV: the central window of a 2x2 torus.
            (
                dict(n_nodes=800, tx_range=0.1, seed=2, window=True, margin=2.0),
                4.0553862699408505,
            ),
        ],
    )
    def test_cv_rates_are_pinned(self, kwargs, rate):
        """Measured link change rates do not move, bit for bit."""
        assert measure_cv_rates(velocity=0.05, steps=60, **kwargs) == rate


class TestAblations:
    def test_route_payload_table(self):
        table = run_experiment("ablation-route-payload", quick=True)
        shares = [row[-1] for row in table.rows]
        # Full-table ROUTE dominates increasingly with r (Section 6).
        assert shares[-1] > 0.5
        full = [row[5] for row in table.rows]
        per_entry = [row[4] for row in table.rows]
        assert all(f > e for f, e in zip(full, per_entry))
