"""Tests for Claim 2 — link change rates (repro.core.linkdynamics)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.degree import expected_degree, infinite_plane_degree
from repro.core.linkdynamics import (
    LinkRates,
    bcv_link_break_rate,
    bcv_link_change_rate,
    bcv_link_generation_rate,
    bcv_rates_from_params,
    cv_link_break_rate,
    cv_link_change_rate,
    cv_link_generation_rate,
    mean_relative_speed,
)
from repro.mobility import ConstantVelocityModel
from repro.spatial import Boundary, SquareRegion, compute_edges, diff_edge_sets


class TestRelativeSpeed:
    def test_closed_form(self):
        assert mean_relative_speed(1.0) == pytest.approx(4.0 / math.pi)

    def test_linear_in_speed(self):
        assert mean_relative_speed(3.0) == pytest.approx(3 * mean_relative_speed(1.0))

    def test_zero_speed(self):
        assert mean_relative_speed(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mean_relative_speed(-1.0)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0, 2 * math.pi, 200_000)
        empirical = np.mean(2.0 * np.abs(np.sin(theta / 2.0)))
        assert mean_relative_speed(1.0) == pytest.approx(empirical, rel=0.01)


class TestCvRates:
    def test_flux_identity(self):
        # lambda_gen = rho * 2r * E[v_rel] = 8 rho r v / pi.
        rho, r, v = 100.0, 0.1, 0.5
        assert cv_link_generation_rate(rho, r, v) == pytest.approx(
            rho * 2.0 * r * mean_relative_speed(v)
        )

    def test_break_equals_generation(self):
        assert cv_link_break_rate(10.0, 0.1, 1.0) == cv_link_generation_rate(
            10.0, 0.1, 1.0
        )

    def test_change_is_sum(self):
        assert cv_link_change_rate(10.0, 0.1, 1.0) == pytest.approx(
            2.0 * cv_link_generation_rate(10.0, 0.1, 1.0)
        )

    def test_vectorized_range(self):
        rs = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(
            cv_link_change_rate(10.0, rs, 1.0),
            [cv_link_change_rate(10.0, float(r), 1.0) for r in rs],
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cv_link_generation_rate(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            cv_link_generation_rate(1.0, 0.1, -1.0)

    def test_matches_torus_simulation(self):
        """The load-bearing empirical check: Claim 2's constant."""
        n, r, v = 400, 0.05, 0.02
        region = SquareRegion(1.0, Boundary.TORUS)
        model = ConstantVelocityModel(v)
        model.reset(n, region, 11)
        dt, steps = 0.05, 400
        edges = compute_edges(region, model.positions, r)
        changes = 0
        for _ in range(steps):
            new = compute_edges(region, model.advance(dt), r)
            changes += diff_edge_sets(edges, new).change_count
            edges = new
        measured = 2 * changes / (n * steps * dt)
        assert measured == pytest.approx(
            cv_link_change_rate(float(n), r, v), rel=0.05
        )


class TestBcvRates:
    def test_eqn3_formula(self):
        d, r, v = 12.0, 0.1, 0.5
        assert bcv_link_change_rate(d, r, v) == pytest.approx(
            16.0 * d * v / (math.pi**2 * r)
        )

    def test_reduces_to_cv_with_plane_degree(self):
        # Substituting d = rho pi r^2 recovers the CV rate.
        rho, r, v = 77.0, 0.2, 0.3
        d = infinite_plane_degree(rho, r)
        assert bcv_link_change_rate(d, r, v) == pytest.approx(
            cv_link_change_rate(rho, r, v)
        )

    def test_generation_break_split(self):
        d, r, v = 9.0, 0.1, 1.0
        gen = bcv_link_generation_rate(d, r, v)
        brk = bcv_link_break_rate(d, r, v)
        assert gen == brk
        assert gen + brk == pytest.approx(bcv_link_change_rate(d, r, v))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            bcv_link_change_rate(5.0, 0.0, 1.0)


class TestLinkLifetime:
    def test_closed_form(self):
        from repro.core.linkdynamics import expected_link_lifetime

        assert expected_link_lifetime(0.1, 0.05) == pytest.approx(
            math.pi**2 * 0.1 / (8 * 0.05)
        )

    def test_static_links_live_forever(self):
        from repro.core.linkdynamics import expected_link_lifetime

        assert expected_link_lifetime(0.1, 0.0) == float("inf")

    def test_invalid_inputs(self):
        from repro.core.linkdynamics import expected_link_lifetime

        with pytest.raises(ValueError):
            expected_link_lifetime(0.0, 0.1)
        with pytest.raises(ValueError):
            expected_link_lifetime(0.1, -0.1)

    def test_littles_law_identity(self):
        """lifetime == standing links / break rate (density cancels)."""
        from repro.core.degree import infinite_plane_degree
        from repro.core.linkdynamics import (
            cv_link_break_rate,
            expected_link_lifetime,
        )

        rho, r, v = 123.0, 0.07, 0.4
        lifetime = infinite_plane_degree(rho, r) / cv_link_break_rate(rho, r, v)
        assert expected_link_lifetime(r, v) == pytest.approx(lifetime)

    def test_matches_torus_simulation(self):
        """Mean measured link lifetime matches pi^2 r / (8 v)."""
        from repro.core.linkdynamics import expected_link_lifetime

        n, r, v = 300, 0.08, 0.04
        region = SquareRegion(1.0, Boundary.TORUS)
        model = ConstantVelocityModel(v)
        model.reset(n, region, 3)
        dt = 0.02 * r / v
        edges = compute_edges(region, model.positions, r)
        born: dict[tuple[int, int], float] = {}
        lifetimes: list[float] = []
        time = 0.0
        for _ in range(1500):
            new = compute_edges(region, model.advance(dt), r)
            events = diff_edge_sets(edges, new)
            time += dt
            for u, v_ in events.generated:
                born[(int(u), int(v_))] = time
            for u, v_ in events.broken:
                start = born.pop((int(u), int(v_)), None)
                if start is not None:
                    lifetimes.append(time - start)
            edges = new
        # Completed lifetimes only: slightly biased short, so compare
        # loosely (the bias shrinks with observation length).
        measured = float(np.mean(lifetimes))
        predicted = expected_link_lifetime(r, v)
        assert measured == pytest.approx(predicted, rel=0.2)


class TestLinkRatesBundle:
    def test_fields_consistent(self, params):
        rates = bcv_rates_from_params(params)
        assert isinstance(rates, LinkRates)
        assert rates.degree == pytest.approx(
            float(expected_degree(params.n_nodes, params.density, params.tx_range))
        )
        assert rates.generation == pytest.approx(rates.breakage)
        assert rates.change == pytest.approx(2 * rates.generation)

    def test_boundary_factor_below_one(self, params):
        rates = bcv_rates_from_params(params)
        assert 0.0 < rates.boundary_factor < 1.0
