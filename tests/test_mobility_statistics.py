"""Statistical properties of the mobility models the analysis relies on.

The paper's Section 4 justifies validating the (B)CV analysis on its
epoch-RWP variant because the variant "has similar properties ... in
terms of link change rate and node spatial distribution".  These tests
verify that equivalence empirically, plus the relative-speed law that
underlies Claim 2.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.linkdynamics import cv_link_change_rate, mean_relative_speed
from repro.mobility import (
    ConstantVelocityModel,
    EpochRandomWaypointModel,
    RandomWaypointModel,
)
from repro.spatial import Boundary, SquareRegion, compute_edges, diff_edge_sets


def _measure_change_rate(model, n, r, dt, steps, seed=0):
    region = SquareRegion(1.0, Boundary.TORUS)
    model.reset(n, region, seed)
    edges = compute_edges(region, model.positions, r)
    changes = 0
    for _ in range(steps):
        new = compute_edges(region, model.advance(dt), r)
        changes += diff_edge_sets(edges, new).change_count
        edges = new
    return 2 * changes / (n * steps * dt)


class TestEpochRwpMatchesCv:
    """The paper's Section 4 equivalence claim."""

    def test_link_change_rates_agree(self):
        n, r, v = 300, 0.06, 0.02
        dt = 0.02 * r / v
        cv_rate = _measure_change_rate(
            ConstantVelocityModel(v), n, r, dt, 300
        )
        rwp_rate = _measure_change_rate(
            EpochRandomWaypointModel(v, epoch=1.0), n, r, dt, 300
        )
        assert rwp_rate == pytest.approx(cv_rate, rel=0.12)

    def test_both_match_claim2(self):
        n, r, v = 300, 0.06, 0.02
        dt = 0.02 * r / v
        theory = cv_link_change_rate(float(n), r, v)
        for model in (
            ConstantVelocityModel(v),
            EpochRandomWaypointModel(v, epoch=1.0),
        ):
            measured = _measure_change_rate(model, n, r, dt, 300)
            assert measured == pytest.approx(theory, rel=0.12)

    def test_spatial_distribution_stays_uniform(self):
        region = SquareRegion(1.0, Boundary.TORUS)
        model = EpochRandomWaypointModel(0.1, epoch=0.5)
        model.reset(4000, region, 1)
        for _ in range(80):
            model.advance(0.25)
        positions = np.asarray(model.positions)
        # Chi-square on a 4x4 occupancy grid.
        counts, _, _ = np.histogram2d(
            positions[:, 0], positions[:, 1], bins=4, range=[[0, 1], [0, 1]]
        )
        expected = 4000 / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 15 dof; the 99.9% quantile is ~37.7.
        assert chi2 < 37.7


class TestRelativeSpeedLaw:
    def test_cv_pairwise_relative_speed(self):
        """E[|v_i - v_j|] = 4v/pi across CV node pairs."""
        region = SquareRegion(1.0, Boundary.TORUS)
        model = ConstantVelocityModel(0.3)
        model.reset(2000, region, 2)
        velocities = np.asarray(model.velocities)
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 2000, size=(20_000, 2))
        rel = velocities[idx[:, 0]] - velocities[idx[:, 1]]
        same = idx[:, 0] == idx[:, 1]
        speeds = np.hypot(rel[:, 0], rel[:, 1])[~same]
        assert speeds.mean() == pytest.approx(
            mean_relative_speed(0.3), rel=0.02
        )


class TestRwpContrast:
    """Classic RWP deliberately lacks the CV statistics (the reason the
    paper analyzes BCV instead)."""

    def test_rwp_density_not_uniform(self):
        region = SquareRegion(1.0, Boundary.OPEN)
        model = RandomWaypointModel((0.05, 0.15))
        model.reset(4000, region, 4)
        for _ in range(100):
            model.advance(0.5)
        positions = np.asarray(model.positions)
        counts, _, _ = np.histogram2d(
            positions[:, 0], positions[:, 1], bins=4, range=[[0, 1], [0, 1]]
        )
        center_mass = counts[1:3, 1:3].sum() / 4000
        # Uniform would give 0.25; RWP concentrates well above that.
        assert center_mass > 0.30
