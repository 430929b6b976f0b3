"""Cross-cutting property-based tests of the system's core invariants.

Each property here spans multiple modules — these are the contracts the
whole reproduction stands on:

* the simulator's event stream exactly reconstructs the adjacency;
* reactive maintenance keeps P1/P2 under arbitrary admissible events;
* the overhead model is dimensionally consistent under unit rescaling;
* the LID fixpoint and the degree analysis compose sanely.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering import (
    ClusterMaintenanceProtocol,
    LowestIdClustering,
    check_properties,
)
from repro.core import overhead as oh
from repro.core.degree import expected_degree
from repro.core.lid_analysis import lid_head_probability_exact
from repro.core.params import MessageSizes, NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import Simulation
from repro.spatial import Boundary, SquareRegion, diff_adjacency


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=10, max_value=80),
    st.floats(min_value=0.08, max_value=0.35),
    st.floats(min_value=0.01, max_value=0.15),
    st.integers(min_value=0, max_value=10_000),
)
def test_event_stream_reconstructs_adjacency(n, rf, vf, seed):
    """Applying the link events to the old adjacency gives the new one."""
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=rf, velocity_fraction=vf
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    reconstructed = sim.adjacency.copy()
    for _ in range(5):
        events = sim.step()
        for u, v in events.broken:
            reconstructed[u, v] = reconstructed[v, u] = False
        for u, v in events.generated:
            reconstructed[u, v] = reconstructed[v, u] = True
        np.testing.assert_array_equal(reconstructed, sim.adjacency)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=15, max_value=60),
    st.floats(min_value=0.1, max_value=0.3),
    st.integers(min_value=0, max_value=10_000),
)
def test_maintenance_invariant_under_mobility(n, rf, seed):
    """P1 and P2 hold after every simulation step, for any topology."""
    params = NetworkParameters.from_fractions(
        n_nodes=n, range_fraction=rf, velocity_fraction=0.08
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=seed
    )
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    sim.attach(maintenance)
    for _ in range(15):
        sim.step()
        violations = check_properties(maintenance.state, sim.adjacency)
        assert violations.ok, violations.describe()


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=1.5, max_value=100.0),
)
def test_overhead_model_scale_invariance(p_head, scale):
    """Rescaling length and time units consistently leaves the
    dimensionless frequency * time products unchanged.

    Frequencies are per unit time: if distances scale by ``s`` and
    speeds scale by ``s`` (same time unit), every frequency must be
    invariant — the model may depend only on the dimensionless ratios
    r/a and v/(a/t).
    """
    base = NetworkParameters.from_fractions(
        n_nodes=150, range_fraction=0.2, velocity_fraction=0.05
    )
    scaled = NetworkParameters(
        n_nodes=base.n_nodes,
        density=base.density / scale**2,
        tx_range=base.tx_range * scale,
        velocity=base.velocity * scale,
        messages=base.messages,
    )
    assert oh.hello_frequency(scaled) == pytest.approx(
        oh.hello_frequency(base), rel=1e-9
    )
    assert oh.cluster_frequency(scaled, p_head) == pytest.approx(
        oh.cluster_frequency(base, p_head), rel=1e-9
    )
    assert oh.route_frequency(scaled, p_head) == pytest.approx(
        oh.route_frequency(base, p_head), rel=1e-9
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=10, max_value=2000),
    st.floats(min_value=0.02, max_value=0.6),
)
def test_lid_pipeline_composes(n, rf):
    """degree -> fixpoint -> cluster count stays within [1, N]."""
    degree = float(expected_degree(n, float(n), rf))
    p = float(lid_head_probability_exact(degree))
    clusters = n * p
    assert 0.9 <= clusters <= n + 1e-9
    # Expected cluster size m = 1/P never exceeds the closed
    # neighborhood the head can serve... plus slack for the fixpoint's
    # independence approximation.
    assert 1.0 <= 1.0 / p


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=16.0, max_value=4096.0),
    st.floats(min_value=16.0, max_value=4096.0),
    st.floats(min_value=16.0, max_value=4096.0),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_overhead_linear_in_message_sizes(p_hello, p_cluster, p_route, p_head):
    """Overheads are exactly frequency x size, per category."""
    params = NetworkParameters.from_fractions(
        n_nodes=100,
        range_fraction=0.15,
        velocity_fraction=0.05,
        messages=MessageSizes(
            p_hello=p_hello, p_cluster=p_cluster, p_route=p_route
        ),
    )
    assert oh.hello_overhead(params) == pytest.approx(
        p_hello * oh.hello_frequency(params)
    )
    assert oh.cluster_overhead(params, p_head) == pytest.approx(
        p_cluster * oh.cluster_frequency(params, p_head)
    )
    assert oh.route_overhead(params, p_head) == pytest.approx(
        p_route * oh.route_frequency(params, p_head)
    )


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=5, max_value=100),
    st.floats(min_value=0.05, max_value=0.7),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([Boundary.TORUS, Boundary.OPEN]),
)
def test_adjacency_diff_roundtrip(n, r, seed, boundary):
    """diff(a, b) applied to a yields b, for arbitrary snapshots."""
    region = SquareRegion(1.0, boundary)
    a_positions = region.uniform_positions(n, seed)
    b_positions = region.uniform_positions(n, seed + 1)
    a = region.adjacency(a_positions, r)
    b = region.adjacency(b_positions, r)
    events = diff_adjacency(a, b)
    rebuilt = a.copy()
    for u, v in events.broken:
        rebuilt[u, v] = rebuilt[v, u] = False
    for u, v in events.generated:
        rebuilt[u, v] = rebuilt[v, u] = True
    np.testing.assert_array_equal(rebuilt, b)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_route_frequency_monotone_in_head_ratio(p_head):
    """More heads (smaller clusters) -> strictly less ROUTE traffic."""
    params = NetworkParameters.from_fractions(
        n_nodes=100, range_fraction=0.2, velocity_fraction=0.05
    )
    smaller = oh.route_frequency(params, min(p_head * 1.1, 1.0))
    larger = oh.route_frequency(params, p_head)
    assert smaller <= larger + 1e-12
