"""Tests for HELLO beaconing (repro.sim.beacon)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.policies import FixedPeriodPolicy
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.sim import HelloProtocol, Simulation


@pytest.fixture
def mobile_sim(params) -> Simulation:
    return Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=11
    )


class TestConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            HelloProtocol("oracle")

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            HelloProtocol("periodic", interval=0.0)

    def test_default_timeout_multiple(self):
        hello = HelloProtocol("periodic", interval=2.0)
        assert hello.timeout == pytest.approx(5.0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            HelloProtocol("periodic", interval=1.0, timeout=-1.0)


class TestEventMode:
    def test_initial_neighbor_lists_seeded(self, mobile_sim):
        hello = mobile_sim.attach(HelloProtocol("event"))
        for node in range(0, mobile_sim.n_nodes, 13):
            assert hello.known_neighbors(node) == set(
                int(v) for v in mobile_sim.neighbors_of(node)
            )

    def test_two_hellos_per_link_generation(self, mobile_sim, params):
        hello = mobile_sim.attach(HelloProtocol("event"))
        mobile_sim.stats.start_measuring()
        generations = 0
        for _ in range(50):
            generations += mobile_sim.step().generation_count
        assert mobile_sim.stats.message_count("hello") == 2 * generations
        assert mobile_sim.stats.bit_count("hello") == pytest.approx(
            2 * generations * params.messages.p_hello
        )

    def test_neighbor_lists_track_adjacency_exactly(self, mobile_sim):
        hello = mobile_sim.attach(HelloProtocol("event"))
        for _ in range(60):
            mobile_sim.step()
        assert hello.detection_errors(mobile_sim) == 0

    def test_rate_matches_link_generation_rate(self):
        # f_hello == lambda_gen: the Eqn (4) identity, measured.
        params = NetworkParameters.from_fractions(
            n_nodes=150, range_fraction=0.15, velocity_fraction=0.05
        )
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=1
        )
        sim.attach(HelloProtocol("event"))
        generations = 0
        sim.stats.start_measuring()
        steps = 400
        for _ in range(steps):
            generations += sim.step().generation_count
        f_hello = sim.stats.per_node_frequency("hello")
        lambda_gen = 2 * generations / (params.n_nodes * steps * sim.dt)
        assert f_hello == pytest.approx(lambda_gen, rel=1e-9)


class TestPeriodicMode:
    def test_beacon_rate_matches_interval(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=12
        )
        interval = 0.5
        sim.attach(HelloProtocol("periodic", interval=interval))
        sim.stats.start_measuring()
        duration = 5.0
        for _ in range(int(round(duration / sim.dt))):
            sim.step()
        rate = sim.stats.per_node_frequency("hello")
        assert rate == pytest.approx(1.0 / interval, rel=0.1)

    def test_neighbors_learned_within_interval(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=13
        )
        hello = sim.attach(HelloProtocol("periodic", interval=0.2))
        for _ in range(int(round(1.5 / sim.dt))):
            sim.step()
        # Steady-state staleness is bounded by the soft-timer physics:
        # each of the ~(N * lambda_brk / 2) break events per unit time
        # leaves two stale entries for at most `timeout`, and each
        # generation is learned within one beacon interval.
        from repro.core.degree import expected_degree
        from repro.core.linkdynamics import bcv_link_break_rate

        degree = float(
            expected_degree(params.n_nodes, params.density, params.tx_range)
        )
        break_rate = bcv_link_break_rate(
            degree, params.tx_range, params.velocity
        )
        expected_stale = params.n_nodes * break_rate * hello.timeout
        expected_missing = params.n_nodes * break_rate * hello.interval
        bound = 2.0 * (expected_stale + expected_missing)  # 2x safety
        assert hello.detection_errors(sim) <= bound

    def test_longer_interval_more_stale(self, params):
        errors = []
        for interval in (0.2, 2.0):
            sim = Simulation(
                params, EpochRandomWaypointModel(params.velocity, 1.0), seed=14
            )
            hello = sim.attach(HelloProtocol("periodic", interval=interval))
            for _ in range(int(round(3.0 / sim.dt))):
                sim.step()
            errors.append(hello.detection_errors(sim))
        assert errors[1] > errors[0]

    def test_timeout_expires_gone_neighbors(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=15
        )
        hello = sim.attach(
            HelloProtocol("periodic", interval=0.2, timeout=0.5)
        )
        for _ in range(int(round(4.0 / sim.dt))):
            sim.step()
        # No believed neighbor may be staler than the timeout allows:
        # every believed-but-false entry must have been heard recently.
        for node in range(sim.n_nodes):
            actual = {int(v) for v in sim.neighbors_of(node)}
            for other, heard in hello.neighbor_lists[node].items():
                if other not in actual:
                    assert sim.time - heard <= hello.timeout + sim.dt


class TestOneTimerPath:
    """Periodic mode is the fixed policy on the one beacon/expiry loop."""

    def test_periodic_mode_runs_the_fixed_policy(self):
        hello = HelloProtocol("periodic", interval=0.7)
        assert isinstance(hello.policy, FixedPeriodPolicy)
        assert hello.policy.interval == 0.7
        assert HelloProtocol("event").policy is None

    def test_expiry_reads_each_senders_advertised_timeout(self, mobile_sim):
        hello = mobile_sim.attach(HelloProtocol("periodic", interval=1.0))
        hello._next_beacon[:] = np.inf  # no beacon refreshes an entry
        time = 10.0
        hello.neighbor_lists[0] = {1: 8.0, 2: 8.0, 3: 9.0}
        # The receiver's own advertised timeout plays no part.
        hello._advertised_timeout[0] = 0.5
        hello._advertised_timeout[1] = 2.0  # age == timeout: stays
        hello._advertised_timeout[2] = 1.5  # age > timeout: evicted
        hello._advertised_timeout[3] = 1.0  # age == timeout: stays
        hello.on_step_end(mobile_sim, time)
        assert hello.neighbor_lists[0] == {1: 8.0, 3: 9.0}


class TestScheduleBounds:
    """A due node beacons at most once per step."""

    def _sim(self, params, dt):
        return Simulation(
            params,
            EpochRandomWaypointModel(params.velocity, 1.0),
            dt=dt,
            seed=1,
        )

    def test_rejects_interval_below_step(self, params):
        sim = self._sim(params, dt=0.05)
        with pytest.raises(ValueError, match="simulation step"):
            sim.attach(HelloProtocol("periodic", interval=0.02))

    def test_rejects_adaptive_ceiling_below_step(self, params):
        sim = self._sim(params, dt=0.05)
        policy = {
            "policy": "churn-feedback",
            "interval": 0.02,
            "min_interval": 0.01,
            "max_interval": 0.04,
        }
        with pytest.raises(ValueError, match="simulation step"):
            sim.attach(HelloProtocol("adaptive", policy=policy))

    def test_interval_equal_to_step_keeps_its_rate(self, params):
        sim = self._sim(params, dt=0.05)
        sim.attach(HelloProtocol("periodic", interval=0.05))
        sim.stats.start_measuring()
        for _ in range(40):
            sim.step()
        assert sim.stats.per_node_frequency("hello") == pytest.approx(20.0)
