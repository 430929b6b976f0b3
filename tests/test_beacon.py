"""Tests for HELLO beaconing (repro.sim.beacon)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.policies import FixedPeriodPolicy
from repro.core.params import NetworkParameters
from repro.faults import FaultConfig, attach_faults, build_plan
from repro.mobility import EpochRandomWaypointModel
from repro.obs.attribution import CAUSE_EVENT_HELLO, CAUSE_LOSS_RETRANSMIT
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
    def test_initial_beliefs_are_the_live_rows(self, mobile_sim):
        hello = mobile_sim.attach(HelloProtocol("event"))
        for node in range(0, mobile_sim.n_nodes, 13):
            assert hello.known_neighbors(mobile_sim, node) == set(
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


class TableEventHello(HelloProtocol):
    """Reference: event HELLO with a heard-time table per node.

    The design before the unheard-announce dict: every link event writes
    a ``{neighbor: heard_time}`` dict per node, and lost announces wait
    in a ``(sender, learner, attempts)`` retransmit queue.
    """

    def on_attach(self, sim):
        super().on_attach(sim)
        self.tables = [dict.fromkeys(row, 0.0) for row in sim.adjacency_lists]
        self.pending = []

    def on_link_up(self, sim, u, v, time):
        sim.stats.record(
            "hello", 2, self._pair_bits, cause=CAUSE_EVENT_HELLO, nodes=(u, v)
        )
        faults = sim.faults
        if faults is not None and faults.loss_rate > 0.0:
            for sender, learner in ((u, v), (v, u)):
                if faults.drop():
                    faults.count("hello_losses_total")
                    self.pending.append((sender, learner, 0))
                else:
                    self.tables[learner][sender] = time
            return
        self.tables[u][v] = time
        self.tables[v][u] = time

    def on_step_begin(self, sim, time):
        faults = sim.faults
        pending, self.pending = self.pending, []
        for sender, learner, attempts in pending:
            if (
                not sim.has_link(sender, learner)
                or sender in self.tables[learner]
            ):
                continue
            sim.stats.record(
                "hello",
                1,
                sim.params.messages.p_hello,
                cause=CAUSE_LOSS_RETRANSMIT,
                node=sender,
            )
            faults.count("hello_retransmits_total")
            if faults.drop():
                faults.count("hello_losses_total")
                if attempts + 1 < self._RETX_CAP:
                    self.pending.append((sender, learner, attempts + 1))
            else:
                self.tables[learner][sender] = time

    def on_link_down(self, sim, u, v, time):
        self.tables[u].pop(v, None)
        self.tables[v].pop(u, None)
        self.pending = [e for e in self.pending if {e[0], e[1]} != {u, v}]

    def on_node_fail(self, sim, node, time):
        self.tables[node].clear()
        self.pending = [e for e in self.pending if node not in e[:2]]

    def known_neighbors(self, sim, node):
        return set(self.tables[node])


def _lockstep_sim(hello, loss_rate, attach_faults_after):
    params = NetworkParameters.from_fractions(
        n_nodes=120, range_fraction=0.15, velocity_fraction=0.05
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=21
    )
    config = FaultConfig(
        crash_rate=0.02, crash_recover_after=0.5, loss_rate=loss_rate
    )
    plan = build_plan(config, params.n_nodes, horizon=8.0, seed=21)
    if attach_faults_after == 0:
        attach_faults(sim, plan)
    sim.attach(hello)
    return sim, plan


class TestEventModeLockstep:
    """Unheard announces reproduce the table design's beliefs exactly.

    The golden stack digests never read HELLO's beliefs, so this is the
    gate on ``known_neighbors`` and ``detection_error_counts``.
    """

    @pytest.mark.parametrize(
        "loss_rate, attach_faults_after",
        [(0.3, 0), (0.9, 0), (0.3, 5)],
        ids=["loss-0.3", "loss-0.9", "loss-0.3-attached-mid-run"],
    )
    def test_beliefs_match_the_table_design(
        self, loss_rate, attach_faults_after
    ):
        ref = TableEventHello("event")
        hello = HelloProtocol("event")
        ref_sim, ref_plan = _lockstep_sim(ref, loss_rate, attach_faults_after)
        sim, plan = _lockstep_sim(hello, loss_rate, attach_faults_after)
        unheard_steps = 0
        for step in range(100):
            if step == attach_faults_after and step > 0:
                attach_faults(ref_sim, ref_plan)
                attach_faults(sim, plan)
            ref_sim.step()
            sim.step()
            assert np.array_equal(ref_sim.edges, sim.edges)
            for node in range(sim.n_nodes):
                assert hello.known_neighbors(sim, node) == (
                    ref.known_neighbors(ref_sim, node)
                ), (step, node)
            errors = hello.detection_error_counts(sim)
            assert np.array_equal(
                errors, ref.detection_error_counts(ref_sim)
            )
            assert errors.sum() == len(hello._unheard)
            unheard_steps += bool(hello._unheard)
            # A crash drops the crashed node's unheard announces.
            for sender, learner in hello._unheard:
                assert sim.active[sender] and sim.active[learner]
        assert hello.neighbor_lists == []
        for counter in ("hello_losses_total", "hello_retransmits_total"):
            assert getattr(sim.faults, counter) == getattr(
                ref_sim.faults, counter
            )
        assert sim.stats.totals == ref_sim.stats.totals
        # The run exercised what it gates.
        assert sim.faults.crashes_total > 0
        assert sim.faults.hello_retransmits_total > 0
        assert unheard_steps > 0


class _AlwaysDrop:
    """A loss injector that loses every reception."""

    loss_rate = 1.0

    def __init__(self):
        self.hello_losses_total = 0
        self.hello_retransmits_total = 0

    def drop(self):
        return True

    def count(self, attribute, amount=1):
        setattr(self, attribute, getattr(self, attribute) + amount)


class TestRetransmitCap:
    def test_each_lost_direction_retransmits_the_cap(self, mobile_sim):
        hello = mobile_sim.attach(HelloProtocol("event"))
        mobile_sim.faults = faults = _AlwaysDrop()
        u, v = (int(x) for x in mobile_sim.edges[0])
        hello.on_link_up(mobile_sim, u, v, 0.0)
        assert hello._unheard == {(u, v): 0, (v, u): 0}
        for step in range(3 * HelloProtocol._RETX_CAP):
            hello.on_step_begin(mobile_sim, float(step))
            # The senders stay unknown as long as the link lives.
            assert v not in hello.known_neighbors(mobile_sim, u)
            assert u not in hello.known_neighbors(mobile_sim, v)
        assert faults.hello_retransmits_total == 2 * HelloProtocol._RETX_CAP
        assert faults.hello_losses_total == 2 * (HelloProtocol._RETX_CAP + 1)
        assert hello.detection_errors(mobile_sim) == 2

        hello.on_link_down(mobile_sim, u, v, 1.0)
        assert hello._unheard == {}

        hello.on_link_up(mobile_sim, u, v, 2.0)
        assert hello._unheard == {(u, v): 0, (v, u): 0}
        assert faults.hello_losses_total == 2 * (HelloProtocol._RETX_CAP + 2)
        hello.on_step_begin(mobile_sim, 3.0)
        assert hello._unheard == {(u, v): 1, (v, u): 1}
        assert hello.neighbor_lists == []


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
