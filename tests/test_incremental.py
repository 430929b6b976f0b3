"""Tests for the incremental connectivity engine (repro.spatial.incremental).

The contract is exactness: every step must return the bit-identical
sorted edge set — and, from its incremental and validation paths
alike, bit-identical ``LinkEvents`` — that a full batch rebuild would
produce.  These tests
pin that equivalence across boundaries, mobility models, teleports,
node failure, and a grid of tiny, dense and fast networks, and additionally pin the internal invariants the speedup
rests on (rebuild fallbacks, the bitwise-equal fast distance kernel).
The reference is the dense ``N x N`` metric, which shares no pair
search with the engine's KD-tree validation.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.core.params import NetworkParameters
from repro.mobility import (
    ConstantVelocityModel,
    EpochRandomWaypointModel,
    GaussMarkovModel,
    ManhattanModel,
    MobilityModel,
    RandomDirectionModel,
    RandomWalkModel,
    RandomWaypointModel,
    ReferencePointGroupModel,
)
from repro.obs.timing import PhaseTimer
from repro.routing import IntraClusterRoutingProtocol
from repro.sim import HelloProtocol, Simulation
from repro.spatial import (
    Boundary,
    IncrementalConnectivityEngine,
    SquareRegion,
    compute_edges,
    diff_edge_sets,
    edges_to_csr,
)
from repro.spatial.neighbors import _pair_distances


def _incremental_params(n_nodes=200) -> NetworkParameters:
    return NetworkParameters.from_fractions(
        n_nodes=n_nodes, range_fraction=0.08, velocity_fraction=0.05
    )


def _assert_same_events(a, b):
    np.testing.assert_array_equal(a.generated, b.generated)
    np.testing.assert_array_equal(a.broken, b.broken)


def _dense_edges(sim):
    """The dense-metric edge set of ``sim``'s positions with failed
    radios masked: the dense path shares no pair search with the
    engine's validation."""
    edges = compute_edges(
        sim.region, sim.positions, sim.params.tx_range, method="dense"
    )
    return edges[sim.active[edges[:, 0]] & sim.active[edges[:, 1]]]


class DenseLockstep:
    """Steps ``sim`` and checks it against the dense reference.

    After every step the live edge set must equal :func:`_dense_edges`
    and the step's events the :func:`~repro.spatial.diff_edge_sets` of
    consecutive references.  ``fail_node``/``recover_node`` calls
    between steps go to ``sim`` directly: the reference is taken after
    each step, so it sees the mask the step saw.
    """

    def __init__(self, sim):
        self.sim = sim
        self.reference = _dense_edges(sim)
        np.testing.assert_array_equal(sim.edges, self.reference)

    def step(self, steps=1):
        for _ in range(steps):
            events = self.sim.step()
            previous, self.reference = self.reference, _dense_edges(self.sim)
            np.testing.assert_array_equal(self.sim.edges, self.reference)
            _assert_same_events(
                events, diff_edge_sets(previous, self.reference)
            )


class TeleportingModel(MobilityModel):
    """Drifts slowly but teleports a random batch of nodes periodically.

    The teleports exceed any displacement budget, so the engine's
    global rebuild trigger must fire — exactness may never depend on
    motion staying small.
    """

    def __init__(self, speed: float, every: int = 5, batch: int = 6):
        super().__init__()
        self.speed = speed
        self.every = every
        self.batch = batch
        self._steps = 0

    def _advance(self, dt: float) -> None:
        step = self.rng.normal(0.0, self.speed * dt, self._positions.shape)
        self._positions += step
        self._steps += 1
        if self._steps % self.every == 0:
            jump = self.rng.choice(
                len(self._positions), size=self.batch, replace=False
            )
            self._positions[jump] = self.rng.random((self.batch, 2)) * (
                self.region.side
            )
        self._positions %= self.region.side


MODEL_FACTORIES = {
    "constant": lambda v: ConstantVelocityModel(v),
    "epoch-rwp": lambda v: EpochRandomWaypointModel(v, epoch=1.0),
    "rwp": lambda v: RandomWaypointModel((0.5 * v, 1.5 * v), (0.0, 0.3)),
    "walk": lambda v: RandomWalkModel((0.5 * v, 1.5 * v), interval=0.5),
    "direction": lambda v: RandomDirectionModel((0.5 * v, 1.5 * v), pause=0.2),
    "gauss-markov": lambda v: GaussMarkovModel(v, update_interval=0.5),
    "manhattan": lambda v: ManhattanModel((0.5 * v, 1.5 * v)),
    # Group centres at the network's speed scale.
    "group": lambda v: ReferencePointGroupModel(
        n_groups=5,
        group_radius=0.1,
        member_speed=v,
        center_speed_range=(0.5 * v, 1.5 * v),
    ),
    # The model's default centre speeds (0.5-1.5 side lengths per unit
    # time) move some node past the margin every step, so every step is
    # a full validation.
    "group-fast": lambda v: ReferencePointGroupModel(
        n_groups=5, group_radius=0.1, member_speed=v
    ),
    "teleport": lambda v: TeleportingModel(v),
}


class TestSimulationEquivalence:
    """Simulation-level lockstep equality against the dense metric."""

    @pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
    def test_every_mobility_model(self, model_name):
        params = _incremental_params()
        sim = Simulation(
            params, MODEL_FACTORIES[model_name](params.velocity), seed=9
        )
        DenseLockstep(sim).step(40)
        if model_name != "group-fast":
            assert sim._incremental.incremental_steps > 0

    def test_static_positions(self):
        params = _incremental_params()
        sim = Simulation(params, ConstantVelocityModel(0.0), seed=2)
        DenseLockstep(sim).step(10)
        assert sim._incremental.full_rebuilds == 1

    def test_fail_and_recover_mid_run(self):
        params = _incremental_params()
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, epoch=1.0), seed=3
        )
        lockstep = DenseLockstep(sim)
        lockstep.step(5)
        victims = [int(sim.degrees().argmax()), 0]
        for node in victims:
            sim.fail_node(node)
        lockstep.step(8)
        for node in victims:
            assert not np.any(sim.edges == node)
        sim.recover_node(victims[0])
        lockstep.step(8)

    def test_long_run_with_teleports_and_failures(self):
        params = _incremental_params(150)
        sim = Simulation(params, TeleportingModel(params.velocity), seed=4)
        lockstep = DenseLockstep(sim)
        for step in range(60):
            if step in (11, 29):
                sim.fail_node(step % params.n_nodes)
            if step == 41:
                sim.recover_node(11)
            lockstep.step()
        engine = sim._incremental
        assert engine.full_rebuilds > 1  # teleports forced validations
        assert engine.incremental_steps > 0

    def test_fault_transitions_keep_the_engine_state(self):
        # The engine's state depends on positions alone: a faulted run
        # validates exactly when an unfaulted twin on the same motion
        # does, while its masked edges and events still match the dense
        # reference.
        params = _incremental_params()
        faulted, twin = (
            Simulation(
                params,
                EpochRandomWaypointModel(params.velocity, epoch=1.0),
                seed=15,
            )
            for _ in range(2)
        )
        lockstep = DenseLockstep(faulted)
        victim = int(faulted.degrees().argmax())
        plan = {
            2: ("fail", victim),
            3: ("fail", 0),
            6: ("recover", victim),
            9: ("recover", 0),
            12: ("fail", 0),
            13: ("recover", 0),
        }
        for step in range(30):
            if step in plan:
                action, node = plan[step]
                getattr(faulted, f"{action}_node")(node)
            lockstep.step()
            twin.step()
            assert (
                faulted._incremental.full_rebuilds
                == twin._incremental.full_rebuilds
            ), step
        assert faulted._incremental.incremental_steps > 0


#: The paper's Fig 1 range axis and Fig 3 density axis need small and
#: dense networks as well as large sparse ones: the grid runs tiny,
#: crowded, near-saturated and fast networks on every boundary.
GRID_NODES = (2, 5, 30, 80)
GRID_RANGE_FRACTIONS = (0.1, 0.3, 0.45, 0.6, 0.9)
GRID_VELOCITY_FRACTIONS = (0.0, 0.05, 0.5)


class TestInputGrid:
    """Every grid network stays equal to the dense reference for 30
    steps."""

    @pytest.mark.parametrize(
        "boundary", [Boundary.TORUS, Boundary.REFLECT, Boundary.OPEN]
    )
    @pytest.mark.parametrize("n_nodes", GRID_NODES)
    def test_lockstep(self, boundary, n_nodes):
        for range_fraction in GRID_RANGE_FRACTIONS:
            for velocity_fraction in GRID_VELOCITY_FRACTIONS:
                params = NetworkParameters.from_fractions(
                    n_nodes=n_nodes,
                    range_fraction=range_fraction,
                    velocity_fraction=velocity_fraction,
                )
                sim = Simulation(
                    params,
                    EpochRandomWaypointModel(params.velocity, epoch=1.0),
                    boundary=boundary,
                    seed=n_nodes,
                )
                DenseLockstep(sim).step(30)


#: Non-uniform motion for the long runs.
LONG_RUN_FACTORIES = {
    name: MODEL_FACTORIES[name] for name in ("rwp", "gauss-markov", "group")
}


class TestLongRunLockstep:
    """Non-uniform motion across many validations, checked every step
    against the dense metric and a fresh edge-set diff."""

    @pytest.mark.parametrize("model_name", sorted(LONG_RUN_FACTORIES))
    def test_spans_six_validations(self, model_name):
        params = _incremental_params(300)
        sim = Simulation(
            params, LONG_RUN_FACTORIES[model_name](params.velocity), seed=11
        )
        engine = sim._incremental
        DenseLockstep(sim).step(80)
        # The initial validation plus at least six mid-run ones.
        assert engine.full_rebuilds >= 7
        assert engine.incremental_steps >= 3 * engine.full_rebuilds


def _assert_rows_match_csr(sim):
    """Every ``neighbors_of`` row equals the ``edges_to_csr`` row of the
    live edge set, dtype included, and is read-only."""
    indptr, indices = edges_to_csr(sim.edges, sim.n_nodes)
    bad = []
    for node in range(sim.n_nodes):
        row = sim.neighbors_of(node)
        expected = indices[indptr[node] : indptr[node + 1]]
        if (
            row.dtype != expected.dtype
            or row.flags.writeable
            or not np.array_equal(row, expected)
        ):
            bad.append(node)
    assert not bad, f"rows differ from edges_to_csr at nodes {bad[:10]}"


class TestNeighborRows:
    """Point queries on the incremental path read the engine's pair
    index and must return the CSR rows exactly; whenever a radio is
    masked the CSR answers them instead."""

    @pytest.mark.parametrize(
        "model_name", sorted(set(MODEL_FACTORIES) - {"group-fast"})
    )
    def test_rows_track_the_csr_across_validations(self, model_name):
        params = _incremental_params(300)
        sim = Simulation(
            params, MODEL_FACTORIES[model_name](params.velocity), seed=13
        )
        engine = sim._incremental
        steps = 0
        while True:
            _assert_rows_match_csr(sim)
            # Served by the pair index: no step built the CSR.
            assert sim._neighbor_csr is None
            # The initial validation plus three more.
            if engine.full_rebuilds >= 4 or steps == 300:
                break
            sim.step()
            steps += 1
        assert engine.full_rebuilds >= 4
        assert engine.incremental_steps > 0

    def test_csr_takes_over_around_failures(self):
        params = _incremental_params(300)
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, epoch=1.0), seed=14
        )
        victim = int(sim.degrees().argmax())
        plan = {
            3: ("fail", victim),
            4: ("fail", 0),
            7: ("recover", victim),
            9: ("recover", 0),
        }
        for step in range(12):
            if step in plan:
                action, node = plan[step]
                getattr(sim, f"{action}_node")(node)
                # The edge set changes only at the next step.
                _assert_rows_match_csr(sim)
            sim.step()
            masked = not sim.active.all()
            _assert_rows_match_csr(sim)
            assert (sim._neighbor_csr is not None) == masked, step
            if not sim.active[victim]:
                assert sim.neighbors_of(victim).size == 0

    def test_steps_sort_no_csr(self, monkeypatch):
        # Event HELLO + LID maintenance + intra-cluster routing: the
        # point queries of maintenance must not rebuild the CSR.
        params = _incremental_params(300)
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, epoch=1.0), seed=5
        )
        sim.attach(HelloProtocol(mode="event"))
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        sim.attach(IntraClusterRoutingProtocol(maintenance))
        sim.attach(maintenance)
        calls = {"edges_to_csr": 0, "neighbors_of": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            engine_module,
            "edges_to_csr",
            counted("edges_to_csr", engine_module.edges_to_csr),
        )
        monkeypatch.setattr(
            Simulation,
            "neighbors_of",
            counted("neighbors_of", Simulation.neighbors_of),
        )
        for _ in range(20):
            sim.step()
        assert calls["neighbors_of"] > 0
        assert calls["edges_to_csr"] == 0


def _counting_diff(monkeypatch):
    """Count the simulation's edge-set diffs; returns the call list."""
    calls = []
    diff = engine_module.diff_edge_sets

    def counted(previous, current):
        calls.append(len(current))
        return diff(previous, current)

    monkeypatch.setattr(engine_module, "diff_edge_sets", counted)
    return calls


class TestValidationEvents:
    """A full validation returns the exact link events itself, so an
    unmasked step never diffs two edge sets."""

    def test_stack_steps_diff_no_edge_sets(self, monkeypatch):
        # Event HELLO + LID maintenance + intra-cluster routing across
        # three validations after the initial one.
        params = _incremental_params(300)
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, epoch=1.0), seed=5
        )
        sim.attach(HelloProtocol(mode="event"))
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        sim.attach(IntraClusterRoutingProtocol(maintenance))
        sim.attach(maintenance)
        calls = _counting_diff(monkeypatch)
        engine = sim._incremental
        for _ in range(200):
            sim.step()
            if engine.full_rebuilds >= 4:
                break
        assert engine.full_rebuilds >= 4
        assert calls == []

    @pytest.mark.parametrize(
        "boundary", [Boundary.TORUS, Boundary.REFLECT, Boundary.OPEN]
    )
    @pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
    def test_events_match_the_dense_diff(
        self, monkeypatch, model_name, boundary
    ):
        params = _incremental_params()
        sim = Simulation(
            params,
            MODEL_FACTORIES[model_name](params.velocity),
            boundary=boundary,
            seed=17,
        )
        engine = sim._incremental
        calls = _counting_diff(monkeypatch)
        # DenseLockstep compares every step's events, validation steps
        # included, with the diff of the masked dense references.
        DenseLockstep(sim).step(30)
        assert engine.full_rebuilds >= 3
        assert calls == []

    def test_edges_leaving_the_candidate_radius(self, unit_torus):
        # Node 1 jumps from next to nodes 0 and 2 to the far side of the
        # torus: its two old edges are no longer candidates, so the
        # count check must find them by key.  Edge (0, 2) stretches past
        # the range but stays a candidate, and (0, 3) forms, so the
        # lost edges have to be merged into key order.
        engine = IncrementalConnectivityEngine(unit_torus, 0.1)
        before = np.array(
            [[0.2, 0.2], [0.25, 0.2], [0.29, 0.2], [0.2, 0.32]]
        )
        after = np.array(
            [[0.2, 0.2], [0.7, 0.7], [0.31, 0.2], [0.2, 0.28]]
        )
        first = engine.step(before)
        np.testing.assert_array_equal(first.edges, [[0, 1], [0, 2], [1, 2]])
        result = engine.step(after)
        assert result.rebuilt
        assert unit_torus.distance(after[0], after[1]) > engine._r_cand
        assert unit_torus.distance(after[2], after[1]) > engine._r_cand
        np.testing.assert_array_equal(
            result.edges,
            compute_edges(unit_torus, after, 0.1, method="dense"),
        )
        np.testing.assert_array_equal(result.events.generated, [[0, 3]])
        np.testing.assert_array_equal(
            result.events.broken, [[0, 1], [0, 2], [1, 2]]
        )
        _assert_same_events(
            result.events, diff_edge_sets(first.edges, result.edges)
        )

    @pytest.mark.parametrize("boundary", [Boundary.TORUS, Boundary.OPEN])
    def test_pair_on_the_shell_boundary(self, boundary):
        # Nodes 0 and 1 sit at the range and each move STEP straight
        # away from the other, so their separation grows by the whole
        # shell width 2 * s in the validation step.  Rounding can put
        # the new gap |d - r| just above 2 * s: only the eps slack
        # keeps such a pair in the shell.  Node 2, far away, moves a
        # little less each step and triggers the validation.
        region = SquareRegion(1.0, boundary)
        tx_range, step = 0.1, 0.0135
        rng = np.random.default_rng(31)
        for _ in range(1000):
            u = rng.normal(size=2)
            u /= np.hypot(*u)
            a1 = 0.3 + 0.1 * rng.random(2)
            b1 = a1 + tx_range * u
            a0, b0 = a1 - step * u, b1 - step * u
            b2 = b1 + step * u
            c0 = np.array([0.8, 0.8])
            c1 = c0 + 0.9 * step * u
            c2 = c1 + 0.9 * step * u
            frames = [
                np.array(frame)
                for frame in ((a0, b0, c0), (a1, b1, c1), (a0, b2, c2))
            ]
            pair = np.array([0]), np.array([1])
            d_prev = _pair_distances(region, frames[1], *pair)[0]
            d_now = _pair_distances(region, frames[2], *pair)[0]
            moved = region.distance(frames[1], frames[2])
            if (
                d_prev <= tx_range < d_now
                and abs(d_now - tx_range) > 2.0 * moved.max()
            ):
                break
        else:
            pytest.fail("no pair rounds past the shell boundary")
        engine = IncrementalConnectivityEngine(region, tx_range)
        results = [engine.step(frame) for frame in frames]
        assert [result.rebuilt for result in results] == [True, False, True]
        np.testing.assert_array_equal(results[1].edges, [[0, 1]])
        assert results[2].edges.shape == (0, 2)
        np.testing.assert_array_equal(results[2].events.broken, [[0, 1]])
        assert results[2].events.generated.shape == (0, 2)


class TestRecheckBudget:
    """A pair is recomputed only once its two odometers have used up the
    budget of its last measurement, and every validation restarts it.

    Node 1 moves along x next to a static node 0 in steps of
    ``STEP``; the pair sits ``GAP`` beyond the range at the start.
    """

    TX_RANGE = 0.1
    STEP = 0.001
    GAP = 0.005

    def _pair_engine(self, unit_torus):
        engine = IncrementalConnectivityEngine(unit_torus, self.TX_RANGE)
        positions = np.array(
            [[0.5, 0.5], [0.5 + self.TX_RANGE + self.GAP, 0.5]]
        )
        assert engine.step(positions).rebuilt
        return engine, positions

    def test_recompute_restarts_the_budget(self, unit_torus):
        engine, positions = self._pair_engine(unit_torus)
        rechecked = []
        for step in range(1, 41):
            positions = positions.copy()
            positions[1, 0] += self.STEP
            result = engine.step(positions)
            assert not result.rebuilt
            if result.at_risk:
                rechecked.append(step)
        # Receding at STEP per step from d0 = r + GAP: rechecked once the
        # odometer reaches the gap of the last measurement (5 steps),
        # then after 10 more steps (gap 0.010), then 20 (gap 0.020).
        assert rechecked == [5, 15, 35]

    def test_validation_resets_the_odometers(self, unit_torus):
        engine, positions = self._pair_engine(unit_torus)
        # Back-and-forth motion: the odometer grows, the pair does not.
        for step in range(30):
            positions = positions.copy()
            positions[1, 0] += self.STEP if step % 2 == 0 else -self.STEP
            assert not engine.step(positions).rebuilt
        assert engine.at_risk_total > 0
        # Jump node 1 to the mirror position across node 0: the jump
        # exceeds the margin, so the engine validates, and the pair
        # keeps its gap and thus its budget.
        positions = positions.copy()
        positions[1, 0] = 0.5 - self.TX_RANGE - self.GAP
        assert engine.step(positions).rebuilt
        for _ in range(5):
            assert engine.step(positions).at_risk == 0


class TestBoundaryInputs:
    """Raw positions the KD-tree sweep must fold or accept, compared
    against the dense metric over a short motion stream."""

    @staticmethod
    def _assert_matches_dense(region, positions, tx_range, rng, steps=12):
        engine = IncrementalConnectivityEngine(region, tx_range)
        for _ in range(steps):
            result = engine.step(positions)
            np.testing.assert_array_equal(
                result.edges,
                compute_edges(region, positions, tx_range, method="dense"),
            )
            positions = positions + rng.normal(
                0.0, 0.001 * region.side, positions.shape
            )
        assert engine.incremental_steps > 0

    def test_torus_coordinate_rounding_up_to_side(self, unit_torus):
        assert np.mod(-1e-18, 1.0) == 1.0
        rng = np.random.default_rng(21)
        positions = unit_torus.uniform_positions(120, rng)
        positions[:3] = [[-1e-18, 0.5], [0.95, 0.5], [0.03, 0.52]]
        engine = IncrementalConnectivityEngine(unit_torus, 0.1)
        for _ in range(3):
            np.testing.assert_array_equal(
                engine.step(positions).edges,
                compute_edges(unit_torus, positions, 0.1, method="dense"),
            )
        assert engine.full_rebuilds == 1

    def test_open_positions_outside_the_square(self):
        region = SquareRegion(1.0, Boundary.OPEN)
        rng = np.random.default_rng(22)
        positions = rng.uniform(-0.2, 1.2, (150, 2))
        self._assert_matches_dense(region, positions, 0.1, rng)

    def test_torus_candidate_radius_past_half_side(self, unit_torus):
        rng = np.random.default_rng(23)
        positions = unit_torus.uniform_positions(60, rng)
        engine = IncrementalConnectivityEngine(unit_torus, 0.35)
        assert engine.tx_range + engine.margin >= unit_torus.side / 2
        for _ in range(12):
            np.testing.assert_array_equal(
                engine.step(positions).edges,
                compute_edges(unit_torus, positions, 0.35, method="dense"),
            )
            positions = (
                positions + rng.normal(0.0, 0.001, positions.shape)
            ) % 1.0
        assert engine.incremental_steps > 0


class TestBareEngineEquivalence:
    """Direct engine-vs-dense equality outside the simulation loop,
    covering the non-torus boundaries the Simulation never uses."""

    @pytest.mark.parametrize(
        "boundary", [Boundary.TORUS, Boundary.OPEN, Boundary.REFLECT]
    )
    @pytest.mark.parametrize("side", [1.0, 3.7])
    def test_random_motion_stream(self, boundary, side):
        region = SquareRegion(side, boundary)
        tx_range = 0.08 * side
        rng = np.random.default_rng(7)
        positions = region.uniform_positions(150, 7)
        engine = IncrementalConnectivityEngine(region, tx_range)
        prev_edges = None
        for step in range(50):
            result = engine.step(positions)
            expected = compute_edges(
                region, positions, tx_range, method="dense"
            )
            np.testing.assert_array_equal(result.edges, expected)
            # Every step after the first carries its own events.
            assert (result.events is None) == (prev_edges is None)
            if prev_edges is not None:
                _assert_same_events(
                    result.events, diff_edge_sets(prev_edges, result.edges)
                )
            prev_edges = result.edges
            positions = positions + rng.normal(
                0.0, 0.002 * side, positions.shape
            )
            if step == 25:  # one hard teleport mid-stream
                positions = positions.copy()
                positions[rng.integers(150)] = rng.random(2) * side
            if boundary is Boundary.TORUS:
                positions = positions % side
            else:
                positions = np.clip(positions, 0.0, side)
        assert engine.incremental_steps > 0

    def test_rebuild_cadence_amortizes(self, unit_torus):
        # recommended_step-scale motion must run many incremental steps
        # per validation, or the design has no speedup to offer.
        rng = np.random.default_rng(2)
        positions = unit_torus.uniform_positions(200, 2)
        engine = IncrementalConnectivityEngine(unit_torus, 0.1)
        for _ in range(40):
            engine.step(positions)
            positions = (
                positions + rng.normal(0.0, 0.002, positions.shape)
            ) % 1.0
        assert engine.incremental_steps >= 4 * engine.full_rebuilds

    def test_rejects_bad_parameters(self, unit_torus):
        with pytest.raises(ValueError):
            IncrementalConnectivityEngine(unit_torus, 0.0)


class TestBenchEquivalenceCheck:
    """``repro-manet bench`` runs its equivalence check across
    validations, not inside one validation cycle."""

    def test_crosses_three_validations(self, monkeypatch):
        from repro.analysis.benchmark import check_equivalence

        validations = []
        validate = IncrementalConnectivityEngine._validate

        def counting(engine, positions):
            validations.append(engine)
            return validate(engine, positions)

        monkeypatch.setattr(IncrementalConnectivityEngine, "_validate", counting)
        assert check_equivalence(_incremental_params(150)) == "ok"
        # The initial validation plus three more.
        assert len(validations) >= 4

    def test_static_network_cannot_pass(self):
        from repro.analysis.benchmark import check_equivalence

        static = NetworkParameters.from_fractions(
            n_nodes=150, range_fraction=0.08, velocity_fraction=0.0
        )
        assert check_equivalence(static).startswith("only 0 validations")


class TestFastDistanceKernel:
    """`_pair_distances` must be bitwise-equal to the region metric."""

    @pytest.mark.parametrize("side", [1.0, 0.3333333333333333, 1000.0])
    def test_torus_bitwise(self, side):
        region = SquareRegion(side, Boundary.TORUS)
        rng = np.random.default_rng(5)
        pos = rng.random((400, 2)) * side
        # Adversarial band: pairs separated by almost exactly side/2,
        # where the wrap branch choice is the closest call.
        pos[200:] = (
            pos[:200] + side / 2 + rng.normal(0.0, 1e-9 * side, (200, 2))
        ) % side
        i = rng.integers(0, 400, 5000)
        j = rng.integers(0, 400, 5000)
        fast = _pair_distances(region, pos, i, j)
        reference = region.distance(pos[i], pos[j])
        np.testing.assert_array_equal(fast, reference)

    def test_open_bitwise(self):
        region = SquareRegion(1.0, Boundary.OPEN)
        rng = np.random.default_rng(6)
        pos = rng.random((300, 2))
        i = rng.integers(0, 300, 3000)
        j = rng.integers(0, 300, 3000)
        np.testing.assert_array_equal(
            _pair_distances(region, pos, i, j),
            region.distance(pos[i], pos[j]),
        )


class TestPhaseTiming:
    def test_revalidate_phase_recorded(self):
        params = _incremental_params()
        timer = PhaseTimer()
        sim = Simulation(
            params,
            EpochRandomWaypointModel(params.velocity, epoch=1.0),
            seed=8,
            timer=timer,
        )
        for _ in range(10):
            sim.step()
        phases = {p.phase: p for p in timer.report().phases}
        assert "incremental_revalidate" in phases
        assert phases["incremental_revalidate"].seconds >= 0.0
        assert phases["incremental_revalidate"].calls > 0
        assert phases["adjacency"].seconds >= 0.0
        # The sub-phase is disjoint from adjacency, so the report total
        # still accounts each second exactly once.
        report = timer.report()
        assert report.total_seconds == pytest.approx(
            sum(p.seconds for p in report.phases)
        )


class TestParallelDeterminism:
    def test_sweep_bitwise_identical_across_jobs(self):
        from repro.analysis.sweep import measure_point

        params = _incremental_params(120)
        kwargs = dict(seeds=3, duration=2.0, warmup=0.5)
        serial = measure_point(params, params.tx_range, **kwargs, jobs=1)
        parallel = measure_point(params, params.tx_range, **kwargs, jobs=2)
        assert serial == parallel
