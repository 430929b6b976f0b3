"""Tests for the simulation kernel (repro.sim.engine)."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.clustering import (
    ClusterMaintenanceProtocol,
    HighestConnectivityClustering,
    LowestIdClustering,
)
from repro.core.params import NetworkParameters
from repro.mobility import ConstantVelocityModel, EpochRandomWaypointModel
from repro.obs import InvariantAuditor, OverheadLedger, ResidualMonitor
from repro.obs.timing import PhaseTimer
from repro.routing import HybridRoutingProtocol, IntraClusterRoutingProtocol
from repro.sim import (
    CbrFlow,
    HelloProtocol,
    HybridRouterAdapter,
    Protocol,
    Simulation,
    TrafficProtocol,
    recommended_step,
)
from repro.spatial import Boundary, edges_to_adjacency


class RecordingProtocol(Protocol):
    """Captures every hook invocation for ordering assertions."""

    def __init__(self, name: str = "recording"):
        self.name = name
        self.events = []
        self.attached_to = None

    def on_attach(self, sim):
        self.attached_to = sim

    def on_step_begin(self, sim, time):
        self.events.append(("begin", time))

    def on_link_up(self, sim, u, v, time):
        self.events.append(("up", u, v, time))

    def on_link_down(self, sim, u, v, time):
        self.events.append(("down", u, v, time))

    def on_step_end(self, sim, time):
        self.events.append(("end", time))


@pytest.fixture
def sim(params) -> Simulation:
    return Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=3
    )


class TestRecommendedStep:
    def test_scales_with_range_over_speed(self):
        assert recommended_step(0.2, 0.1) == pytest.approx(
            2 * recommended_step(0.1, 0.1)
        )

    def test_static_default(self):
        assert recommended_step(0.1, 0.0) == 0.1

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            recommended_step(0.0, 1.0)


class TestConstruction:
    def test_initial_adjacency_matches_positions(self, sim, params):
        expected = sim.region.adjacency(sim.positions, params.tx_range)
        np.testing.assert_array_equal(
            edges_to_adjacency(sim.edges, sim.n_nodes), expected
        )

    def test_region_side_from_params(self, sim, params):
        assert sim.region.side == pytest.approx(params.side)
        assert sim.region.boundary is Boundary.TORUS

    def test_rejects_bad_dt(self, params):
        with pytest.raises(ValueError):
            Simulation(
                params, ConstantVelocityModel(params.velocity), dt=0.0, seed=0
            )

    def test_deterministic_given_seed(self, params):
        counts = []
        for _ in range(2):
            sim = Simulation(
                params, EpochRandomWaypointModel(params.velocity, 1.0), seed=5
            )
            events = 0
            for _ in range(20):
                events += sim.step().change_count
            counts.append(events)
        assert counts[0] == counts[1]


class TestTopologyAccessors:
    def test_neighbors_of(self, sim):
        adjacency = edges_to_adjacency(sim.edges, sim.n_nodes)
        for node in (0, 17, 50):
            np.testing.assert_array_equal(
                sim.neighbors_of(node), np.flatnonzero(adjacency[node])
            )

    def test_neighbor_rows_are_read_only(self, sim):
        node = int(sim.degrees().argmax())
        with pytest.raises(ValueError):
            sim.neighbors_of(node)[0] = node
        for array in sim.neighbor_csr:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_degree_of(self, sim):
        adjacency = edges_to_adjacency(sim.edges, sim.n_nodes)
        for node in range(sim.n_nodes):
            assert sim.degree_of(node) == int(adjacency[node].sum())

    def test_has_link_symmetric(self, sim):
        u = 0
        neighbors = sim.neighbors_of(u)
        if len(neighbors):
            v = int(neighbors[0])
            assert sim.has_link(u, v) and sim.has_link(v, u)


class TestStepDelivery:
    def test_hook_ordering(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=1
        )
        protocol = sim.attach(RecordingProtocol())
        assert protocol.attached_to is sim
        sim.step()
        kinds = [event[0] for event in protocol.events]
        assert kinds[0] == "begin"
        assert kinds[-1] == "end"
        middle = kinds[1:-1]
        # Downs are delivered before ups within a step.
        if "up" in middle and "down" in middle:
            assert middle.index("down") < middle.index("up")

    def test_events_match_adjacency_diff(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=2
        )
        before = edges_to_adjacency(sim.edges, sim.n_nodes)
        events = sim.step()
        after = edges_to_adjacency(sim.edges, sim.n_nodes)
        for u, v in events.generated:
            assert not before[u, v] and after[u, v]
        for u, v in events.broken:
            assert before[u, v] and not after[u, v]

    def test_time_advances_by_dt(self, sim):
        dt = sim.dt
        sim.step()
        sim.step()
        assert sim.time == pytest.approx(2 * dt)

    def test_multiple_protocols_all_notified(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=4
        )
        a = sim.attach(RecordingProtocol("first"))
        b = sim.attach(RecordingProtocol("second"))
        sim.step()
        assert [e for e in a.events] == [e for e in b.events]
        assert sim.protocols == (a, b)

    def test_duplicate_protocol_name_rejected(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=4
        )
        sim.attach(RecordingProtocol("twin"))
        with pytest.raises(ValueError, match="twin"):
            sim.attach(RecordingProtocol("twin"))


class FakeClock:
    """``perf_counter`` stand-in: every read advances it by one tick."""

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def __call__(self):
        self.now += 1.0
        self.reads += 1
        return self.now


class TickingProtocol(Protocol):
    """Each hook advances the fake clock by ``ticks`` and logs itself."""

    def __init__(self, name, ticks, clock, log):
        self.name = name
        self.ticks = ticks
        self.clock = clock
        self.log = log
        self.calls = 0
        #: Clock reads and clock value when the first hook ran.
        self.first_seen = None

    def _hook(self, *entry):
        if self.first_seen is None:
            self.first_seen = (self.clock.reads, self.clock.now)
        self.clock.now += self.ticks
        self.calls += 1
        self.log.append((self.name, *entry))

    def on_step_begin(self, sim, time):
        self._hook("begin")

    def on_link_down(self, sim, u, v, time):
        self._hook("down", u, v)

    def on_link_up(self, sim, u, v, time):
        self._hook("up", u, v)

    def on_step_end(self, sim, time):
        self._hook("end")


class TestDispatchTiming:
    """One clock read per hook call; the protocol phases partition the
    dispatch loop."""

    def test_phases_partition_the_dispatch_span(self, params, monkeypatch):
        timer = PhaseTimer()
        sim = Simulation(
            params,
            EpochRandomWaypointModel(params.velocity, 1.0),
            seed=2,
            timer=timer,
        )
        clock = FakeClock()
        log = []
        first = sim.attach(TickingProtocol("first", 10.0, clock, log))
        second = sim.attach(TickingProtocol("second", 1000.0, clock, log))
        monkeypatch.setattr(engine_module, "perf_counter", clock)
        events = sim.step()
        assert events.break_count and events.generation_count

        expected = []
        for entry in (
            [("begin",)]
            + [("down", u, v) for u, v in events.broken.tolist()]
            + [("up", u, v) for u, v in events.generated.tolist()]
            + [("end",)]
        ):
            expected += [("first", *entry), ("second", *entry)]
        assert log == expected

        calls = 2 + events.change_count
        assert first.calls == second.calls == calls
        # The hooks' ticks plus one tick per read, the read after each call.
        assert timer.seconds("protocol:first") == calls * (10.0 + 1.0)
        assert timer.seconds("protocol:second") == calls * (1000.0 + 1.0)
        # One read opens the loop (its value is the clock when the first
        # hook runs) and one follows each hook call; no read follows
        # the loop, so the span ends at the clock's last value.
        reads_before, opened_at = first.first_seen
        assert clock.reads - reads_before == 2 * calls
        span = clock.now - opened_at
        assert (
            timer.seconds("protocol:first") + timer.seconds("protocol:second")
            == span
        )


class TestDispatchAllocation:
    def test_no_container_per_link_event(self):
        """Hooks get Python ints without a pair object per event, so the
        cyclic GC's allocation count does not grow with the events."""

        class GcCount(Protocol):
            name = "gc-count"

            def tap(self, sim, events):
                # Taps run after the step's events are final and before
                # the dispatch code touches them.
                self.begin = gc.get_count()[0]

            # Overridden, so the engine dispatches every link event.
            def on_link_down(self, sim, u, v, time):
                pass

            def on_link_up(self, sim, u, v, time):
                pass

            def on_step_end(self, sim, time):
                self.end = gc.get_count()[0]

        params = NetworkParameters.from_fractions(
            n_nodes=300, range_fraction=0.15, velocity_fraction=0.2
        )
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=2
        )
        probe = sim.attach(GcCount())
        sim.add_signal_tap(probe.tap)
        enabled = gc.isenabled()
        gc.disable()  # a collection would reset the count mid-step
        try:
            events = sim.step()
        finally:
            if enabled:
                gc.enable()
        assert events.break_count and events.generation_count
        assert events.change_count >= 100
        assert probe.end - probe.begin < events.change_count // 10


class Quiet(Protocol):
    """Overrides no hook at all."""

    name = "quiet"


class TestHookDispatch:
    """The engine calls only the step hooks a protocol overrides."""

    @pytest.fixture
    def base_calls(self, monkeypatch):
        """Counts calls that reach Protocol's own step hooks."""
        calls = []
        for hook in ("on_step_begin", "on_link_up", "on_link_down", "on_step_end"):

            def no_op(self, *args, hook=hook):
                calls.append(hook)

            monkeypatch.setattr(Protocol, hook, no_op)
        return calls

    def test_inherited_hooks_are_not_called(self, params, base_calls):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=1
        )
        sim.attach(Quiet())
        recording = sim.attach(RecordingProtocol())
        events = sim.step()
        assert events.break_count and events.generation_count
        assert base_calls == []
        kinds = [event[0] for event in recording.events]
        assert kinds.count("down") == events.break_count
        assert kinds.count("up") == events.generation_count
        assert kinds.count("begin") == kinds.count("end") == 1

    def test_instance_wrapper_is_called_once_per_event(self, params, base_calls):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=1
        )
        quiet = sim.attach(Quiet())
        calls = {}
        for hook in ("on_step_begin", "on_link_up", "on_link_down", "on_step_end"):
            inherited = getattr(quiet, hook)

            def wrapper(*args, hook=hook, inherited=inherited):
                calls[hook] = calls.get(hook, 0) + 1
                return inherited(*args)

            # Set on the instance after attach, as perfbench's probes do.
            setattr(quiet, hook, wrapper)
        events = sim.step()
        assert events.break_count and events.generation_count
        assert calls == {
            "on_step_begin": 1,
            "on_link_down": events.break_count,
            "on_link_up": events.generation_count,
            "on_step_end": 1,
        }
        # Each wrapper reached the inherited no-op it wraps.
        assert len(base_calls) == 2 + events.change_count

    def test_duck_typed_protocol_without_hooks(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=1
        )

        class Bare:
            name = "bare"

            def on_attach(self, sim):
                pass

        sim.attach(Bare())
        assert sim.step().change_count

    @pytest.mark.parametrize(
        "cls, inherited",
        [
            (OverheadLedger, ("on_step_begin", "on_link_up", "on_link_down")),
            (InvariantAuditor, ("on_step_begin", "on_link_up", "on_link_down")),
            (
                ResidualMonitor,
                ("on_attach", "on_step_begin", "on_link_up", "on_link_down"),
            ),
        ],
    )
    def test_observers_inherit_the_no_ops(self, cls, inherited):
        assert issubclass(cls, Protocol)
        for hook in inherited:
            assert hook not in vars(cls), f"{cls.__name__}.{hook}"
            assert getattr(cls, hook) is getattr(Protocol, hook)

    def test_every_protocol_keeps_its_timing_row(self, params):
        sim = Simulation(
            params,
            EpochRandomWaypointModel(params.velocity, 1.0),
            seed=1,
            timer=PhaseTimer(),
        )
        sim.attach(Quiet())
        sim.attach(RecordingProtocol())
        sim.step()
        phases = {phase.phase for phase in sim.timing_report().phases}
        assert {"protocol:quiet", "protocol:recording"} <= phases


class TestRun:
    def test_warmup_excluded_from_stats(self, params):
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=6
        )
        stats = sim.run(duration=1.0, warmup=0.5)
        assert stats.measured_time == pytest.approx(
            sim.dt * max(1, round(1.0 / sim.dt)), rel=0.01
        )

    def test_invalid_durations(self, sim):
        with pytest.raises(ValueError):
            sim.run(duration=0.0)
        with pytest.raises(ValueError):
            sim.run(duration=1.0, warmup=-1.0)

    def test_incremental_engine_used_for_auto_large_sparse(self):
        params = NetworkParameters.from_fractions(
            n_nodes=500, range_fraction=0.05, velocity_fraction=0.02
        )
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=7
        )
        expected = sim.region.adjacency(sim.positions, params.tx_range)
        np.testing.assert_array_equal(
            edges_to_adjacency(sim.edges, sim.n_nodes), expected
        )
        sim.step()
        expected = sim.region.adjacency(sim.positions, params.tx_range)
        np.testing.assert_array_equal(
            edges_to_adjacency(sim.edges, sim.n_nodes), expected
        )


class TestStepMemory:
    """No step allocates an ``N x N`` array: its cost follows the edges."""

    @pytest.mark.parametrize("algorithm", ["lid", "hcc"])
    def test_step_peak_stays_below_a_dense_matrix(self, algorithm):
        n = 3000
        params = NetworkParameters.from_fractions(
            n_nodes=n, range_fraction=0.03, velocity_fraction=0.05
        )
        sim = Simulation(
            params, EpochRandomWaypointModel(params.velocity, 1.0), seed=0
        )
        sim.attach(HelloProtocol(mode="periodic", interval=0.5))
        if algorithm == "lid":
            maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        else:
            maintenance = ClusterMaintenanceProtocol(
                HighestConnectivityClustering(), dynamic_priority=True
            )
        intra = sim.attach(IntraClusterRoutingProtocol(maintenance))
        sim.attach(maintenance)
        hybrid = sim.attach(HybridRoutingProtocol(maintenance, intra))
        flows = [CbrFlow(k, n - 1 - k, sim.dt) for k in range(10)]
        sim.attach(TrafficProtocol(flows, HybridRouterAdapter(hybrid)))
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(8):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                sim.step()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert max(peaks) < n * n / 2, peaks
