"""End-to-end integration tests: the paper's claims on the full stack.

These tests tie the analytical model (repro.core) to the simulation
stack (repro.sim + repro.clustering + repro.routing) exactly the way
Section 4 of the paper does, and assert the agreements the paper
reports.  They are the single most important tests of the reproduction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    ClusterMaintenanceProtocol,
    LowestIdClustering,
    check_properties,
)
from repro.core import overhead as oh
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import (
    DsdvProtocol,
    HybridRoutingProtocol,
    IntraClusterRoutingProtocol,
)
from repro.sim import HelloProtocol, Simulation


@pytest.fixture(scope="module")
def measured_stack():
    """One full measurement run shared by the agreement tests."""
    params = NetworkParameters.from_fractions(
        n_nodes=150, range_fraction=0.15, velocity_fraction=0.05
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, 1.0), seed=77
    )
    sim.attach(HelloProtocol("event"))
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    intra = IntraClusterRoutingProtocol(maintenance)
    sim.attach(intra)
    sim.attach(maintenance)
    stats = sim.run(duration=25.0, warmup=3.0)
    return params, sim, maintenance, stats


class TestFrequencyAgreement:
    """Figures 1-3 agreement at one parameter point."""

    def test_hello_matches_analysis(self, measured_stack):
        params, _, _, stats = measured_stack
        measured = stats.per_node_frequency("hello")
        predicted = oh.hello_frequency(params)
        # Claim 1 underestimates the torus degree slightly; 25% covers it.
        assert measured == pytest.approx(predicted, rel=0.25)

    def test_cluster_matches_analysis(self, measured_stack):
        params, _, maintenance, stats = measured_stack
        measured = stats.per_node_frequency("cluster")
        predicted = oh.cluster_frequency(params, maintenance.head_ratio())
        assert measured == pytest.approx(predicted, rel=0.35)

    def test_route_is_lower_bounded_by_analysis(self, measured_stack):
        params, _, maintenance, stats = measured_stack
        measured = stats.per_node_frequency("route")
        predicted = oh.route_frequency(params, maintenance.head_ratio())
        # The analysis is an explicit lower bound (its member-member
        # intra-cluster link estimate ignores spatial correlation).
        assert measured > 0.7 * predicted
        # ...but not absurdly loose at this density.
        assert measured < 4.0 * predicted

    def test_printed_convention_fits_worse_for_cluster(self, measured_stack):
        params, _, maintenance, stats = measured_stack
        measured = stats.per_node_frequency("cluster")
        p_head = maintenance.head_ratio()
        err_consistent = abs(
            measured - oh.cluster_frequency(params, p_head, "consistent")
        )
        err_printed = abs(
            measured - oh.cluster_frequency(params, p_head, "printed")
        )
        assert err_consistent < err_printed


class TestStructuralInvariants:
    def test_structure_valid_at_end(self, measured_stack):
        _, sim, maintenance, _ = measured_stack
        assert check_properties(maintenance.state, sim.neighbor_csr).ok

    def test_head_ratio_in_sane_band(self, measured_stack):
        _, _, maintenance, _ = measured_stack
        assert 0.02 < maintenance.head_ratio() < 0.8


class TestHybridVsFlat:
    """The introduction's motivation: clustering reduces overhead."""

    def test_hybrid_cheaper_than_dsdv(self):
        params = NetworkParameters.from_fractions(
            n_nodes=120, range_fraction=0.18, velocity_fraction=0.03
        )

        def overhead_for(stack: str) -> float:
            sim = Simulation(
                params, EpochRandomWaypointModel(params.velocity, 1.0), seed=9
            )
            if stack == "hybrid":
                sim.attach(HelloProtocol("event"))
                maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
                intra = IntraClusterRoutingProtocol(maintenance)
                sim.attach(intra)
                sim.attach(maintenance)
                sim.attach(HybridRoutingProtocol(maintenance, intra))
            else:
                sim.attach(DsdvProtocol(periodic_interval=1.0))
            stats = sim.run(duration=8.0, warmup=1.0)
            return stats.total_overhead()

        hybrid = overhead_for("hybrid")
        dsdv = overhead_for("dsdv")
        assert hybrid < dsdv

    def test_backbone_flood_cheaper_than_full_flood(self):
        """Clustered RREQ floods < AODV network-wide floods."""
        from repro.routing import AodvProtocol, discover_route

        params = NetworkParameters.from_fractions(
            n_nodes=150, range_fraction=0.15, velocity_fraction=0.0
        )
        sim = Simulation(
            params, EpochRandomWaypointModel(0.0, 1.0), seed=10
        )
        maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
        sim.attach(maintenance)
        aodv = sim.attach(AodvProtocol())

        rng = np.random.default_rng(1)
        backbone = full = 0
        pairs = 0
        while pairs < 10:
            u, v = (int(x) for x in rng.integers(0, params.n_nodes, 2))
            if u == v:
                continue
            result = discover_route(
                sim, maintenance.state, u, v, record_stats=False
            )
            if not result.found:
                continue
            sim.stats.start_measuring()
            sim.stats.measured_time = 1.0
            before = sim.stats.message_count("aodv")
            aodv.discover(sim, u, v)
            full += sim.stats.message_count("aodv") - before
            backbone += result.rreq_transmissions
            pairs += 1
        assert backbone < full


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        params = NetworkParameters.from_fractions(
            n_nodes=60, range_fraction=0.18, velocity_fraction=0.05
        )

        def run():
            sim = Simulation(
                params, EpochRandomWaypointModel(params.velocity, 1.0), seed=5
            )
            sim.attach(HelloProtocol("event"))
            maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
            intra = IntraClusterRoutingProtocol(maintenance)
            sim.attach(intra)
            sim.attach(maintenance)
            stats = sim.run(duration=5.0, warmup=0.5)
            return {
                category: totals.messages
                for category, totals in stats.totals.items()
            }

        assert run() == run()
