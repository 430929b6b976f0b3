#!/usr/bin/env python3
"""Failure resilience of the clustered stack.

Cluster-heads are single points of (local) failure: when one dies, its
whole cluster must re-affiliate, paying a burst of CLUSTER messages and
a round of route updates.  This example crashes an escalating fraction
of the network mid-run — always preferring cluster-heads, the worst
case — and shows:

* the maintenance protocol repairs the structure after every crash
  (P1/P2 verified continuously),
* the control-message cost of each repair wave,
* how delivery of cross-cluster traffic degrades and recovers.

Run::

    python examples/failure_resilience.py
"""

from __future__ import annotations

import numpy as np

from repro.clustering import (
    ClusterMaintenanceProtocol,
    LowestIdClustering,
    check_properties,
)
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.routing import HybridRoutingProtocol, IntraClusterRoutingProtocol
from repro.sim import HelloProtocol, Simulation

N_NODES = 150


def delivery_probe(sim, hybrid, rng, attempts=30) -> float:
    """Fraction of random pairs with a usable route right now."""
    delivered = tried = 0
    active = np.flatnonzero(sim.active)
    while tried < attempts:
        u, v = rng.choice(active, size=2, replace=False)
        tried += 1
        if hybrid.route(sim, int(u), int(v)) is not None:
            delivered += 1
    return delivered / attempts


def main() -> None:
    params = NetworkParameters.from_fractions(
        n_nodes=N_NODES, range_fraction=0.18, velocity_fraction=0.02
    )
    sim = Simulation(
        params, EpochRandomWaypointModel(params.velocity, epoch=1.0), seed=11
    )
    sim.attach(HelloProtocol("event"))
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    intra = IntraClusterRoutingProtocol(maintenance)
    sim.attach(intra)
    sim.attach(maintenance)
    hybrid = sim.attach(HybridRoutingProtocol(maintenance, intra))
    sim.stats.start_measuring()
    rng = np.random.default_rng(12)

    print(f"N={N_NODES}, r=0.18a — crashing heads in waves\n")
    header = (
        f"{'wave':>4s} {'failed':>7s} {'clusters':>9s} {'P1/P2':>6s} "
        f"{'CLUSTER msgs':>13s} {'delivery':>9s}"
    )
    print(header)
    print("-" * len(header))

    cumulative_failed = 0
    for wave in range(6):
        # Crash the two largest clusters' heads (worst case), if any left.
        state = maintenance.state
        live_heads = [
            int(h) for h in state.heads() if sim.active[h]
        ]
        live_heads.sort(key=lambda h: -len(state.members_of(h)))
        victims = live_heads[:2]
        before_msgs = sim.stats.message_count("cluster")
        for victim in victims:
            sim.fail_node(victim)
            cumulative_failed += 1
        # Let the repair play out.
        for _ in range(20):
            sim.step()
        violations = check_properties(maintenance.state, sim.neighbor_csr)
        repair_msgs = sim.stats.message_count("cluster") - before_msgs
        rate = delivery_probe(sim, hybrid, rng)
        print(
            f"{wave:4d} {cumulative_failed:7d} "
            f"{maintenance.cluster_count():9d} "
            f"{'ok' if violations.ok else 'BROKEN':>6s} "
            f"{repair_msgs:13d} {rate:9.2f}"
        )

    # Now recover everyone and verify the structure heals.
    for node in sim.failed_nodes:
        sim.recover_node(int(node))
    for _ in range(30):
        sim.step()
    violations = check_properties(maintenance.state, sim.neighbor_csr)
    rate = delivery_probe(sim, hybrid, rng)
    print(
        f"\nafter full recovery: structure "
        f"{'ok' if violations.ok else 'BROKEN'}, "
        f"{maintenance.cluster_count()} clusters, delivery {rate:.2f}"
    )


if __name__ == "__main__":
    main()
