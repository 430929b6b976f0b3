"""Cluster stability metrics.

The LCC principle the paper's maintenance model follows exists because
cluster-head churn is the dominant hidden cost of clustering: every
head change cascades into CLUSTER messages and route-update rounds.
This module measures stability directly:

* **head tenure** — how long a node holds the head role once elected;
* **affiliation tenure** — how long a member stays with one head;
* **role/affiliation change rates** — per node per unit time.

:class:`StabilityTracker` is a passive protocol observing the
maintenance protocol's state after every step; algorithms can then be
ranked by the stability of the structures they maintain (the classic
comparison of the clustering literature).

:class:`ClusterDynamicsCollector` turns the same observations into a
*windowed time series streamed into the trace*: one ``cluster_window``
record per window (cluster count, head ratio, head-change and
reaffiliation deltas, gateway churn, mean head tenure, cluster sizes
and mean cluster diameter) plus one ``gateway_change`` record per node
that gained or lost gateway status at a window boundary.  Window deltas
are differences of the maintenance protocol's unconditional running
counters — the ones incremented at the exact code points where the
corresponding trace events are emitted — so summing the series
reconciles with trace event counts *by construction* (the same
guarantee the message-total reconciliation gives ``msg_tx``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..routing.inter_cluster import backbone_mask
from ..sim.engine import Protocol, Simulation
from .base import HEAD, MEMBER
from .maintenance import ClusterMaintenanceProtocol

__all__ = [
    "ClusterDynamicsCollector",
    "StabilitySummary",
    "StabilityTracker",
    "attach_cluster_dynamics",
]


@dataclass(frozen=True)
class StabilitySummary:
    """Aggregate stability of one run."""

    observed_time: float
    head_changes: int
    affiliation_changes: int
    mean_head_tenure: float
    mean_affiliation_tenure: float
    head_change_rate: float
    affiliation_change_rate: float


@dataclass
class _Tenures:
    """Completed and open tenure bookkeeping for one attribute."""

    completed: list[float] = field(default_factory=list)
    started_at: dict[int, float] = field(default_factory=dict)

    def open_tenure(self, node: int, time: float) -> None:
        self.started_at.setdefault(node, time)

    def close_tenure(self, node: int, time: float) -> None:
        start = self.started_at.pop(node, None)
        if start is not None:
            self.completed.append(time - start)

    def mean(self, now: float) -> float:
        """Mean tenure, counting still-open tenures at their current age.

        Including open tenures avoids the survivorship bias of very
        stable structures (whose tenures never complete).
        """
        ages = list(self.completed) + [
            now - start for start in self.started_at.values()
        ]
        if not ages:
            return float("nan")
        return float(np.mean(ages))


class StabilityTracker(Protocol):
    """Observes a maintenance protocol and scores structural stability."""

    name = "stability-tracker"

    def __init__(self, maintenance: ClusterMaintenanceProtocol) -> None:
        self.maintenance = maintenance
        self._previous_roles: np.ndarray | None = None
        self._previous_heads: np.ndarray | None = None
        self._start_time: float | None = None
        self._last_time: float = 0.0
        self.head_changes = 0
        self.affiliation_changes = 0
        self._head_tenures = _Tenures()
        self._affiliation_tenures = _Tenures()

    def on_attach(self, sim: Simulation) -> None:
        state = self.maintenance.state
        if state is None:
            raise RuntimeError(
                "StabilityTracker must be attached after the maintenance "
                "protocol has formed clusters"
            )
        self._previous_roles = state.roles.copy()
        self._previous_heads = state.head_of.copy()
        self._start_time = sim.time
        self._last_time = sim.time
        for node in range(state.n_nodes):
            if state.roles[node] == HEAD:
                self._head_tenures.open_tenure(node, sim.time)
            self._affiliation_tenures.open_tenure(node, sim.time)

    def on_step_end(self, sim: Simulation, time: float) -> None:
        state = self.maintenance.state
        roles = state.roles
        heads = state.head_of
        role_changed = roles != self._previous_roles
        head_changed = heads != self._previous_heads

        for node in np.flatnonzero(role_changed):
            node = int(node)
            if self._previous_roles[node] == HEAD:
                self._head_tenures.close_tenure(node, time)
                self.head_changes += 1
            if roles[node] == HEAD:
                self._head_tenures.open_tenure(node, time)

        for node in np.flatnonzero(head_changed):
            node = int(node)
            self._affiliation_tenures.close_tenure(node, time)
            self._affiliation_tenures.open_tenure(node, time)
            self.affiliation_changes += 1

        self._previous_roles = roles.copy()
        self._previous_heads = heads.copy()
        self._last_time = time

    # ------------------------------------------------------------------
    def summary(self) -> StabilitySummary:
        """Aggregate the run so far."""
        if self._start_time is None:
            raise RuntimeError("tracker was never attached")
        observed = self._last_time - self._start_time
        n = len(self._previous_roles)
        per_node_time = max(observed, 1e-12) * n
        return StabilitySummary(
            observed_time=observed,
            head_changes=self.head_changes,
            affiliation_changes=self.affiliation_changes,
            mean_head_tenure=self._head_tenures.mean(self._last_time),
            mean_affiliation_tenure=self._affiliation_tenures.mean(
                self._last_time
            ),
            head_change_rate=self.head_changes / per_node_time,
            affiliation_change_rate=self.affiliation_changes / per_node_time,
        )


class ClusterDynamicsCollector(Protocol):
    """Streams a windowed cluster-topology time series into the trace.

    Attach after the maintenance protocol and *before stepping starts*
    (e.g. via :func:`attach_cluster_dynamics`) — the reconciliation
    guarantee (window sums == trace event counts) holds only when the
    collector observes the run from its first step.

    Parameters
    ----------
    maintenance:
        The maintenance protocol whose structure is observed.
    window:
        Window length in simulated time units.  Each full window — plus
        one final partial window flushed by ``on_run_end`` — produces a
        ``cluster_window`` trace record.
    """

    name = "cluster-dynamics"

    def __init__(
        self,
        maintenance: ClusterMaintenanceProtocol,
        window: float = 1.0,
    ) -> None:
        if window <= 0.0:
            raise ValueError(f"window must be positive, got {window}")
        self.maintenance = maintenance
        self.window = float(window)
        self.windows_emitted = 0
        self._window_start: float = 0.0
        self._head_changes_seen = 0
        self._reaffiliations_seen = 0
        self._gateways: frozenset[int] = frozenset()
        self._head_tenures = _Tenures()
        self._final_flushed = False

    # ------------------------------------------------------------------
    def _gateway_set(self, sim: Simulation) -> frozenset[int]:
        """Current gateways: the members among the live edge set's
        :func:`~repro.routing.inter_cluster.backbone_mask`."""
        state = self.maintenance.state
        gateways = backbone_mask(state, sim.edges) & (state.roles == MEMBER)
        return frozenset(np.flatnonzero(gateways).tolist())

    def _mean_diameter(self, sim: Simulation) -> float:
        """Mean over clusters of the max intra-cluster node distance."""
        state = self.maintenance.state
        positions = sim.positions
        diameters = []
        for head in state.heads():
            nodes = np.flatnonzero(state.head_of == int(head))
            if len(nodes) < 2:
                diameters.append(0.0)
                continue
            distances = sim.region.distance_matrix(positions[nodes])
            diameters.append(float(distances.max()))
        if not diameters:
            return 0.0
        return float(np.mean(diameters))

    def _on_change(self, sim: Simulation, node: int, time: float) -> None:
        """Maintenance change listener: track head-tenure boundaries."""
        if self.maintenance.state.roles[node] == HEAD:
            self._head_tenures.open_tenure(int(node), time)
        else:
            self._head_tenures.close_tenure(int(node), time)

    # ------------------------------------------------------------------
    def on_attach(self, sim: Simulation) -> None:
        state = self.maintenance.state
        if state is None:
            raise RuntimeError(
                "ClusterDynamicsCollector must be attached after the "
                "maintenance protocol has formed clusters"
            )
        self.maintenance.add_change_listener(self._on_change)
        self._window_start = sim.time
        self._head_changes_seen = self.maintenance.head_changes_total
        self._reaffiliations_seen = self.maintenance.reaffiliations_total
        self._gateways = self._gateway_set(sim)
        for head in state.heads():
            self._head_tenures.open_tenure(int(head), sim.time)

    def _flush(self, sim: Simulation, time: float, final: bool) -> None:
        state = self.maintenance.state
        gateways = self._gateway_set(sim)
        added = sorted(gateways - self._gateways)
        dropped = sorted(self._gateways - gateways)
        tracer = sim.tracer
        for node in added:
            tracer.emit(
                "gateway_change", time, sim=sim.sim_id, node=node, kind="add"
            )
        for node in dropped:
            tracer.emit(
                "gateway_change", time, sim=sim.sim_id, node=node, kind="drop"
            )
        head_changes = self.maintenance.head_changes_total
        reaffiliations = self.maintenance.reaffiliations_total
        sizes = state.cluster_sizes()
        tracer.emit(
            "cluster_window",
            time,
            sim=sim.sim_id,
            window=self.windows_emitted,
            window_start=self._window_start,
            final=final,
            clusters=state.cluster_count(),
            head_ratio=state.head_ratio(),
            head_changes=head_changes - self._head_changes_seen,
            reaffiliations=reaffiliations - self._reaffiliations_seen,
            gateways=len(gateways),
            gateway_adds=len(added),
            gateway_drops=len(dropped),
            mean_head_tenure=self._head_tenures.mean(time),
            mean_size=float(np.mean(sizes)) if len(sizes) else 0.0,
            max_size=int(sizes.max()) if len(sizes) else 0,
            mean_diameter=self._mean_diameter(sim),
        )
        self.windows_emitted += 1
        self._window_start = time
        self._head_changes_seen = head_changes
        self._reaffiliations_seen = reaffiliations
        self._gateways = gateways

    def on_step_end(self, sim: Simulation, time: float) -> None:
        if time - self._window_start >= self.window - 1e-9:
            self._flush(sim, time, final=False)

    def on_run_end(self, sim: Simulation, time: float) -> None:
        # Always flush the final (possibly partial, possibly empty)
        # window: its deltas carry whatever happened since the last
        # boundary, which is what makes the series sums exact.
        if not self._final_flushed:
            self._flush(sim, time, final=True)
            self._final_flushed = True


def attach_cluster_dynamics(
    sim: Simulation,
    maintenance: ClusterMaintenanceProtocol | None,
    window: float = 1.0,
) -> ClusterDynamicsCollector | None:
    """Attach a dynamics collector when the simulation is traced.

    Mirrors :func:`repro.obs.health.attach_run_health`: a no-op (returns
    ``None``) when there is no maintenance protocol or the tracer is
    disabled, so untraced runs pay nothing.
    """
    if maintenance is None or not sim.tracer.enabled:
        return None
    collector = ClusterDynamicsCollector(maintenance, window=window)
    sim.attach(collector)
    return collector
