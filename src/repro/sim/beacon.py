"""HELLO beaconing and neighbor discovery.

Three operating modes, matching the paper's HELLO analysis (Section
3.5.1) and the adaptive control plane built on top of it:

* ``event`` — the paper's lower bound: a node transmits a HELLO exactly
  when it gains a new neighbor (``f_hello = lambda_gen``), and link
  breaks are detected for free by the soft-timer abstraction.  This is
  the mode used to reproduce Figures 1–3.
* ``periodic`` — a realistic beacon: every node broadcasts each
  ``interval`` (with per-node random phase) and removes a neighbor it
  has not heard for ``timeout``.  Used by the detection-latency
  ablation (DESIGN.md item 4) to quantify the gap between the lower
  bound and a deployable beacon.  It is the
  :class:`~repro.control.policies.FixedPeriodPolicy` run on the one
  beacon timer path below, under the ``periodic-hello`` cause.
* ``adaptive`` — the closed-loop mode: a
  :class:`~repro.control.policies.BeaconPolicy` picks each node's next
  interval from measured link dynamics
  (:class:`~repro.control.signals.ControlSignals`, fed by an engine
  signal tap), timers run heterogeneously per node, and each node
  advertises an expiry of ``timeout_multiple x`` its *own* current
  interval.  ``{"mode": "adaptive", "policy": "fixed"}`` is the same
  code as ``periodic``.

The beacon modes keep per-node heard-time tables for their soft timers;
event mode keeps only the announces that a loss plan dropped.
"""

from __future__ import annotations

import numpy as np

from ..control.policies import (
    POLICIES,
    BeaconPolicy,
    FixedPeriodPolicy,
    build_policy,
)
from ..control.signals import ControlSignals
from ..obs import context as obs_context
from ..obs.attribution import (
    CAUSE_EVENT_HELLO,
    CAUSE_LOSS_RETRANSMIT,
    CAUSE_PERIODIC_HELLO,
)
from .engine import Protocol, Simulation

__all__ = ["HelloProtocol", "hello_from_config"]

#: Histogram bucket bounds for adaptive-beacon telemetry.
INTERVAL_BUCKETS = (0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
STALENESS_BUCKETS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
LATENCY_BUCKETS = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)


class HelloProtocol(Protocol):
    """Neighbor discovery via HELLO beacons.

    The two beacon modes share one timer path: ``periodic`` runs it
    under ``FixedPeriodPolicy(interval)``, ``adaptive`` under the given
    policy.  ``policy`` is ``None`` only in event mode.

    ``neighbor_lists`` (one ``{neighbor: heard_time}`` dict per node) is
    beacon-mode state and stays empty in event mode, where a node
    believes its live row minus the senders it has not heard, so
    :meth:`detection_errors` is the number of unheard announces.

    Parameters
    ----------
    mode:
        ``"event"`` (paper lower bound), ``"periodic"`` or
        ``"adaptive"``.
    interval:
        Beacon period for periodic mode.  Ignored in adaptive mode,
        where the policy's ``initial_interval()`` seeds the timers.
        A schedule the step cannot honour (a policy whose
        ``max_interval`` is below the simulation step) is rejected at
        attach: a due node beacons at most once per step.
    timeout:
        Neighbor expiry for periodic mode; defaults to ``2.5 *
        interval`` (a common soft-timer multiple) and must exceed the
        interval — a timeout at or below the beacon period would expire
        every neighbor between consecutive beacons.  In adaptive mode
        the ratio ``timeout / interval`` becomes the per-node expiry
        multiple applied to each node's current interval.
    policy:
        Adaptive mode only: a
        :class:`~repro.control.policies.BeaconPolicy` instance or spec
        dict for :func:`~repro.control.policies.build_policy`.
    signal_window, signal_alpha:
        Adaptive mode only: window length and EWMA weight of the
        :class:`~repro.control.signals.ControlSignals` tap.
    miss_limit:
        Loss-tolerance knob (periodic/adaptive modes): a neighbor is
        evicted after this many *consecutive missed beacons* instead of
        on the first silent timeout.  When set, the default timeout
        stretches to ``(miss_limit + 0.5) * interval`` so the count —
        not a single quiet period — governs loss-driven eviction, while
        the stretched soft timer still reclaims neighbors that moved
        away (no beacons arrive, so no misses are counted).  ``None``
        (the default) keeps the stock single-timeout behavior.  Beacons
        are only ever *missed* when a :mod:`repro.faults` plan with a
        nonzero ``loss_rate`` is attached.
    """

    name = "hello"

    def __init__(
        self,
        mode: str = "event",
        interval: float = 1.0,
        timeout: float | None = None,
        policy: BeaconPolicy | dict | None = None,
        signal_window: float = 1.0,
        signal_alpha: float = 0.5,
        miss_limit: int | None = None,
    ) -> None:
        if mode not in ("event", "periodic", "adaptive"):
            raise ValueError(
                f"mode must be 'event', 'periodic' or 'adaptive', got {mode!r}"
            )
        if policy is not None and mode != "adaptive":
            raise ValueError(
                f"a beacon policy requires mode 'adaptive', got mode {mode!r}"
            )
        self.mode = mode
        self.policy: BeaconPolicy | None = None
        self._beacon_cause = CAUSE_PERIODIC_HELLO
        if mode == "adaptive":
            if policy is None:
                raise ValueError("mode 'adaptive' requires a beacon policy")
            self.policy = build_policy(policy)
        elif mode == "periodic":
            self.policy = FixedPeriodPolicy(interval)
        if self.policy is not None:
            self._beacon_cause = self.policy.cause
            interval = self.policy.initial_interval()
        if interval <= 0.0:
            raise ValueError(f"interval must be positive, got {interval}")
        if miss_limit is not None:
            if mode == "event":
                raise ValueError(
                    "miss_limit applies to beacon modes 'periodic' and "
                    "'adaptive' only; event mode compensates loss with "
                    "announce retransmissions instead"
                )
            if miss_limit < 1:
                raise ValueError(f"miss_limit must be >= 1, got {miss_limit}")
        self.miss_limit = miss_limit
        self.interval = interval
        if timeout is None:
            timeout = (
                (miss_limit + 0.5) * interval
                if miss_limit is not None
                else 2.5 * interval
            )
        self.timeout = timeout
        if self.timeout <= self.interval:
            raise ValueError(
                f"timeout ({self.timeout}) must be greater than the beacon "
                f"interval ({self.interval}); a smaller timeout would expire "
                "every neighbor between consecutive beacons"
            )
        self._timeout_multiple = self.timeout / self.interval
        self.signal_window = signal_window
        self.signal_alpha = signal_alpha
        self.neighbor_lists: list[dict[int, float]] = []
        #: Bits of one event-mode link-up announce pair (set at attach).
        self._pair_bits = 0.0
        self._next_beacon: np.ndarray | None = None
        # Loss degradation state: per-receiver consecutive-miss counts
        # (miss_limit modes) and the event-mode announces a loss dropped,
        # ``{(sender, learner): failed_retransmits}`` in loss order.
        self._miss_counts: list[dict[int, int]] = []
        self._unheard: dict[tuple[int, int], int] = {}
        # Beacon-mode state (see on_attach).
        self.signals: ControlSignals | None = None
        self._advertised_timeout: np.ndarray | None = None
        self._interval_hist = None
        self._staleness_hist = None
        self._latency_hist = None
        self._windows_emitted = 0
        self._window_beacons = 0
        self._window_interval_sum = 0.0
        self._window_interval_min = float("inf")
        self._window_interval_max = 0.0

    # ------------------------------------------------------------------
    def on_attach(self, sim: Simulation) -> None:
        n = sim.n_nodes
        self._pair_bits = 2 * sim.params.messages.p_hello
        if self.miss_limit is not None:
            self._miss_counts = [{} for _ in range(n)]
        if self.policy is not None:
            # Seed the tables from the initial adjacency: the paper does
            # not measure the initial discovery phase.
            self.neighbor_lists = [
                dict.fromkeys(row, 0.0) for row in sim.adjacency_lists
            ]
            if self.policy.max_interval < sim.dt:
                raise ValueError(
                    f"beacon policy max_interval ({self.policy.max_interval}) "
                    f"is below the simulation step ({sim.dt}); a node "
                    "beacons at most once per step, so its timer would "
                    "fall further behind every step"
                )
            self._next_beacon = sim.rng.uniform(0.0, self.interval, size=n)
            self._advertised_timeout = np.full(n, self.timeout, dtype=float)
            if self.policy.adaptive:
                # The signal tap, histograms and control_window events
                # exist only for genuinely adaptive policies: the fixed
                # policy (periodic mode) adds no telemetry.
                self.signals = ControlSignals(
                    sim, window=self.signal_window, alpha=self.signal_alpha
                )
                registry = obs_context.current().registry
                if registry is not None:
                    labels = {
                        "sim": str(sim.sim_id),
                        "policy": self.policy.policy_name,
                    }
                    self._interval_hist = registry.histogram(
                        "beacon_interval", buckets=INTERVAL_BUCKETS, **labels
                    )
                    self._staleness_hist = registry.histogram(
                        "neighbor_staleness",
                        buckets=STALENESS_BUCKETS,
                        **labels,
                    )
                    self._latency_hist = registry.histogram(
                        "detection_latency", buckets=LATENCY_BUCKETS, **labels
                    )

    def _send_hello(self, sim: Simulation, node: int, time: float) -> None:
        sim.stats.record(
            "hello", 1, sim.params.messages.p_hello, cause=self._beacon_cause, node=node
        )
        # Every current neighbor of `node` hears the beacon — unless a
        # fault plan's Bernoulli loss eats that reception.  Neighbors
        # iterate in ascending id order, so loss draws are deterministic.
        faults = sim.faults
        lossy = faults is not None and faults.loss_rate > 0.0
        miss_counts = self._miss_counts if self.miss_limit is not None else None
        for neighbor in sim.neighbors_of(node):
            neighbor = int(neighbor)
            if lossy and faults.drop():
                faults.count("hello_losses_total")
                if miss_counts is not None:
                    misses = miss_counts[neighbor]
                    misses[node] = misses.get(node, 0) + 1
                    if misses[node] >= self.miss_limit:
                        # Count-based eviction: the tolerance budget is
                        # spent; forget the neighbor and reset the count
                        # so a re-heard beacon starts a fresh budget.
                        self.neighbor_lists[neighbor].pop(node, None)
                        del misses[node]
                continue
            if miss_counts is not None:
                miss_counts[neighbor].pop(node, None)
            self.neighbor_lists[neighbor][node] = time
        # The beaconing node refreshes nothing about itself; its own
        # neighbor list is refreshed by the beacons it receives.

    # ------------------------------------------------------------------
    # Event mode
    # ------------------------------------------------------------------
    def on_link_up(self, sim: Simulation, u: int, v: int, time: float) -> None:
        if self.mode != "event":
            return
        # Both endpoints announce themselves; each learns the other.
        sim.stats.record(
            "hello", 2, self._pair_bits, cause=CAUSE_EVENT_HELLO, nodes=(u, v)
        )
        faults = sim.faults
        if faults is not None and faults.loss_rate > 0.0:
            # Each direction's announce is its own reception; a lost one
            # stays unheard until a retransmission from on_step_begin
            # lands or the link is gone.
            for key in ((u, v), (v, u)):
                if faults.drop():
                    faults.count("hello_losses_total")
                    self._unheard[key] = 0

    def on_step_begin(self, sim: Simulation, time: float) -> None:
        unheard = self._unheard
        if not unheard:
            return
        faults = sim.faults
        for key, failed in list(unheard.items()):
            if failed >= self._RETX_CAP:
                # Budget spent: the sender stays unheard while the link lives.
                continue
            if not sim.has_link(*key):
                del unheard[key]
                continue
            sim.stats.record(
                "hello",
                1,
                sim.params.messages.p_hello,
                cause=CAUSE_LOSS_RETRANSMIT,
                node=key[0],
            )
            faults.count("hello_retransmits_total")
            if faults.drop():
                faults.count("hello_losses_total")
                unheard[key] = failed + 1
            else:
                del unheard[key]

    #: Event-mode announce-retransmission budget per lost link-up.
    _RETX_CAP = 8

    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        # Soft-timer detection: free, immediate in the lower-bound model.
        # Only event mode ever holds unheard announces.
        unheard = self._unheard
        if unheard:
            unheard.pop((u, v), None)
            unheard.pop((v, u), None)

    # ------------------------------------------------------------------
    # Crash handling (fault plans)
    # ------------------------------------------------------------------
    def on_node_fail(self, sim: Simulation, node: int, time: float) -> None:
        # State wipe: the crashed node forgets every neighbor it knew.
        # Its former neighbors still hold entries for it; those expire
        # through the soft timer once the engine drops the node's links.
        # In event mode the crash breaks the node's links this step, so
        # on_step_begin / on_link_down drop its unheard announces.
        if self.policy is None:
            return
        self.neighbor_lists[node].clear()
        if self._miss_counts:
            self._miss_counts[node].clear()

    # ------------------------------------------------------------------
    # Beacon modes (periodic and adaptive)
    # ------------------------------------------------------------------
    def on_step_end(self, sim: Simulation, time: float) -> None:
        policy = self.policy
        if policy is None:
            return
        signals = self.signals
        adaptive = policy.adaptive
        silenced = sim.faults is not None
        due = np.flatnonzero(self._next_beacon <= time)
        for node in due:
            node = int(node)
            if silenced and not sim.active[node]:
                # A crashed/outaged radio keeps its beacon cadence but
                # transmits nothing while silenced.
                self._next_beacon[node] += float(
                    policy.next_interval(node, signals)
                )
                continue
            self._send_hello(sim, node, time)
            interval = float(policy.next_interval(node, signals))
            self._next_beacon[node] += interval
            if adaptive:
                self._advertised_timeout[node] = (
                    self._timeout_multiple * interval
                )
                self._window_beacons += 1
                self._window_interval_sum += interval
                if interval < self._window_interval_min:
                    self._window_interval_min = interval
                if interval > self._window_interval_max:
                    self._window_interval_max = interval
                if self._interval_hist is not None:
                    self._interval_hist.observe(interval)
        # Soft-timer expiry against each neighbor's *advertised*
        # timeout.  Under the fixed policy every entry stays at its
        # `timeout` fill.  One list read per step: indexing the numpy
        # array per entry costs ~3x the scan.
        advertised = self._advertised_timeout.tolist()
        for node in range(sim.n_nodes):
            neighbor_list = self.neighbor_lists[node]
            expired = [
                other
                for other, heard in neighbor_list.items()
                if time - heard > advertised[other]
            ]
            for other in expired:
                del neighbor_list[other]
        if (
            adaptive
            and signals.windows_closed > self._windows_emitted
            and (
                sim.tracer.enabled or self._staleness_hist is not None
            )
        ):
            self._close_control_window(sim, time)

    def _close_control_window(self, sim: Simulation, time: float) -> None:
        """Emit per-window control telemetry (adaptive policies only)."""
        signals = self.signals
        self._windows_emitted = signals.windows_closed
        window = signals.last_window
        errors = self.detection_error_counts(sim)
        staleness = float(errors.mean())
        if self._staleness_hist is not None:
            for value in errors:
                self._staleness_hist.observe(float(value))
            for value in self._advertised_timeout:
                self._latency_hist.observe(float(value))
        beacons = self._window_beacons
        if sim.tracer.enabled:
            sim.tracer.emit(
                "control_window",
                time,
                sim=sim.sim_id,
                policy=self.policy.policy_name,
                window_start=window["start"],
                elapsed=window["elapsed"],
                beacons=beacons,
                mean_interval=(
                    self._window_interval_sum / beacons if beacons else 0.0
                ),
                min_interval=(
                    self._window_interval_min if beacons else 0.0
                ),
                max_interval=(
                    self._window_interval_max if beacons else 0.0
                ),
                mean_rate=window["mean_rate"],
                max_rate=window["max_rate"],
                staleness=staleness,
                mean_timeout=float(self._advertised_timeout.mean()),
            )
        self._window_beacons = 0
        self._window_interval_sum = 0.0
        self._window_interval_min = float("inf")
        self._window_interval_max = 0.0

    # ------------------------------------------------------------------
    def known_neighbors(self, sim: Simulation, node: int) -> set[int]:
        """The neighbor set node ``node`` currently believes in.

        In event mode: its live row minus the senders it has not heard."""
        if self.policy is not None:
            return set(self.neighbor_lists[node])
        unheard = self._unheard
        return {
            other
            for other in sim.neighbors_of(node).tolist()
            if (other, node) not in unheard
        }

    def detection_error_counts(self, sim: Simulation) -> np.ndarray:
        """Per-node count of neighbor-table discrepancies vs the truth.

        Entry ``i`` is ``|actual_i XOR believed_i|`` — stale neighbors
        still listed plus new neighbors not yet discovered.
        """
        counts = np.zeros(sim.n_nodes, dtype=np.int64)
        for node, row in enumerate(sim.adjacency_lists):
            believed = self.known_neighbors(sim, node)
            counts[node] = len(believed.symmetric_difference(row))
        return counts

    def detection_errors(self, sim: Simulation) -> int:
        """Number of (node, neighbor) discrepancies vs the true adjacency.

        In event mode, the number of unheard announces (zero without
        loss); grows with ``interval`` in periodic mode — the quantity
        the detection-latency ablation reports.
        """
        return int(self.detection_error_counts(sim).sum())


#: Valid keys of a scenario/CLI ``beacon`` block.
BEACON_CONFIG_KEYS = (
    "mode",
    "interval",
    "timeout",
    "policy",
    "window",
    "alpha",
    "miss_limit",
)


def hello_from_config(spec: dict) -> HelloProtocol:
    """Build a :class:`HelloProtocol` from a scenario ``beacon`` block.

    The block supports::

        {"mode": "event"}
        {"mode": "periodic", "interval": 1.0, "timeout": 2.5}
        {"mode": "adaptive", "policy": {"policy": "churn-feedback", ...},
         "timeout": 2.5, "window": 1.0, "alpha": 0.5}

    ``policy`` may also be a bare policy name string (default
    parameters).  Unknown keys — at this level and inside the policy
    spec — are rejected with the list of valid keys.
    """
    if not isinstance(spec, dict):
        raise ValueError(
            f"beacon config must be a dict, got {type(spec).__name__}"
        )
    data = dict(spec)
    unknown = set(data) - set(BEACON_CONFIG_KEYS)
    if unknown:
        raise ValueError(
            f"unknown beacon keys: {sorted(unknown)}; "
            f"valid keys are: {sorted(BEACON_CONFIG_KEYS)}"
        )
    mode = data.get("mode", "event")
    policy_spec = data.get("policy")
    if isinstance(policy_spec, str):
        policy_spec = {"policy": policy_spec}
    if mode == "adaptive":
        if policy_spec is None:
            raise ValueError(
                "beacon mode 'adaptive' requires a 'policy' "
                f"(one of {sorted(POLICIES)})"
            )
        if "interval" in data:
            raise ValueError(
                "beacon mode 'adaptive' takes its interval from the "
                "policy; set it inside the 'policy' block"
            )
        return HelloProtocol(
            "adaptive",
            timeout=data.get("timeout"),
            policy=build_policy(policy_spec),
            signal_window=data.get("window", 1.0),
            signal_alpha=data.get("alpha", 0.5),
            miss_limit=data.get("miss_limit"),
        )
    if policy_spec is not None:
        raise ValueError(
            f"beacon 'policy' requires mode 'adaptive', got mode {mode!r}"
        )
    for key in ("window", "alpha"):
        if key in data:
            raise ValueError(
                f"beacon {key!r} applies only to mode 'adaptive'"
            )
    return HelloProtocol(
        mode,
        interval=data.get("interval", 1.0),
        timeout=data.get("timeout"),
        miss_limit=data.get("miss_limit"),
    )
