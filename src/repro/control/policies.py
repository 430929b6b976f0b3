"""Beacon-interval policies: the decision side of the control loop.

A :class:`BeaconPolicy` answers one question per beacon: *given what we
measured about this node's link dynamics, how long until its next
HELLO?*  The measurement side is a
:class:`~repro.control.signals.ControlSignals` instance handed in by
the caller; policies never touch the simulation directly, which keeps
them trivially unit-testable against synthetic signals.

Four concrete policies span the design space:

``fixed``
    A constant interval.  Declared non-adaptive; the classic
    ``periodic`` HELLO mode *is* this policy on the one beacon timer
    path, under the same attribution cause.
``analytic-rate``
    Open-loop: beacon at the inverse of the paper's Eqn-4 rate
    evaluated at the node's *measured* degree — the rate the analysis
    says is necessary, no more.
``churn-feedback``
    Closed-loop, Gavalas-style multiplicative increase/decrease: widen
    the interval while measured churn sits below the analytic
    expectation for the node's degree, shrink it multiplicatively when
    churn runs hot.
``staleness-bounded``
    Closed-loop on the *output* metric: choose the largest interval
    whose expected neighbor-table staleness stays under a target
    (defaulting to what the fixed baseline would suffer), so quiet
    nodes stretch their period and churning nodes tighten it.

Intervals from adaptive policies are clamped to
``[min_interval, max_interval]`` — the loop must neither melt down to
per-step beaconing nor starve neighbor tables entirely.
"""

from __future__ import annotations

import inspect

import numpy as np

from ..core.linkdynamics import (
    bcv_link_change_rate,
    bcv_link_generation_rate,
)
from ..obs.attribution import (
    CAUSE_ANALYTIC_HELLO,
    CAUSE_CHURN_HELLO,
    CAUSE_PERIODIC_HELLO,
    CAUSE_STALENESS_HELLO,
)

__all__ = [
    "POLICIES",
    "AnalyticRatePolicy",
    "BeaconPolicy",
    "ChurnFeedbackPolicy",
    "FixedPeriodPolicy",
    "StalenessBoundedPolicy",
    "build_policy",
]


def _positive(name: str, value: float) -> float:
    value = float(value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


class BeaconPolicy:
    """Per-node beacon-interval policy.

    Attributes
    ----------
    policy_name:
        Spec name (the ``"policy"`` key of :func:`build_policy`).
    cause:
        Attribution cause label every HELLO sent under this policy
        carries — one cause per policy, so the overhead ledger can
        split adaptive beacons out of the ``periodic-hello`` bucket.
    adaptive:
        ``False`` only for :class:`FixedPeriodPolicy`; the HELLO
        protocol uses it to skip control telemetry and per-node
        timeout updates on the fixed path.
    """

    policy_name = "policy"
    cause = CAUSE_PERIODIC_HELLO
    adaptive = True

    min_interval: float
    max_interval: float

    def initial_interval(self) -> float:
        """Interval used for phase randomization before any feedback."""
        raise NotImplementedError

    def next_interval(self, node: int, signals) -> float:
        """Time until ``node``'s next beacon, given current signals."""
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-serializable spec; ``build_policy(spec)`` round-trips."""
        raise NotImplementedError

    def _clamp(self, interval: float) -> float:
        return min(self.max_interval, max(self.min_interval, interval))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{key}={value!r}" for key, value in sorted(self.spec().items())
            if key != "policy"
        )
        return f"{type(self).__name__}({fields})"


class FixedPeriodPolicy(BeaconPolicy):
    """Constant beacon interval — the classic ``periodic`` mode."""

    policy_name = "fixed"
    cause = CAUSE_PERIODIC_HELLO
    adaptive = False

    def __init__(self, interval: float = 1.0) -> None:
        self.interval = _positive("interval", interval)
        self.min_interval = self.interval
        self.max_interval = self.interval

    def initial_interval(self) -> float:
        return self.interval

    def next_interval(self, node: int, signals) -> float:
        # Returned verbatim (no clamp arithmetic): periodic timers
        # advance by exactly the configured interval.
        return self.interval

    def spec(self) -> dict:
        return {"policy": self.policy_name, "interval": self.interval}


class AnalyticRatePolicy(BeaconPolicy):
    """Beacon at the inverse of the Eqn-4 rate for the local degree.

    The paper's HELLO lower bound says a node gains neighbors at
    ``lambda_gen = 8 d v / (pi^2 r)`` (Eqn 4); beaconing any faster
    buys nothing the analysis can account for.  This policy sets
    ``interval_i = 1 / lambda_gen(d_i)`` from the node's measured
    degree — open-loop in churn, adaptive in topology.
    """

    policy_name = "analytic-rate"
    cause = CAUSE_ANALYTIC_HELLO

    def __init__(
        self,
        interval: float = 1.0,
        min_interval: float = 0.1,
        max_interval: float = 8.0,
    ) -> None:
        self.interval = _positive("interval", interval)
        self.min_interval = _positive("min_interval", min_interval)
        self.max_interval = _positive("max_interval", max_interval)
        if self.max_interval < self.min_interval:
            raise ValueError(
                f"max_interval ({max_interval}) must be >= min_interval "
                f"({min_interval})"
            )

    def initial_interval(self) -> float:
        return self.interval

    def next_interval(self, node: int, signals) -> float:
        degree = signals.degree(node)
        if degree <= 0.0:
            return self.max_interval
        params = signals.params
        rate = float(
            bcv_link_generation_rate(degree, params.tx_range, params.velocity)
        )
        if rate <= 0.0:
            return self.max_interval
        return self._clamp(1.0 / rate)

    def spec(self) -> dict:
        return {
            "policy": self.policy_name,
            "interval": self.interval,
            "min_interval": self.min_interval,
            "max_interval": self.max_interval,
        }


class ChurnFeedbackPolicy(BeaconPolicy):
    """Multiplicative increase/decrease driven by measured link churn.

    Gavalas et al.'s adaptive broadcast period, transplanted: compare
    the node's EWMA link-change rate against the Eqn-3 expectation for
    its current degree.  Churn above ``high`` times the expectation
    multiplies the interval by ``decrease`` (< 1, beacon faster); churn
    at or below ``low`` times it multiplies by ``increase`` (> 1,
    beacon slower); in between, the interval holds.
    """

    policy_name = "churn-feedback"
    cause = CAUSE_CHURN_HELLO

    def __init__(
        self,
        interval: float = 1.0,
        low: float = 0.5,
        high: float = 1.5,
        increase: float = 1.25,
        decrease: float = 0.8,
        min_interval: float = 0.1,
        max_interval: float = 8.0,
    ) -> None:
        self.interval = _positive("interval", interval)
        self.low = float(low)
        self.high = float(high)
        if not 0.0 <= self.low < self.high:
            raise ValueError(
                f"need 0 <= low < high, got low={low}, high={high}"
            )
        self.increase = float(increase)
        self.decrease = float(decrease)
        if self.increase <= 1.0:
            raise ValueError(f"increase must be > 1, got {increase}")
        if not 0.0 < self.decrease < 1.0:
            raise ValueError(f"decrease must be in (0, 1), got {decrease}")
        self.min_interval = _positive("min_interval", min_interval)
        self.max_interval = _positive("max_interval", max_interval)
        if self.max_interval < self.min_interval:
            raise ValueError(
                f"max_interval ({max_interval}) must be >= min_interval "
                f"({min_interval})"
            )
        self._current: np.ndarray | None = None

    def initial_interval(self) -> float:
        return self.interval

    def _state(self, signals) -> np.ndarray:
        if self._current is None:
            self._current = np.full(
                signals.n_nodes, self.interval, dtype=float
            )
        return self._current

    def next_interval(self, node: int, signals) -> float:
        current = self._state(signals)
        if signals.windows_closed == 0:
            # Cold start: hold the current interval until the first
            # measurement window closes — a zero EWMA is "no data",
            # not "no churn".
            return float(current[node])
        params = signals.params
        expected = float(
            bcv_link_change_rate(
                max(signals.degree(node), 1.0),
                params.tx_range,
                params.velocity,
            )
        )
        measured = signals.link_change_rate(node)
        if measured > self.high * expected:
            current[node] = self._clamp(current[node] * self.decrease)
        elif measured <= self.low * expected:
            current[node] = self._clamp(current[node] * self.increase)
        return float(current[node])

    def spec(self) -> dict:
        return {
            "policy": self.policy_name,
            "interval": self.interval,
            "low": self.low,
            "high": self.high,
            "increase": self.increase,
            "decrease": self.decrease,
            "min_interval": self.min_interval,
            "max_interval": self.max_interval,
        }


class StalenessBoundedPolicy(BeaconPolicy):
    """Largest interval keeping expected table staleness under a target.

    With per-node link-change rate ``lambda_i`` (half breaks, half
    generations), a beacon interval ``T`` and expiry ``m * T``, the
    expected number of wrong neighbor-table entries at a random instant
    is approximately::

        E[stale_i]  =  (lambda_i / 2) * m * T      (broken, not expired)
                     + (lambda_i / 2) * T / 2      (new, not yet heard)
                     =  0.5 * lambda_i * (m + 0.5) * T

    Inverting for ``T`` at a staleness ``target`` gives the largest
    interval the budget allows.  The default target is the staleness
    the *fixed* baseline at ``interval`` would be expected to suffer at
    the **measured** network-mean change rate, scaled by ``margin`` —
    self-calibrating, so the resulting network beacon budget is
    ``~1/(margin * interval)`` per node regardless of how far the
    analytic rates sit from the measured ones.  Nodes churning below
    the network mean stretch their period (overhead win) while hot
    nodes tighten it (staleness win).
    """

    policy_name = "staleness-bounded"
    cause = CAUSE_STALENESS_HELLO

    def __init__(
        self,
        interval: float = 1.0,
        target: float | None = None,
        margin: float = 1.0,
        timeout_multiple: float = 2.5,
        min_interval: float = 0.1,
        max_interval: float = 8.0,
    ) -> None:
        self.interval = _positive("interval", interval)
        if target is not None:
            target = _positive("target", target)
        self.target = target
        self.margin = _positive("margin", margin)
        self.timeout_multiple = _positive("timeout_multiple", timeout_multiple)
        if self.timeout_multiple <= 1.0:
            raise ValueError(
                f"timeout_multiple must be > 1, got {timeout_multiple}"
            )
        self.min_interval = _positive("min_interval", min_interval)
        self.max_interval = _positive("max_interval", max_interval)
        if self.max_interval < self.min_interval:
            raise ValueError(
                f"max_interval ({max_interval}) must be >= min_interval "
                f"({min_interval})"
            )
    def initial_interval(self) -> float:
        return self.interval

    def _staleness_target(self, signals) -> float:
        if self.target is not None:
            return self.target * self.margin
        # Expected staleness of the fixed baseline: the same closed
        # form, evaluated at the *measured* network-mean change rate
        # and the base interval.  Using the measured mean (rather than
        # the analytic rate) self-calibrates the budget: per-node
        # intervals become ``margin * interval * mean(rate) / rate_i``,
        # so the network-wide beacon frequency lands at
        # ``~1/(margin * interval)`` whatever the analytic bias.
        baseline = (
            0.5
            * signals.mean_link_change_rate()
            * (self.timeout_multiple + 0.5)
            * self.interval
        )
        return max(baseline, 1e-12) * self.margin

    def next_interval(self, node: int, signals) -> float:
        if signals.windows_closed == 0:
            # Cold start: no measured rates yet.  Hold the base interval
            # rather than misreading "no data" as "no churn" and
            # sleeping ``max_interval`` with a stale table.
            return self._clamp(self.interval)
        lam = signals.link_change_rate(node)
        denom = 0.5 * lam * (self.timeout_multiple + 0.5)
        if denom <= 0.0:
            return self.max_interval
        return self._clamp(self._staleness_target(signals) / denom)

    def spec(self) -> dict:
        return {
            "policy": self.policy_name,
            "interval": self.interval,
            "target": self.target,
            "margin": self.margin,
            "timeout_multiple": self.timeout_multiple,
            "min_interval": self.min_interval,
            "max_interval": self.max_interval,
        }


#: Spec name -> policy class, the :func:`build_policy` registry.
POLICIES = {
    cls.policy_name: cls
    for cls in (
        FixedPeriodPolicy,
        AnalyticRatePolicy,
        ChurnFeedbackPolicy,
        StalenessBoundedPolicy,
    )
}


def build_policy(spec) -> BeaconPolicy:
    """Instantiate a policy from its JSON spec (``{"policy": name, ...}``).

    Already-constructed policies pass through unchanged.  Unknown
    policy names and unknown per-policy parameters are rejected with
    the full list of valid choices, mirroring the scenario loader's
    unknown-key convention.
    """
    if isinstance(spec, BeaconPolicy):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(
            f"beacon policy spec must be a dict, got {type(spec).__name__}"
        )
    data = dict(spec)
    name = data.pop("policy", None)
    if name not in POLICIES:
        raise ValueError(
            f"unknown beacon policy {name!r}; "
            f"valid policies are: {sorted(POLICIES)}"
        )
    cls = POLICIES[name]
    known = [
        parameter
        for parameter in inspect.signature(cls.__init__).parameters
        if parameter != "self"
    ]
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {name} policy keys: {sorted(unknown)}; "
            f"valid keys are: {sorted(known)}"
        )
    return cls(**data)
