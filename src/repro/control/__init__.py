"""Closed-loop beacon-rate control (adaptive HELLO periods).

The paper's HELLO bound (Eqn 4) says a node *needs* to beacon only at
its link-generation rate ``f_hello = 8 d v / (pi^2 r)``; the deployable
``periodic`` beacon mode instead burns a fixed interval regardless of
local mobility.  This package closes the loop: a
:class:`~repro.control.policies.BeaconPolicy` picks each node's *next*
beacon interval from measured per-node link dynamics, which a
:class:`~repro.control.signals.ControlSignals` instance taps directly
off the engine's :class:`~repro.spatial.LinkEvents` stream (one tap per
simulation, shared by every policy, so no policy re-derives churn).

Policies::

    fixed               constant interval (the `periodic` mode's code)
    analytic-rate       interval = 1 / Eqn-4 rate at the local degree
    churn-feedback      Gavalas-style multiplicative increase/decrease
    staleness-bounded   largest interval keeping expected neighbor-table
                        staleness under a target

The HELLO side of the loop lives in :class:`repro.sim.beacon
.HelloProtocol` (``mode="adaptive"``); this package deliberately does
not import :mod:`repro.sim`, so the dependency arrow points one way.
"""

from .policies import (
    POLICIES,
    AnalyticRatePolicy,
    BeaconPolicy,
    ChurnFeedbackPolicy,
    FixedPeriodPolicy,
    StalenessBoundedPolicy,
    build_policy,
)
from .signals import ControlSignals

__all__ = [
    "POLICIES",
    "AnalyticRatePolicy",
    "BeaconPolicy",
    "ChurnFeedbackPolicy",
    "ControlSignals",
    "FixedPeriodPolicy",
    "StalenessBoundedPolicy",
    "build_policy",
]
