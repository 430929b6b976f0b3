"""Tests for the protocol-comparison experiment harness internals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import NetworkParameters
from repro.experiments.protocols import (
    _record_trace,
    _traffic_pairs,
    run_traffic_epoch,
)


@pytest.fixture(scope="module")
def shared_trace():
    params = NetworkParameters.from_fractions(
        n_nodes=40, range_fraction=0.25, velocity_fraction=0.03
    )
    trace, dt = _record_trace(params, duration=4.0, seed=1)
    return params, trace, dt


class TestTrafficPairs:
    def test_count_and_distinct_endpoints(self):
        pairs = _traffic_pairs(20, 15, seed=0)
        assert len(pairs) == 15
        assert all(u != v for u, v in pairs)
        assert all(0 <= u < 20 and 0 <= v < 20 for u, v in pairs)

    def test_deterministic(self):
        assert _traffic_pairs(20, 10, seed=3) == _traffic_pairs(20, 10, seed=3)


class TestRunTrafficEpoch:
    def test_unknown_stack_rejected(self, shared_trace):
        params, trace, dt = shared_trace
        with pytest.raises(ValueError, match="unknown stack"):
            run_traffic_epoch("olsr", params, trace, dt, [(0, 1)], warmup=0.5)

    def test_warmup_longer_than_trace_rejected(self, shared_trace):
        params, trace, dt = shared_trace
        with pytest.raises(ValueError, match="too short"):
            run_traffic_epoch("hybrid", params, trace, dt, [(0, 1)], warmup=99.0)

    @pytest.mark.parametrize("stack", ["hybrid", "dsdv", "aodv"])
    def test_metrics_structure(self, shared_trace, stack):
        params, trace, dt = shared_trace
        metrics = run_traffic_epoch(
            stack, params, trace, dt, [(0, 20), (5, 30)], warmup=0.5
        )
        assert set(metrics) == {"overhead", "messages", "delivery"}
        assert metrics["overhead"] >= 0.0
        assert 0.0 <= metrics["delivery"] <= 1.0

    def test_same_trace_same_hybrid_result(self, shared_trace):
        params, trace, dt = shared_trace
        pairs = [(0, 20), (5, 30), (2, 38)]
        a = run_traffic_epoch("hybrid", params, trace, dt, pairs, warmup=0.5)
        b = run_traffic_epoch("hybrid", params, trace, dt, pairs, warmup=0.5)
        assert a == b

    def test_dsdv_overhead_dominated_by_table_dumps(self, shared_trace):
        params, trace, dt = shared_trace
        dsdv = run_traffic_epoch(
            "dsdv", params, trace, dt, [(0, 20)], warmup=0.5
        )
        hybrid = run_traffic_epoch(
            "hybrid", params, trace, dt, [(0, 20)], warmup=0.5
        )
        assert dsdv["overhead"] > hybrid["overhead"]


#: Outputs of the shared trace with ``_traffic_pairs(40, 12, seed=2)``
#: and 0.5 warm-up, pinned bit for bit: the warm-up / measure loop and
#: the per-stack route queries must not move them.
PINNED_EPOCHS = {
    "hybrid": {
        "overhead": 578.2588235294118,
        "messages": 4.870588235294117,
        "delivery": 1.0,
    },
    "dsdv": {
        "overhead": 18431.999999999996,
        "messages": 4.799999999999999,
        "delivery": 0.6666666666666666,
    },
    "aodv": {
        "overhead": 515.6894117647058,
        "messages": 4.24235294117647,
        "delivery": 1.0,
    },
}


@pytest.mark.parametrize("stack", sorted(PINNED_EPOCHS))
def test_traffic_epoch_is_pinned(shared_trace, stack):
    params, trace, dt = shared_trace
    pairs = _traffic_pairs(params.n_nodes, 12, seed=2)
    metrics = run_traffic_epoch(stack, params, trace, dt, pairs, warmup=0.5)
    assert metrics == PINNED_EPOCHS[stack]
