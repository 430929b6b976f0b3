"""The folded attribution ledger against a per-target reference loop.

:class:`~repro.obs.attribution.OverheadLedger` buffers each record's
per-target rows and folds them into numpy accumulators once per step.
``ReferenceLedger`` below is the straightforward per-target loop: every
record charges each target, its home cluster, its ``(category, cause,
cluster)`` cell and its heatmap bin on the spot.  Fed the same record
streams, the two must agree bit for bit: snapshot JSON bytes, the
folded views and the registry counters (values and registration order).

The last class checks that a traced stack is not held alive by a
reference cycle: it must be freed by refcounting alone.
"""

from __future__ import annotations

import gc
import json
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import ClusterMaintenanceProtocol, LowestIdClustering
from repro.core.params import NetworkParameters
from repro.mobility import EpochRandomWaypointModel
from repro.obs import JsonlTracer, MetricsRegistry, OverheadLedger, observe
from repro.obs.attribution import CAUSE_UNATTRIBUTED, attach_attribution
from repro.routing import IntraClusterRoutingProtocol
from repro.sim import HelloProtocol, Simulation

N_NODES = 12
BINS = 3


def _num(value):
    value = float(value)
    return int(value) if value.is_integer() else value


class _Tally:
    def __init__(self) -> None:
        self.messages = 0.0
        self.bits = 0.0

    def add(self, messages, bits) -> None:
        self.messages += messages
        self.bits += bits


class ReferenceLedger:
    """Per-target accounting loop over the ``on_record`` arguments."""

    def __init__(self, primary, sim, maintenance, registry=None, labels=None):
        self.sim = sim
        self.maintenance = maintenance
        self.registry = registry
        self.labels = dict(labels or {})
        self.bins = primary.bins
        self.side = float(sim.params.side)
        self.by_cause: dict = {}
        self.by_node: dict = {}
        self.by_cluster: dict = {}
        self.by_cell: dict = {}
        self.totals: dict = {}
        self.heatmap = [0.0] * (self.bins * self.bins)

    def on_record(self, category, messages, bits, cause, node, nodes, cluster) -> None:
        if cause is None:
            cause = CAUSE_UNATTRIBUTED
        self.by_cause.setdefault((category, cause), _Tally()).add(messages, bits)
        self.totals.setdefault(category, _Tally()).add(messages, bits)
        if node is not None:
            targets = (int(node),)
        elif nodes is not None:
            if callable(nodes):
                nodes = nodes(cluster)
            targets = tuple(int(x) for x in nodes)
        else:
            targets = ()
        if targets:
            share_messages = messages / len(targets)
            share_bits = bits / len(targets)
            positions = self.sim.positions
            scale = self.bins / self.side
            last = self.bins - 1
            for target in targets:
                self.by_node.setdefault(target, _Tally()).add(share_messages, share_bits)
                home = int(cluster) if cluster is not None else self._cluster_of(target)
                self.by_cluster.setdefault(home, _Tally()).add(
                    share_messages, share_bits
                )
                x, y = positions[target]
                col = min(last, int(x * scale))
                row = min(last, int(y * scale))
                self.heatmap[row * self.bins + col] += share_messages
                self._cell(category, cause, home, share_messages, share_bits)
        else:
            home = int(cluster) if cluster is not None else -1
            self.by_cluster.setdefault(home, _Tally()).add(messages, bits)
            self._cell(category, cause, home, messages, bits)

    def _cluster_of(self, node):
        if self.maintenance is None or self.maintenance.state is None:
            return -1
        return int(self.maintenance.state.head_of[node])

    def _cell(self, category, cause, cluster, messages, bits) -> None:
        self.by_cell.setdefault((category, cause, cluster), _Tally()).add(
            messages, bits
        )
        if self.registry is None:
            return
        labels = dict(cause=cause, protocol=category, cluster=str(cluster), **self.labels)
        self.registry.counter("overhead_messages_total", **labels).inc(messages)
        self.registry.counter("overhead_bits_total", **labels).inc(bits)

    def snapshot(self) -> dict:
        def tally(t):
            return {"messages": _num(t.messages), "bits": t.bits}

        causes: dict = {}
        for (category, cause), t in sorted(self.by_cause.items()):
            causes.setdefault(category, {})[cause] = tally(t)
        return {
            "causes": causes,
            "nodes": {str(k): tally(t) for k, t in sorted(self.by_node.items())},
            "clusters": {
                str(k): tally(t) for k, t in sorted(self.by_cluster.items())
            },
            "cells": [
                [category, cause, cluster, _num(t.messages), t.bits]
                for (category, cause, cluster), t in sorted(self.by_cell.items())
            ],
            "heatmap": {
                "bins": self.bins,
                "side": self.side,
                "messages": [
                    [
                        _num(self.heatmap[row * self.bins + col])
                        for col in range(self.bins)
                    ]
                    for row in range(self.bins)
                ],
            },
            "totals": {c: tally(t) for c, t in sorted(self.totals.items())},
        }


# ----------------------------------------------------------------------
# Random record streams
# ----------------------------------------------------------------------
nodes_ = st.integers(0, N_NODES - 1)
clusters = st.none() | st.integers(-1, N_NODES - 1)
bits_ = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False),
    st.sampled_from((0.1, 1.0 / 3.0, 96.125, 5e-324)),
    st.integers(0, 10**6),
)
target_forms = st.sampled_from(
    ("node", "tuple", "ndarray", "callable", "empty", "unscoped")
)


@st.composite
def records(draw):
    return (
        "record",
        draw(st.sampled_from(("hello", "cluster", "route"))),
        draw(st.sampled_from(("cause-a", "cause-b", "cause-c"))),
        draw(target_forms),
        draw(st.lists(nodes_, min_size=1, max_size=5)),
        draw(clusters),
        # 2 ** 40 rounds the shares added after it: sums depend on order,
        # while per-cause message counts stay exact integers.
        draw(st.one_of(st.integers(0, 7), st.just(2**40))),
        draw(bits_),
    )


ops = st.one_of(
    records(),
    st.tuples(
        st.just("heads"),
        st.lists(st.integers(-1, N_NODES - 1), min_size=N_NODES, max_size=N_NODES),
    ),
    st.tuples(
        st.just("read"),
        st.sampled_from(
            ("by_node", "by_cluster", "by_cell", "heatmap", "snapshot", "reconcile")
        ),
    ),
)
#: Per step: ops played before it (between steps), inside it before the
#: ledger's ``on_step_end``, and inside it after the ledger's.
steps = st.lists(
    st.tuples(
        st.lists(ops, max_size=3), st.lists(ops, max_size=6), st.lists(ops, max_size=3)
    ),
    min_size=1,
    max_size=5,
)


class Driver:
    """Plays ops against the simulation and compares the ledgers."""

    def __init__(self, sim, ledger, reference, maintenance):
        self.sim = sim
        self.ledger = ledger
        self.reference = reference
        self.maintenance = maintenance

    def play(self, op) -> None:
        kind = op[0]
        if kind == "heads":
            if self.maintenance is not None and self.maintenance.state is not None:
                self.maintenance.state.head_of[:] = op[1]
        elif kind == "read":
            self.compare(op[1])
        else:
            self.record(*op[1:])

    def record(self, category, cause, form, targets, cluster, messages, bits):
        sim = self.sim
        if form == "unscoped":
            sim.stats.record(category, messages, bits)
            return
        kwargs: dict = {"cluster": cluster}
        if form == "node":
            kwargs["node"] = targets[0]
        elif form == "tuple":
            kwargs["nodes"] = tuple(targets)
        elif form == "ndarray":
            kwargs["nodes"] = np.array(targets)
        elif form == "empty":
            kwargs["nodes"] = ()
        else:
            chosen = np.array(targets)
            kwargs["nodes"] = lambda head: chosen[chosen % 3 == (head or 0) % 3]
        sim.stats.record(category, messages, bits, cause=cause, **kwargs)

    def compare(self, what: str) -> None:
        ledger, reference = self.ledger, self.reference
        if what == "snapshot":
            assert _bytes(ledger.snapshot()) == _bytes(reference.snapshot())
        elif what == "reconcile":
            assert ledger.reconcile() == []
        elif what == "heatmap":
            assert ledger.heatmap == reference.heatmap
        else:
            assert _pairs(getattr(ledger, what)) == _pairs(getattr(reference, what))


def _bytes(snapshot) -> str:
    return json.dumps(snapshot, separators=(",", ":"))


def _pairs(tallies: dict) -> list:
    return sorted((key, t.messages, t.bits) for key, t in tallies.items())


class _Ops:
    """Protocol playing its slot of each step's ops in ``on_step_end``."""

    def __init__(self, driver, slot, script):
        self.name = f"ops-{slot}"
        self.driver = driver
        self.slot = slot
        self.script = list(script)

    def on_attach(self, sim):
        pass

    def on_step_begin(self, sim, time):
        pass

    def on_link_up(self, sim, u, v, time):
        pass

    def on_link_down(self, sim, u, v, time):
        pass

    def on_step_end(self, sim, time):
        for op in self.script.pop(0)[self.slot]:
            self.driver.play(op)

    def on_run_end(self, sim, time):
        pass


def _maintenance(kind: str):
    if kind == "none":
        return None
    if kind == "stateless":
        return SimpleNamespace(state=None)
    head_of = np.arange(N_NODES) // 3 * 3
    return SimpleNamespace(state=SimpleNamespace(head_of=head_of))


def _run(script, maintenance_kind: str, with_registry: bool):
    params = NetworkParameters.from_fractions(
        n_nodes=N_NODES, range_fraction=0.3, velocity_fraction=0.2
    )
    sim = Simulation(params, EpochRandomWaypointModel(params.velocity), seed=3)
    maintenance = _maintenance(maintenance_kind)
    registry = MetricsRegistry() if with_registry else None
    reference_registry = MetricsRegistry() if with_registry else None
    labels = {"sim": "7"}
    ledger = OverheadLedger(maintenance, bins=BINS, registry=registry, labels=labels)
    reference = ReferenceLedger(
        ledger, sim, maintenance, registry=reference_registry, labels=labels
    )
    driver = Driver(sim, ledger, reference, maintenance)
    sim.attach(_Ops(driver, 1, script))
    sim.stats.on_record = reference.on_record
    sim.attach(ledger)
    sim.attach(_Ops(driver, 2, script))
    sim.stats.start_measuring()
    for between, _, _ in script:
        # Rows recorded between steps: the engine folds them before the
        # nodes move.
        for op in between:
            driver.play(op)
        sim.step()
    sim.notify_run_end()
    return ledger, reference, registry, reference_registry


def _counters(registry) -> list:
    return [(c.name, sorted(c.labels.items()), c.value) for c in registry.collect()]


class TestFoldMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(
        script=steps,
        maintenance_kind=st.sampled_from(("live", "none", "stateless")),
        with_registry=st.booleans(),
    )
    def test_random_streams(self, script, maintenance_kind, with_registry):
        ledger, reference, registry, reference_registry = _run(
            script, maintenance_kind, with_registry
        )
        driver = Driver(None, ledger, reference, None)
        for what in ("by_node", "by_cluster", "by_cell", "heatmap", "snapshot"):
            driver.compare(what)
        assert _pairs(ledger.by_cause) == _pairs(reference.by_cause)
        assert _pairs(ledger.totals) == _pairs(reference.totals)
        if with_registry:
            # Same values and the same registration order.
            assert _counters(registry) == _counters(reference_registry)

    def test_shares_accumulate_in_record_order(self):
        """Inexact shares: sums depend on order, so this pins the order."""
        burst = [
            ("record", "route", "cause-a", "ndarray", [1, 2, 4], 6, 1, 0.1),
            ("record", "route", "cause-a", "tuple", [1, 2, 4], None, 2, 1 / 3),
            ("record", "route", "cause-b", "node", [1], -1, 5, 96.125),
            ("record", "hello", "cause-a", "empty", [1], 3, 3, 0.7),
        ]
        # 2 ** 53 absorbs the shares of 1/3 that come after it, not the
        # ones before it.
        absorb = [("record", "route", "cause-c", "tuple", [1, 2, 4], None, 1, 1.0)] * 6
        absorb.append(("record", "route", "cause-c", "node", [1], None, 2**53, 2.0**53))
        tail = [("record", "route", "cause-a", "tuple", [1, 2], 6, 1, 0.3)]
        script = [(tail, absorb + burst * 7, tail)] + [(tail, burst * 7, tail)] * 2
        ledger, reference, registry, reference_registry = _run(script, "live", True)
        assert _bytes(ledger.snapshot()) == _bytes(reference.snapshot())
        assert _counters(registry) == _counters(reference_registry)

    def test_views_are_copies(self):
        script = [([], [("record", "hello", "cause-a", "node", [2], None, 1, 8.0)], [])]
        ledger, *_ = _run(script, "live", False)
        ledger.by_node[2].messages += 5
        ledger.heatmap[0] += 5
        assert ledger.by_node[2].messages == 1.0
        assert sum(ledger.heatmap) == 1.0

    def test_out_of_range_cluster_is_rejected(self):
        script = [([], [("record", "hello", "cause-a", "node", [2], N_NODES, 1, 8.0)], [])]
        with pytest.raises(ValueError, match="attributed cluster"):
            _run(script, "live", False)


def _stack_ref() -> weakref.ref:
    params = NetworkParameters.from_fractions(
        n_nodes=60, range_fraction=0.2, velocity_fraction=0.05
    )
    sim = Simulation(params, EpochRandomWaypointModel(params.velocity), seed=0)
    sim.attach(HelloProtocol(mode="event"))
    maintenance = ClusterMaintenanceProtocol(LowestIdClustering())
    sim.attach(IntraClusterRoutingProtocol(maintenance))
    sim.attach(maintenance)
    ledger = attach_attribution(sim, maintenance)
    assert ledger is not None
    sim.stats.start_measuring()
    for _ in range(5):
        sim.step()
    return weakref.ref(sim)


class TestTracedStackIsCycleFree:
    @pytest.fixture(autouse=True)
    def no_cyclic_gc(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_untraced_stack_with_registry_is_freed(self):
        with observe(registry=MetricsRegistry()):
            ref = _stack_ref()
        assert ref() is None

    def test_traced_stack_is_freed(self, tmp_path):
        with JsonlTracer(tmp_path / "trace.jsonl") as tracer, observe(
            tracer=tracer, registry=MetricsRegistry()
        ):
            ref = _stack_ref()
            assert ref() is None
