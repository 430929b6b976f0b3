"""Hierarchical causal spans over the event tracer.

The flat event stream (:mod:`repro.obs.tracer`) answers *how much*
— message counts, rates, reconciliation — but not *why*: the paper's
central claim is that cluster-maintenance events (head changes,
reaffiliations, gateway churn) are what drive HELLO/CLUSTER/ROUTE
overhead, and attributing a burst of sends to the repair
that caused it needs structure the flat stream lacks.  This module adds
that structure as **spans**: nested intervals of simulated time,
recorded as ``span_start`` / ``span_end`` events and connected by
explicit ``span_link`` causality edges.

The hierarchy a fully-instrumented run produces::

    run (sim-0)                      kind="run"    one per measurement run
      warmup / measure               kind="phase"  stats.measuring segments
        step                         kind="step"   one kernel step (lazy)
          repair:head-merge          kind="handler" cluster repair operation
            reaffiliate              kind="handler" one node re-homed
            reaffiliate   <-- span_link (cascade) from repair:head-merge

Step spans are **lazy**: the tracker allocates nothing for them until a
handler span opens inside one, so a traced run only records the steps
in which something structurally interesting happened — the trace stays
proportional to the *event* count, not the step count.

Records annotated with a ``span`` field (``msgs``, ``head_change``,
``cluster_reaffiliation``) belong to the innermost *materialized* span
at emission time, which is how a CLUSTER message burst is attributed to
the exact repair operation that sent it.

Span ids are drawn from a process-global counter (like simulation ids),
so spans from every simulation of one traced invocation are distinct;
:mod:`repro.analysis.parallel` remaps worker-local ids through
:func:`next_span_id` when merging, exactly as it remaps sim ids.
"""

from __future__ import annotations

import itertools

__all__ = ["SPAN_KINDS", "SpanTracker", "next_span_id"]

#: The span vocabulary, outermost first.
SPAN_KINDS = ("run", "phase", "step", "handler")

_span_ids = itertools.count()


def next_span_id() -> int:
    """Allocate a fresh process-unique span id.

    The same counter serves every :class:`SpanTracker` *and* the
    parallel runner's worker-id remapping, so a merged trace can never
    reuse an id a local simulation already emitted.
    """
    return next(_span_ids)


class _Entry:
    """One open span on the stack (``span_id is None`` until emitted)."""

    __slots__ = ("span_id", "name", "kind", "start", "attrs")

    def __init__(self, name, kind, start, attrs):
        self.span_id = None
        self.name = name
        self.kind = kind
        self.start = start
        self.attrs = attrs


class SpanTracker:
    """Per-simulation span stack writing to the simulation's tracer.

    All methods are no-ops when the tracer is disabled (guarded by
    :attr:`enabled`, one attribute read — the same contract as the
    tracer itself), so untraced runs pay nothing.
    """

    __slots__ = ("tracer", "sim_id", "_stack")

    def __init__(self, tracer, sim_id: int) -> None:
        self.tracer = tracer
        self.sim_id = sim_id
        self._stack: list[_Entry] = []

    @property
    def enabled(self) -> bool:
        """Whether span emission sites should bother at all."""
        return self.tracer.enabled

    @property
    def current(self) -> int | None:
        """Innermost *materialized* span id, for event annotation.

        Lazy (never-emitted) spans are invisible here: annotating an
        event with a span id whose ``span_start`` never reaches the
        trace would dangle.
        """
        for entry in reversed(self._stack):
            if entry.span_id is not None:
                return entry.span_id
        return None

    @property
    def depth(self) -> int:
        """Open spans (materialized or lazy) on the stack."""
        return len(self._stack)

    # ------------------------------------------------------------------
    def _materialize(self) -> int:
        """Emit ``span_start`` for every pending span, outermost first."""
        parent = None
        for entry in self._stack:
            if entry.span_id is None:
                entry.span_id = next_span_id()
                fields = {
                    "sim": self.sim_id,
                    "span": entry.span_id,
                    "name": entry.name,
                    "kind": entry.kind,
                }
                if parent is not None:
                    fields["parent"] = parent
                if entry.attrs:
                    fields.update(entry.attrs)
                self.tracer.emit("span_start", entry.start, **fields)
            parent = entry.span_id
        return parent

    def start(self, name: str, kind: str, time: float, **attrs) -> int:
        """Open a span and emit its ``span_start`` (plus lazy parents).

        Returns the new span's id.
        """
        self._stack.append(_Entry(name, kind, float(time), attrs))
        return self._materialize()

    def start_lazy(self, name: str, kind: str, time: float, **attrs) -> None:
        """Open a span that is only emitted if a child materializes.

        The engine uses this for per-step spans: thousands of steps do
        nothing structurally interesting, and emitting two records for
        each would dwarf the events being explained.
        """
        self._stack.append(_Entry(name, kind, float(time), attrs))

    def end(self, time: float, **attrs) -> int | None:
        """Close the innermost span; emit ``span_end`` if it was emitted.

        Returns the closed span's id (``None`` for a lazy span that
        never materialized).  Ending an empty stack is a silent no-op
        so defensive unwinds stay safe.
        """
        if not self._stack:
            return None
        entry = self._stack.pop()
        if entry.span_id is None:
            return None
        fields = {
            "sim": self.sim_id,
            "span": entry.span_id,
            "name": entry.name,
            "kind": entry.kind,
            "duration": float(time) - entry.start,
        }
        if attrs:
            fields.update(attrs)
        self.tracer.emit("span_end", float(time), **fields)
        return entry.span_id

    def unwind(self, time: float) -> None:
        """Close every open span (run teardown safety net)."""
        while self._stack:
            self.end(time)

    def link(
        self, src_span: int, dst_span: int, kind: str, time: float
    ) -> None:
        """Emit a causal ``span_link`` edge from ``src`` to ``dst``.

        ``kind`` names the mechanism (``"cascade"`` for a repair whose
        resign forces its members to re-affiliate).
        """
        self.tracer.emit(
            "span_link",
            float(time),
            sim=self.sim_id,
            src_span=int(src_span),
            dst_span=int(dst_span),
            kind=kind,
        )
