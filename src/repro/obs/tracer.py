"""Structured event tracing for simulation runs.

A tracer receives every noteworthy event of a simulation — steps, link
churn, cluster role changes, control-message transmissions — as a
``(event, time, **fields)`` triple and decides what to do with it.  The
default :data:`NULL_TRACER` does nothing and costs one attribute check
per potential emission, so an untraced simulation runs at full speed.

:class:`JsonlTracer` writes schema-versioned JSON Lines records::

    {"schema": 2, "event": "msg_tx", "t": 3.25, "sim": 0,
     "category": "hello", "messages": 2, "bits": 96.0}

``msg_tx`` is most of a trace's records, so ``JsonlTracer.emit``
writes it with a fixed-key encoder: an f-string that produces the bytes
``json.dumps(record, separators=(",", ":"))`` would.  It applies only
when the field keys are exactly the ones the engine emits, in its order
— ``(sim, category, messages, bits[, span])`` — and every value is a
plain ``int``, a finite ``float`` or a ``str`` that JSON writes without
escapes.  Any other record goes through the JSON encoder, ``links``
included: its pair lists are nearly all of its bytes, and the C encoder
writes them faster than an f-string does.

Schema 2 replaced schema 1's per-pair ``link_up`` / ``link_down``
records (fields ``sim``, ``u``, ``v``) with one ``links`` record per
step.  Readers still accept schema-1 traces (see
:func:`repro.obs.summary.read_trace`) and count both forms alike.

Event vocabulary (``TRACE_EVENTS``):

``run_begin`` / ``run_end``
    Measurement-run boundaries with parameters and final per-category
    totals — ``run_end.totals`` lets a trace be reconciled against the
    ``msg_tx`` stream (see :mod:`repro.obs.summary`).
``step``
    One simulation step (sampled by ``step_every``): link up/down
    counts at that step.
``links``
    The link events of one step, written only on steps that have some:
    ``up`` and ``down`` are flat ``[u0, v0, u1, v1, ...]`` lists of the
    generated and broken pairs, in the order the protocols hear them.
``head_change``
    A node gained (``kind="elect"``) or lost (``kind="resign"``) the
    cluster-head role.
``cluster_reaffiliation``
    A node changed its cluster affiliation; ``role`` is its new role.
``msg_tx``
    Control messages transmitted: ``category``, ``messages``, ``bits``.
    Emitted only inside the measurement window, so per-category sums
    reproduce :class:`~repro.sim.stats.MessageStats` totals exactly.
``invariant_audit``
    One run of the P1/P2 invariant auditor: per-kind violation counts
    and the audit verdict (see :mod:`repro.obs.audit`).
``residual``
    One analytic-residual sample: a measured per-node message rate
    compared against the closed-form lower bound, per category and
    window, plus a ``kind="final"`` whole-run verdict record
    (see :mod:`repro.obs.residuals`).
``resource_sample``
    One background resource sample: current RSS, CPU utilisation and
    engine phase-timer deltas (see :mod:`repro.obs.resources`).  The
    envelope ``t`` is *wall-clock seconds since sampling started*, not
    simulated time — like the cache events below, it is emitted off
    the engine's clock.
``cache_hit`` / ``cache_miss`` / ``cache_write``
    One result-store outcome for a fingerprinted task (see
    :mod:`repro.store`): the task's content address (``key``) and
    worker function (``fn``).  Emitted outside any simulation run with
    ``t=0`` and no ``sim`` field; readers treat them as runless.
``span_start`` / ``span_end``
    Boundaries of one hierarchical causal span (run → phase → step →
    handler; see :mod:`repro.obs.spans`): ``span`` id, ``name``,
    ``kind``, optional ``parent``.  Events carrying a ``span`` field
    (``msg_tx``, ``head_change``, ``cluster_reaffiliation``) belong to
    that span.
``span_link``
    A causal edge between two spans (``src_span`` → ``dst_span``),
    e.g. ``kind="cascade"`` from a head-merge repair to the member
    reaffiliations it forced.
``cluster_window``
    One window of the cluster-dynamics time series (see
    :mod:`repro.clustering.stability`): cluster count, head ratio,
    head-change/reaffiliation deltas, gateway churn, mean head tenure
    and cluster diameter over ``[window_start, t)``.
``gateway_change``
    A node became (``kind="add"``) or stopped being (``kind="drop"``)
    a gateway, observed at a cluster-window boundary.
``control_window``
    One closed window of the adaptive-beaconing control loop (see
    :mod:`repro.control`): beacon count, interval statistics, measured
    mean/max link-change rates, mean neighbor-table staleness and mean
    advertised timeout over ``[window_start, t)``.  Emitted only when
    an *adaptive* beacon policy drives the HELLO protocol.
``attribution``
    One run's complete overhead-attribution breakdown (see
    :mod:`repro.obs.attribution`): per-cause tallies by category
    (``causes``), per-node and per-cluster tallies, the spatial
    heatmap, record-order category ``totals``, and the
    ``reconciled`` verdict against the run's ``MessageStats``.
``fault_inject`` / ``fault_clear``
    One fault transition from the run's :mod:`repro.faults` plan:
    ``kind="crash"`` (node radio died, state wiped / recovered),
    ``kind="outage"`` (node crossed a moving outage region's
    boundary), or ``kind="loss"`` (Bernoulli link loss activated at
    ``rate``, announced once at attach).  Crash/outage records carry
    the affected ``node``; all records carry the innermost open
    ``span`` when tracing spans.
"""

from __future__ import annotations

import atexit
import json
import threading
from pathlib import Path

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_EVENTS",
    "RESERVED_FIELDS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CollectingTracer",
    "JsonlTracer",
]

#: Bump when a record's field meaning changes incompatibly.
TRACE_SCHEMA_VERSION = 2

#: Record keys owned by the envelope; event fields must not use them.
RESERVED_FIELDS = frozenset({"schema", "event", "t"})

#: The known event vocabulary (tracers accept unknown events, readers
#: should ignore ones they do not understand).
TRACE_EVENTS = frozenset(
    {
        "run_begin",
        "run_end",
        "step",
        "links",
        "head_change",
        "cluster_reaffiliation",
        "msg_tx",
        "invariant_audit",
        "residual",
        "resource_sample",
        "cache_hit",
        "cache_miss",
        "cache_write",
        "span_start",
        "span_end",
        "span_link",
        "cluster_window",
        "control_window",
        "gateway_change",
        "attribution",
        "fault_inject",
        "fault_clear",
    }
)


def _jsonable(value):
    """Coerce NumPy scalars so records serialize cleanly."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serializable: {value!r}")


#: ``json.dumps(record, separators=(",", ":"), default=_jsonable)``
#: without building a new encoder per call.
_encode = json.JSONEncoder(separators=(",", ":"), default=_jsonable).encode

#: Schema-1 per-pair link events, which schema 2 writes as ``links``:
#: an event filter naming one would silently drop every link.
_SCHEMA_1_LINK_EVENTS = frozenset({"link_up", "link_down"})

#: Field keys, in emission order, of the records the fixed-key encoder
#: writes (``Simulation`` emits exactly these).
_MSG_TX_KEYS = ("sim", "category", "messages", "bits")
_MSG_TX_SPAN_KEYS = _MSG_TX_KEYS + ("span",)
_MSG_TX_HEAD = f'{{"schema":{TRACE_SCHEMA_VERSION},"event":"msg_tx","t":'


def _plain(text) -> bool:
    """Whether ``text`` is a ``str`` JSON writes without any escape."""
    return (
        type(text) is str
        and text.isascii()
        and text.isprintable()
        and '"' not in text
        and "\\" not in text
    )


class Tracer:
    """Base tracer: a no-op sink.

    Emission sites guard with ``tracer.enabled`` before building field
    dicts, so a disabled tracer costs one attribute read.
    """

    #: Whether emission sites should bother constructing events.
    enabled: bool = False

    def emit(self, event: str, time: float, **fields) -> None:
        """Record one event at simulated ``time``."""

    def close(self) -> None:
        """Flush and release any underlying resources."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTracer(Tracer):
    """The default tracer: drops everything."""


#: Shared singleton used wherever no tracer was configured.
NULL_TRACER = NullTracer()


class CollectingTracer(Tracer):
    """Keeps events in memory as dicts — for tests and notebooks."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, event: str, time: float, **fields) -> None:
        self.records.append({"event": event, "t": float(time), **fields})

    def of(self, event: str) -> list[dict]:
        """All collected records of one event type."""
        return [r for r in self.records if r["event"] == event]


class JsonlTracer(Tracer):
    """Writes one JSON object per line to ``path`` (or a file object).

    Parameters
    ----------
    path:
        Output path (truncated) or an open text file object.
    events:
        When given, only these event types are written (filtering).
    step_every:
        Write only every ``step_every``-th ``step`` event (sampling);
        all other event types are unaffected.  ``step`` events are the
        per-step heartbeat, so this is the knob that keeps full-rate
        tracing cheap on long runs.
    """

    enabled = True

    def __init__(
        self,
        path,
        events=None,
        step_every: int = 1,
    ) -> None:
        if step_every < 1:
            raise ValueError(f"step_every must be >= 1, got {step_every}")
        if events is not None:
            events = frozenset(events)
            retired = sorted(events & _SCHEMA_1_LINK_EVENTS)
            if retired:
                raise ValueError(
                    f"trace events {retired} are not written since schema "
                    f"{TRACE_SCHEMA_VERSION}: it writes one 'links' record "
                    "per step instead; filter on 'links'"
                )
            unknown = events - TRACE_EVENTS
            if unknown:
                raise ValueError(
                    f"unknown trace events {sorted(unknown)}; "
                    f"known: {sorted(TRACE_EVENTS)}"
                )
        self._events = events
        self.step_every = step_every
        self.emitted = 0
        self.suppressed = 0
        self._steps_seen = 0
        #: ``category -> _plain(category)`` for the ``msg_tx`` encoder;
        #: a run sends a handful of categories, millions of times.
        self._plain_categories: dict[str, bool] = {}
        # The resource sampler emits from a background thread; the lock
        # keeps each record's two writes (payload + newline) atomic.
        self._lock = threading.Lock()
        if hasattr(path, "write"):
            self._fh = path
            self._owns_fh = False
        else:
            self._fh = Path(path).open("w", encoding="utf-8")
            self._owns_fh = True
        # Abrupt-exit safety net: flush buffered records at interpreter
        # shutdown (SIGINT included — KeyboardInterrupt unwinds into the
        # normal exit path) so a Ctrl-C'd run leaves a parseable trace
        # even when close() is never reached.  Unregistered on close.
        atexit.register(self._flush_at_exit)

    def _flush_at_exit(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()

    # ------------------------------------------------------------------
    def emit(self, event: str, time: float, **fields) -> None:
        if self._events is not None and event not in self._events:
            self.suppressed += 1
            return
        if event == "step":
            self._steps_seen += 1
            if (self._steps_seen - 1) % self.step_every:
                self.suppressed += 1
                return
        time = float(time)
        line = None
        # Fixed-key encoder for the hot record: the bytes json.dumps
        # writes, for exactly the keys the engine emits and plain int /
        # str / finite float values.  Anything else falls through to the
        # encoder.
        if event == "msg_tx":
            keys = tuple(fields)
            if keys == _MSG_TX_KEYS or keys == _MSG_TX_SPAN_KEYS:
                sim = fields["sim"]
                category = fields["category"]
                messages = fields["messages"]
                bits = fields["bits"]
                span = fields.get("span", 0)
                plain = type(category) is str and self._plain_categories.get(
                    category
                )
                if plain is None:
                    plain = self._plain_categories[category] = _plain(category)
                if (
                    plain
                    and type(sim) is int
                    and type(messages) is int
                    and type(bits) is float
                    and type(span) is int
                    and time - time == 0.0
                    and bits - bits == 0.0
                ):
                    line = (
                        f'{_MSG_TX_HEAD}{time!r},"sim":{sim},'
                        f'"category":"{category}","messages":{messages},'
                        f'"bits":{bits!r}'
                    )
                    line += f',"span":{span}}}\n' if len(keys) == 5 else "}\n"
        if line is None:
            if RESERVED_FIELDS & fields.keys():
                clash = sorted(RESERVED_FIELDS & fields.keys())
                raise ValueError(f"event fields shadow envelope keys: {clash}")
            record = {"schema": TRACE_SCHEMA_VERSION, "event": event, "t": time}
            record.update(fields)
            line = _encode(record) + "\n"
        with self._lock:
            self._fh.write(line)
            self.emitted += 1

    def close(self) -> None:
        atexit.unregister(self._flush_at_exit)
        if self._owns_fh and not self._fh.closed:
            self._fh.close()
        elif not self._owns_fh:
            self._fh.flush()
