"""Structured event tracing for simulation runs.

A tracer receives every noteworthy event of a simulation — steps, link
churn, cluster role changes, control-message transmissions — as a
``(event, time, **fields)`` triple and decides what to do with it.  The
default :data:`NULL_TRACER` does nothing and costs one attribute check
per potential emission, so an untraced simulation runs at full speed.

:class:`JsonlTracer` writes schema-versioned JSON Lines records::

    {"schema": 3, "event": "msgs", "t": 3.25, "sim": 0,
     "category": ["hello", "route"], "messages": [2, 5], "bits": [96.0, 640.0]}

Control-message sends are most of what a run traces, so they do not go
through :meth:`Tracer.emit` one record each: :meth:`Tracer.send`
buffers a *run* of consecutive sends that share ``t``, ``sim`` and
``span``, and the run is written as one columnar ``msgs`` record in
the place its sends happened.  Every record, ``msgs`` and ``links``
included, goes through the JSON encoder: :class:`JsonlTracer` writes a
cached ``{"schema":3,"event":<event>,"t":`` prefix per event name, the
time's ``repr`` and the ``fields`` dict encoded by one prebuilt encoder
with its opening brace dropped.  Those are the bytes ``json.dumps`` of
the whole record gives; a record with a non-finite ``t`` or no fields
is encoded whole.

Schema 3 replaced schema 2's per-send ``msg_tx`` records (fields
``sim``, ``category``, ``messages``, ``bits`` and an optional ``span``)
with ``msgs`` runs; schema 2 replaced schema 1's per-pair ``link_up`` /
``link_down`` records (fields ``sim``, ``u``, ``v``) with one ``links``
record per step.  Readers still accept schema-1 and schema-2 traces
(see :func:`repro.obs.summary.read_trace`) and count every form alike.

Event vocabulary (``TRACE_EVENTS``):

``run_begin`` / ``run_end``
    Measurement-run boundaries with parameters and final per-category
    totals — ``run_end.totals`` lets a trace be reconciled against the
    traced sends (see :mod:`repro.obs.summary`).
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
``msgs``
    One run of control-message sends: equal-length ``category``,
    ``messages`` and ``bits`` lists, one entry per send in send order,
    plus the run's ``span`` when one is open.  Sends are traced only
    inside the measurement window, so per-category sums reproduce
    :class:`~repro.sim.stats.MessageStats` totals exactly.
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
    (``msgs``, ``head_change``, ``cluster_reaffiliation``) belong to
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
import math
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
TRACE_SCHEMA_VERSION = 3

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
        "msgs",
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

if json.encoder.c_make_encoder is not None:
    # The encoder ``JSONEncoder.encode`` builds afresh for every call,
    # built once: the same arguments as ``_encode``'s, except that it
    # keeps no circular-reference markers.  A markers dict would be
    # state shared by every tracer and thread (and left dirty by a
    # failed call); a circular value still raises, as RecursionError.
    _encode_chunks = json.encoder.c_make_encoder(
        None,  # markers
        _jsonable,  # default
        json.encoder.encode_basestring_ascii,  # ensure_ascii
        None,  # indent
        ":",  # key separator
        ",",  # item separator
        False,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )

    def _encode_fields(fields: dict) -> str:
        return "".join(_encode_chunks(fields, 0))

else:  # pragma: no cover - interpreters without the C accelerator
    _encode_fields = json.JSONEncoder(
        separators=(",", ":"), default=_jsonable, check_circular=False
    ).encode

#: Events earlier schemas wrote and this one does not, by the record
#: that took their place (``links`` since schema 2, ``msgs`` since
#: schema 3): an event filter naming one would silently drop them all.
_RETIRED_EVENTS = {"link_up": "links", "link_down": "links", "msg_tx": "msgs"}


class Tracer:
    """Base tracer: a sink for records and for runs of sends.

    Emission sites guard with ``tracer.enabled`` before building field
    dicts, so a disabled tracer costs one attribute read.

    :meth:`send` buffers one *run* of sends — consecutive sends of one
    ``sim`` at one ``t`` under one ``span`` — and the run is written as
    a single ``msgs`` record when it ends: at the next send of another
    ``(t, sim, span)``, at any :meth:`emit` (written or filtered), and
    at :meth:`flush` / :meth:`close`.  A run therefore sits in the trace
    exactly where its sends happened.  Subclasses write records in
    :meth:`_write`; sends and emits share one lock, because the
    resource sampler emits from a background thread.
    """

    #: Whether emission sites should bother constructing events.
    enabled: bool = False

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``(t, sim, span)`` of the buffered run, and its columns.
        self._run = None
        self._categories: list = []
        self._messages: list = []
        self._bits: list = []

    def emit(self, event: str, time: float, **fields) -> None:
        """Record one event at simulated ``time``."""
        with self._lock:
            if self._categories:
                self._end_run()
            self._write(event, float(time), fields)

    def send(self, time, sim, category, messages, bits, span=None) -> None:
        """Record one send of ``messages`` control messages of ``bits``."""
        key = (time, sim, span)
        with self._lock:
            if key != self._run:
                if self._categories:
                    self._end_run()
                self._run = key
            self._categories.append(category)
            self._messages.append(messages)
            self._bits.append(bits)

    def flush(self) -> None:
        """Write the buffered run of sends, if any."""
        with self._lock:
            if self._categories:
                self._end_run()

    def _end_run(self) -> None:
        """Write the buffered run as one ``msgs`` record (lock held)."""
        time, sim, span = self._run
        fields = {
            "sim": sim,
            "category": self._categories,
            "messages": self._messages,
            "bits": self._bits,
        }
        if span is not None:
            fields["span"] = span
        self._run = None
        self._categories, self._messages, self._bits = [], [], []
        self._write("msgs", float(time), fields)

    def _write(self, event: str, time: float, fields: dict) -> None:
        """Write one record (called with the lock held)."""

    def close(self) -> None:
        """Flush and release any underlying resources."""
        self.flush()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTracer(Tracer):
    """The default tracer: drops everything."""

    def emit(self, event: str, time: float, **fields) -> None:
        pass

    def send(self, time, sim, category, messages, bits, span=None) -> None:
        pass


#: Shared singleton used wherever no tracer was configured.
NULL_TRACER = NullTracer()


class CollectingTracer(Tracer):
    """Keeps events in memory as dicts — for tests and notebooks.

    A run of sends is one ``msgs`` dict, as :class:`JsonlTracer` writes
    it; reading :attr:`records` first ends the buffered run.
    """

    enabled = True

    def __init__(self) -> None:
        super().__init__()
        self._records: list[dict] = []

    @property
    def records(self) -> list[dict]:
        """Every record so far, in emission order."""
        self.flush()
        return self._records

    def _write(self, event: str, time: float, fields: dict) -> None:
        self._records.append({"event": event, "t": time, **fields})

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
        When given, only these event types are written (filtering).  A
        filter without ``msgs`` drops every send, each counted in
        :attr:`suppressed`.
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
        super().__init__()
        if step_every < 1:
            raise ValueError(f"step_every must be >= 1, got {step_every}")
        if events is not None:
            events = frozenset(events)
            retired = sorted(events & _RETIRED_EVENTS.keys())
            if retired:
                records = sorted({_RETIRED_EVENTS[name] for name in retired})
                raise ValueError(
                    f"trace events {retired} are no longer written: schema "
                    f"{TRACE_SCHEMA_VERSION} writes {records} in their place, "
                    "so filter on those"
                )
            unknown = events - TRACE_EVENTS
            if unknown:
                raise ValueError(
                    f"unknown trace events {sorted(unknown)}; "
                    f"known: {sorted(TRACE_EVENTS)}"
                )
        self._events = events
        #: ``event -> '{"schema":3,"event":<event>,"t":'``, the envelope
        #: up to its time, encoded as ``_encode`` encodes it.
        self._prefixes: dict[str, str] = {}
        self.step_every = step_every
        self.emitted = 0
        self.suppressed = 0
        self._steps_seen = 0
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
                if self._categories:
                    self._end_run()
                self._fh.flush()

    # ------------------------------------------------------------------
    def _write(self, event: str, time: float, fields: dict) -> None:
        if self._events is not None and event not in self._events:
            # A filtered run of sends counts once per send.
            self.suppressed += len(fields["category"]) if event == "msgs" else 1
            return
        if event == "step":
            self._steps_seen += 1
            if (self._steps_seen - 1) % self.step_every:
                self.suppressed += 1
                return
        if RESERVED_FIELDS & fields.keys():
            clash = sorted(RESERVED_FIELDS & fields.keys())
            raise ValueError(f"event fields shadow envelope keys: {clash}")
        if fields and math.isfinite(time):
            # The envelope spliced onto the encoded fields: the bytes of
            # ``_encode(record)`` (``repr`` is how json writes a finite
            # float), without building the record or an encoder.
            prefix = self._prefixes.get(event)
            if prefix is None:
                prefix = self._prefixes[event] = (
                    f'{{"schema":{TRACE_SCHEMA_VERSION},"event":{_encode(event)},"t":'
                )
            line = prefix + repr(time) + "," + _encode_fields(fields)[1:] + "\n"
        else:
            record = {"schema": TRACE_SCHEMA_VERSION, "event": event, "t": time}
            record.update(fields)
            line = _encode(record) + "\n"
        self._fh.write(line)
        self.emitted += 1

    def close(self) -> None:
        atexit.unregister(self._flush_at_exit)
        self.flush()
        if self._owns_fh and not self._fh.closed:
            self._fh.close()
        elif not self._owns_fh:
            self._fh.flush()
