"""The one fold of a JSONL trace that every trace command reads.

This is the read side of :class:`~repro.obs.tracer.JsonlTracer`.
:func:`summarize_trace` makes a single streaming pass over a trace and
keeps what ``trace-summary``, ``report``, ``compare`` and ``metrics``
render: per-category message/bit totals and per-node frequencies, and
per run the cluster/control windows, attribution ledger, fault
transitions, audits and residuals.  Sums that several commands print
are computed here once.

It reads all three trace schemas.  A ``links`` record (schema 2 on)
counts as its pairs — ``link_up`` per ``up`` pair and ``link_down`` per
``down`` pair, in the event counts of the trace and of its run — and a
schema-3 ``msgs`` record as one ``msg_tx`` per send, adding its columns
in send order; so the older per-pair and per-send records count the
same, and every command renders the same answer for any schema of a
run.  Only :attr:`TraceSummary.records`, which counts lines, tells them
apart.

The fold also checks that the traced sends *exactly* reproduce the
totals the run's :class:`~repro.sim.stats.MessageStats` reported.  A
trace that fails reconciliation means events were lost or
double-counted somewhere, which is precisely the regression this closed
loop exists to catch.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunSummary", "TraceSummary", "read_trace", "summarize_trace"]

logger = logging.getLogger(__name__)

#: Trace schema versions :func:`read_trace` accepts: schema 1 wrote one
#: ``link_up`` / ``link_down`` record per pair, schema 2 one ``links``
#: record per step, schema 3 one ``msgs`` record per run of sends where
#: the earlier two wrote one ``msg_tx`` record per send.
READ_SCHEMA_VERSIONS = (1, 2, 3)


@dataclass
class RunSummary:
    """Per-simulation aggregation of one trace."""

    sim: int
    messages: dict[str, int] = field(default_factory=dict)
    bits: dict[str, float] = field(default_factory=dict)
    n_nodes: int | None = None
    measured_time: float | None = None
    reported_totals: dict | None = None
    #: Per-event-type record counts for this run — the counts the
    #: cluster-dynamics report section reconciles its window sums
    #: against.
    events: dict[str, int] = field(default_factory=dict)
    #: ``cluster_window`` / ``control_window`` records, in trace order.
    cluster_windows: list[dict] = field(default_factory=list)
    control_windows: list[dict] = field(default_factory=list)
    #: The run's (last) ``attribution`` record: the overhead ledger.
    attribution: dict | None = None
    #: ``fault_inject`` / ``fault_clear`` records, in trace order.
    faults: list[dict] = field(default_factory=list)
    #: ``invariant_audit`` records, in trace order.
    audits: list[dict] = field(default_factory=list)
    #: ``category -> `` ``kind="window"`` / ``kind="final"`` residual
    #: records, in trace order (the last final is the run's verdict).
    residual_windows: dict[str, list[dict]] = field(default_factory=dict)
    residual_finals: dict[str, list[dict]] = field(default_factory=dict)

    def frequencies(self) -> dict[str, float] | None:
        """Per-node message frequencies, when run metadata is present."""
        if not self.n_nodes or not self.measured_time:
            return None
        scale = self.n_nodes * self.measured_time
        return {
            category: count / scale
            for category, count in sorted(self.messages.items())
        }

    def mismatches(self) -> list[str]:
        """Discrepancies between streamed events and reported totals."""
        if self.reported_totals is None:
            return []
        problems = []
        categories = set(self.reported_totals) | set(self.messages)
        for category in sorted(categories):
            reported = self.reported_totals.get(category, {})
            expected_messages = int(reported.get("messages", 0))
            expected_bits = float(reported.get("bits", 0.0))
            seen_messages = self.messages.get(category, 0)
            seen_bits = self.bits.get(category, 0.0)
            if seen_messages != expected_messages:
                problems.append(
                    f"sim {self.sim} {category}: traced {seen_messages} "
                    f"messages, run_end reported {expected_messages}"
                )
            if abs(seen_bits - expected_bits) > 1e-6 * max(1.0, expected_bits):
                problems.append(
                    f"sim {self.sim} {category}: traced {seen_bits:.6g} "
                    f"bits, run_end reported {expected_bits:.6g}"
                )
        return problems

    def dynamics_totals(self) -> dict[str, int]:
        """Head changes, reaffiliations and gateway churn over the windows."""
        windows = self.cluster_windows
        return {
            "head_changes": sum(int(w.get("head_changes", 0)) for w in windows),
            "reaffiliations": sum(
                int(w.get("reaffiliations", 0)) for w in windows
            ),
            "gateway_churn": sum(
                int(w.get("gateway_adds", 0)) + int(w.get("gateway_drops", 0))
                for w in windows
            ),
        }

    def control_totals(self) -> dict:
        """Beacon count, beacon-weighted mean interval, mean staleness."""
        windows = self.control_windows
        beacons = sum(int(w.get("beacons", 0)) for w in windows)
        interval_sum = sum(
            float(w.get("mean_interval", 0.0)) * int(w.get("beacons", 0))
            for w in windows
        )
        staleness = [float(w.get("staleness", 0.0)) for w in windows]
        return {
            "beacons": beacons,
            "mean_interval": interval_sum / beacons if beacons else None,
            "mean_staleness": (
                sum(staleness) / len(staleness) if staleness else None
            ),
        }

    def fault_counts(self) -> tuple[dict[tuple[str, str], int], float | None]:
        """``(kind, "inject"|"clear") -> `` count, and the loss rate.

        Crash and outage transitions are counted; the one ``kind="loss"``
        announcement contributes its ``rate`` instead.
        """
        counts: dict[tuple[str, str], int] = {}
        loss_rate = None
        for record in self.faults:
            kind = str(record.get("kind", "?"))
            if kind == "loss":
                loss_rate = float(record.get("rate", 0.0))
                continue
            verb = "inject" if record["event"] == "fault_inject" else "clear"
            counts[(kind, verb)] = counts.get((kind, verb), 0) + 1
        return counts, loss_rate

    def violation_spans(self) -> list[tuple[float, float]]:
        """``(start, end)`` intervals during which audits failed.

        A span opens at the first failed audit and closes at the next
        passing one, or at the last audit when none passes.
        """
        spans = []
        open_since = None
        for record in self.audits:
            time = float(record["t"])
            if not record.get("ok", True):
                if open_since is None:
                    open_since = time
            elif open_since is not None:
                spans.append((open_since, time))
                open_since = None
        if open_since is not None:
            spans.append((open_since, float(self.audits[-1]["t"])))
        return spans


@dataclass
class TraceSummary:
    """Aggregation of a whole trace file (possibly many runs)."""

    path: str
    records: int = 0
    event_counts: dict[str, int] = field(default_factory=dict)
    runs: dict[int, RunSummary] = field(default_factory=dict)
    first_time: float | None = None
    last_time: float | None = None
    #: ``resource_sample`` records, in trace order.
    resources: list[dict] = field(default_factory=list)
    #: Every ``run_end`` and ``attribution`` record, in trace order.  The
    #: OpenMetrics export sums repeated ones per sim, where each
    #: :class:`RunSummary` keeps only the last.
    run_records: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def messages(self) -> dict[str, int]:
        """Per-category message totals across every run."""
        totals: dict[str, int] = {}
        for run in self.runs.values():
            for category, count in run.messages.items():
                totals[category] = totals.get(category, 0) + count
        return totals

    @property
    def bits(self) -> dict[str, float]:
        """Per-category bit totals across every run."""
        totals: dict[str, float] = {}
        for run in self.runs.values():
            for category, count in run.bits.items():
                totals[category] = totals.get(category, 0.0) + count
        return totals

    @property
    def spans(self) -> dict[str, int]:
        """Span-layer totals: started / ended / links across the trace."""
        counts = self.event_counts
        return {
            "started": counts.get("span_start", 0),
            "ended": counts.get("span_end", 0),
            "links": counts.get("span_link", 0),
        }

    def phase_totals(self) -> dict[str, float]:
        """Per-phase wall-clock seconds summed over the resource samples."""
        totals: dict[str, float] = {}
        for sample in self.resources:
            for phase, seconds in (sample.get("phases") or {}).items():
                totals[phase] = totals.get(phase, 0.0) + float(seconds)
        return totals

    def residual_verdicts(self) -> dict[str, bool]:
        """``category -> `` whether every final residual verdict was OK."""
        verdicts: dict[str, bool] = {}
        for run in self.runs.values():
            for category, finals in run.residual_finals.items():
                for final in finals:
                    verdicts[category] = verdicts.get(category, True) and bool(
                        final.get("ok", True)
                    )
        return verdicts

    def mismatches(self) -> list[str]:
        """All reconciliation problems across runs (empty when clean)."""
        problems: list[str] = []
        for sim in sorted(self.runs):
            problems.extend(self.runs[sim].mismatches())
        return problems

    def reconciles(self) -> bool:
        """Whether every run's events reproduce its reported totals."""
        return not self.mismatches()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable view."""
        return {
            "path": self.path,
            "records": self.records,
            "events": dict(sorted(self.event_counts.items())),
            "time_span": [self.first_time, self.last_time],
            "spans": self.spans,
            "messages": dict(sorted(self.messages.items())),
            "bits": dict(sorted(self.bits.items())),
            "runs": [
                {
                    "sim": run.sim,
                    "n_nodes": run.n_nodes,
                    "measured_time": run.measured_time,
                    "messages": dict(sorted(run.messages.items())),
                    "bits": dict(sorted(run.bits.items())),
                    "frequencies": run.frequencies(),
                    "events": dict(sorted(run.events.items())),
                }
                for _, run in sorted(self.runs.items())
            ],
            "reconciles": self.reconciles(),
            "mismatches": self.mismatches(),
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"trace: {self.path}  ({self.records} records)"]
        if self.first_time is not None:
            lines.append(
                f"  time span: {self.first_time:.4g} .. {self.last_time:.4g}"
            )
        for event, count in sorted(self.event_counts.items()):
            lines.append(f"  {event:24s} {count:10d} events")
        spans = self.spans
        if any(spans.values()):
            lines.append(
                "spans: {started} started, {ended} ended, "
                "{links} causal links".format(**spans)
            )
        lines.append("per-category message totals:")
        bits = self.bits
        for category, count in sorted(self.messages.items()):
            lines.append(
                f"  {category:16s} {count:10d} msgs {bits[category]:14.4g} bits"
            )
        for sim, run in sorted(self.runs.items()):
            frequencies = run.frequencies()
            if frequencies is None:
                continue
            lines.append(
                f"sim {sim} (N={run.n_nodes}, T={run.measured_time:.4g}):"
            )
            for category, rate in frequencies.items():
                lines.append(f"  {category:16s} {rate:10.4g} msgs/node/t")
        problems = self.mismatches()
        if problems:
            lines.append("RECONCILIATION FAILED:")
            lines.extend(f"  {p}" for p in problems)
        elif any(
            run.reported_totals is not None for run in self.runs.values()
        ):
            lines.append(
                "reconciliation: traced sends match reported totals"
            )
        return "\n".join(lines)


def read_trace(path):
    """Yield every record of a JSONL trace, checking each envelope.

    The file is streamed line by line, so a pass holds one record at a
    time.  A record must be a JSON object with a supported ``schema``
    version (:data:`READ_SCHEMA_VERSIONS`) and a string ``event``;
    anything else raises ``ValueError`` naming the line.  A malformed
    *final* line in a trace with no trailing newline — the signature of
    a writer killed mid-record — is skipped with a warning rather than
    failing the whole read; a malformed line anywhere else (or one the
    writer did terminate, in a file that ends with a newline) still
    raises, because a trace that is corrupt in the middle cannot be
    trusted at all.
    """
    pending = None  # (line number, error) of an unparsable line
    terminated = True
    with Path(path).open(encoding="utf-8", newline="") as lines:
        for line_number, line in enumerate(lines, start=1):
            terminated = line.endswith("\n")
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                break
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                pending = (line_number, error)
                continue
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{line_number}: not a JSON object")
            version = record.get("schema")
            if version not in READ_SCHEMA_VERSIONS:
                supported = ", ".join(map(str, READ_SCHEMA_VERSIONS))
                raise ValueError(
                    f"{path}:{line_number}: unsupported trace schema "
                    f"version {version!r} (supported: {supported})"
                )
            if not isinstance(record.get("event"), str):
                raise ValueError(
                    f"{path}:{line_number}: record has no string 'event'"
                )
            yield record
        else:
            if pending is not None and not terminated:
                logger.warning(
                    "%s:%d: skipping truncated final record "
                    "(trace writer was interrupted mid-line)",
                    path,
                    pending[0],
                )
                return
    if pending is not None:
        line_number, error = pending
        raise ValueError(
            f"{path}:{line_number}: not valid JSON: {error}"
        ) from None


def _link_counts(path, record: dict) -> tuple[tuple[str, int], ...]:
    """The schema-1 event counts one ``links`` record stands for.

    Breaks first, as schema 1 wrote them, and only non-zero counts, so
    a first-seen event order and the count keys match that schema's.
    """
    counts = []
    for name, key in (("link_down", "down"), ("link_up", "up")):
        pairs = record.get(key, [])
        if not isinstance(pairs, list) or len(pairs) % 2:
            raise ValueError(
                f"{path}: 'links' record at t={record.get('t')!r} has a "
                f"malformed {key!r} list (want flat [u, v, ...] pairs)"
            )
        if pairs:
            counts.append((name, len(pairs) // 2))
    return tuple(counts)


def _sends(path, record: dict) -> list:
    """The ``(category, messages, bits)`` sends of one ``msgs`` record."""
    columns = [record.get(key) for key in ("category", "messages", "bits")]
    if not all(isinstance(column, list) for column in columns) or not (
        len(columns[0]) == len(columns[1]) == len(columns[2]) > 0
    ):
        raise ValueError(
            f"{path}: 'msgs' record at t={record.get('t')!r} needs equal-"
            "length, non-empty 'category', 'messages' and 'bits' lists"
        )
    return list(zip(*columns))


def summarize_trace(path) -> TraceSummary:
    """Fold a trace file into a :class:`TraceSummary` in one pass.

    Raises ``ValueError`` for a malformed trace (see :func:`read_trace`)
    and when the trace contains no records at all — an empty file is
    always a broken pipeline, never a healthy run.
    """
    summary = TraceSummary(path=str(path))
    for record in read_trace(path):
        summary.records += 1
        event = record["event"]
        if event == "links":
            counted = _link_counts(path, record)
        elif event == "msgs":
            sends = _sends(path, record)
            counted = (("msg_tx", len(sends)),)
        elif event == "msg_tx":
            category = record["category"]
            sends = ((category, record.get("messages", 1), record.get("bits", 0.0)),)
            counted = ((event, 1),)
        else:
            counted = ((event, 1),)
        for name, count in counted:
            summary.event_counts[name] = summary.event_counts.get(name, 0) + count
        if event == "resource_sample":
            # Wall-clock envelope and no owning run.
            summary.resources.append(record)
            continue
        if event.startswith("cache_"):
            continue  # runless; counted above only
        time = record.get("t")
        if time is not None:
            if summary.first_time is None:
                summary.first_time = time
            summary.last_time = time
        sim = int(record.get("sim", 0))
        run = summary.runs.get(sim)
        if run is None:
            run = summary.runs[sim] = RunSummary(sim=sim)
        for name, count in counted:
            run.events[name] = run.events.get(name, 0) + count
        if event in ("msgs", "msg_tx"):
            for category, messages, bits in sends:
                run.messages[category] = run.messages.get(category, 0) + int(
                    messages
                )
                run.bits[category] = run.bits.get(category, 0.0) + float(bits)
        elif event == "run_begin":
            run.n_nodes = int(record["n_nodes"])
        elif event == "run_end":
            run.measured_time = float(record["measured_time"])
            run.reported_totals = record.get("totals")
            summary.run_records.append(record)
        elif event == "attribution":
            run.attribution = record
            summary.run_records.append(record)
        elif event == "cluster_window":
            run.cluster_windows.append(record)
        elif event == "control_window":
            run.control_windows.append(record)
        elif event == "invariant_audit":
            run.audits.append(record)
        elif event == "residual":
            residuals = (
                run.residual_finals
                if record.get("kind") == "final"
                else run.residual_windows
            )
            category = str(record.get("category", "?"))
            residuals.setdefault(category, []).append(record)
        elif event in ("fault_inject", "fault_clear"):
            run.faults.append(record)
    if summary.records == 0:
        raise ValueError(f"{path}: empty trace (no records)")
    return summary
