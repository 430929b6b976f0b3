"""Markdown run-health reports from JSONL traces.

``repro-manet report`` renders one or more trace files into a single
Markdown document with four diagnostic sections per trace:

* **reconciliation** — the per-category message/bit totals of the
  traced sends and the verdict of the events-vs-``run_end`` closed
  loop;
* **overhead attribution** — the run-end ``attribution`` ledger: a
  per-cause breakdown of every message category (whose totals equal the
  reconciliation section's, by construction), top-K hotspot nodes and
  clusters, and an ASCII spatial heatmap of where overhead was spent;
* **cluster dynamics** — per-run totals of the ``cluster_window`` time
  series (head changes, reaffiliations, gateway churn, mean cluster
  count/tenure/diameter), reconciled against the trace's own
  ``head_change`` / ``cluster_reaffiliation`` / ``gateway_change``
  event counts;
* **invariant timeline** — audits, violations and violation spans from
  the ``invariant_audit`` stream;
* **analytic residuals** — per-category window statistics (quantiles
  via :meth:`~repro.obs.metrics.Histogram.summary`) and the final
  measured-vs-bound verdicts from the ``residual`` stream;
* **resources** — RSS/CPU aggregates and per-phase wall-clock totals
  from the ``resource_sample`` stream;
* **result store** — cache hit/miss/write counts and the task hit rate
  from the ``cache_hit`` / ``cache_miss`` / ``cache_write`` stream of
  a ``--store`` run (see :mod:`repro.store`).

Every section renders from the trace's
:class:`~repro.obs.summary.TraceSummary` — the one fold that
``trace-summary``, ``compare`` and ``metrics`` read too, so the
commands agree by construction.  :meth:`HealthReport.healthy` folds it
all into one boolean — the exit code of the CLI command — and
:meth:`HealthReport.problems` lists what went wrong in one line each.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import Histogram
from .summary import RunSummary, TraceSummary, summarize_trace

__all__ = ["HealthReport", "build_report"]


def _fmt(value, precision: str = ".4g") -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, precision)
    return str(value)


def _table(headers: list[str], rows: list[list]) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return lines


def _dynamics_mismatches(run: RunSummary) -> list[str]:
    """Window sums that fail to reproduce the run's event counts.

    The collector computes window deltas from counters incremented at
    the exact emission points of ``head_change`` /
    ``cluster_reaffiliation`` / ``gateway_change``, so any difference
    means records were lost — the cluster-dynamics analogue of the
    traced-sends reconciliation loop.
    """
    found: list[str] = []
    totals = run.dynamics_totals()
    for window_field, event in (
        ("head_changes", "head_change"),
        ("reaffiliations", "cluster_reaffiliation"),
    ):
        counted = run.events.get(event, 0)
        if totals[window_field] != counted:
            found.append(
                f"sim {run.sim}: cluster_window {window_field} sum to "
                f"{totals[window_field]}, trace has {counted} {event} events"
            )
    counted = run.events.get("gateway_change", 0)
    if totals["gateway_churn"] != counted:
        found.append(
            f"sim {run.sim}: cluster_window gateway churn sums to "
            f"{totals['gateway_churn']}, trace has {counted} gateway_change "
            "events"
        )
    return found


def _attribution_mismatches(run: RunSummary) -> list[str]:
    """Ledger totals that fail to reproduce the traced sends.

    The ledger chains into the same ``MessageStats.on_record`` hook that
    feeds the trace's sends, so the two views must agree
    message-for-message; any difference means a send site bypassed the
    hook (or a trace lost records).
    """
    found: list[str] = []
    record = run.attribution
    if not record.get("reconciled", True):
        found.append(
            f"sim {run.sim}: overhead attribution failed to reconcile "
            f"with the run's message totals"
        )
    totals = record.get("totals", {})
    for category in sorted(set(totals) | set(run.messages)):
        ledger = int(totals.get(category, {}).get("messages", 0))
        streamed = int(run.messages.get(category, 0))
        if ledger != streamed:
            found.append(
                f"sim {run.sim} {category}: attribution ledger has "
                f"{ledger} messages, traced sends have {streamed}"
            )
    return found


def _runs(summary: TraceSummary, attribute: str) -> list[RunSummary]:
    """Runs whose ``attribute`` is non-empty, in sim order."""
    return [
        run for _, run in sorted(summary.runs.items()) if getattr(run, attribute)
    ]


def _problems(summary: TraceSummary) -> list[str]:
    """Everything unhealthy about one trace, one line each."""
    path = summary.path
    found = [f"{path}: {m}" for m in summary.mismatches()]
    for run in _runs(summary, "cluster_windows"):
        found.extend(f"{path}: {m}" for m in _dynamics_mismatches(run))
    for run in _runs(summary, "attribution"):
        found.extend(f"{path}: {m}" for m in _attribution_mismatches(run))
    for run in _runs(summary, "audits"):
        violations = sum(1 for a in run.audits if not a.get("ok", True))
        if violations:
            found.append(
                f"{path}: sim {run.sim} failed {violations} of "
                f"{len(run.audits)} invariant audits"
            )
    for _, run in sorted(summary.runs.items()):
        for category, finals in sorted(run.residual_finals.items()):
            final = finals[-1]
            if not final.get("ok", True):
                found.append(
                    f"{path}: sim {run.sim} {category} rate "
                    f"{final['measured']:.4g} below analytic bound "
                    f"{final['bound']:.4g}"
                )
    return found


@dataclass
class HealthReport:
    """A rendered-on-demand run-health report over one or more traces."""

    traces: list[TraceSummary]

    def problems(self) -> list[str]:
        """All problems across traces (empty when healthy)."""
        found: list[str] = []
        for summary in self.traces:
            found.extend(_problems(summary))
        return found

    @property
    def healthy(self) -> bool:
        """Reconciliation holds, no audit violations, bounds respected."""
        return not self.problems()

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The full Markdown document."""
        from ..sim.engine import ENGINE_SCHEMA_VERSION

        lines = [
            "# Run-health report",
            "",
            f"Engine schema version: {ENGINE_SCHEMA_VERSION}",
            "",
        ]
        problems = self.problems()
        if problems:
            lines.append("**Verdict: UNHEALTHY**")
            lines.append("")
            lines.extend(f"- {p}" for p in problems)
        else:
            lines.append("**Verdict: HEALTHY** — trace reconciles, "
                         "invariants hold, measured rates respect the "
                         "analytic bounds.")
        lines.append("")
        for summary in self.traces:
            lines.extend(self._render_trace(summary))
        return "\n".join(lines).rstrip() + "\n"

    # ------------------------------------------------------------------
    def _render_trace(self, summary: TraceSummary) -> list[str]:
        lines = [f"## Trace `{summary.path}`", ""]
        lines.append(f"- records: {summary.records}")
        if summary.first_time is not None:
            lines.append(
                f"- simulated time span: {summary.first_time:.4g} .. "
                f"{summary.last_time:.4g}"
            )
        lines.append(
            "- events: "
            + ", ".join(
                f"{event} x{count}"
                for event, count in sorted(summary.event_counts.items())
            )
        )
        lines.append("")
        lines.extend(self._render_totals(summary))
        lines.extend(self._render_attribution(summary))
        lines.extend(self._render_dynamics(summary))
        lines.extend(self._render_control(summary))
        lines.extend(self._render_faults(summary))
        lines.extend(self._render_audits(summary))
        lines.extend(self._render_residuals(summary))
        lines.extend(self._render_resources(summary))
        lines.extend(self._render_cache(summary))
        return lines

    def _render_faults(self, summary: TraceSummary) -> list[str]:
        """The "Fault injection" section (omitted for unfaulted runs)."""
        runs = _runs(summary, "faults")
        if not runs:
            return []
        lines = ["### Fault injection", ""]
        for run in runs:
            counts, loss_rate = run.fault_counts()
            parts = []
            for (kind, verb), count in sorted(counts.items()):
                label = {
                    ("crash", "inject"): "crashes",
                    ("crash", "clear"): "recoveries",
                    ("outage", "inject"): "outage entries",
                    ("outage", "clear"): "outage exits",
                }.get((kind, verb), f"{kind} {verb}s")
                parts.append(f"{count} {label}")
            if loss_rate is not None:
                parts.append(f"Bernoulli loss rate {loss_rate:g}")
            lines.append(f"- sim {run.sim}: " + ", ".join(parts))
            rows = [
                [
                    record["t"],
                    "inject" if record["event"] == "fault_inject" else "clear",
                    record.get("kind", "?"),
                    record.get("node", "-"),
                ]
                for record in run.faults
                if record.get("kind") != "loss"
            ]
            if rows:
                lines.append("")
                lines.extend(_table(["t", "transition", "kind", "node"], rows))
        lines.append("")
        return lines

    def _render_totals(self, summary: TraceSummary) -> list[str]:
        lines = ["### Message totals and reconciliation", ""]
        bits = summary.bits
        rows = [
            [category, count, bits[category]]
            for category, count in sorted(summary.messages.items())
        ]
        if rows:
            lines.extend(_table(["category", "messages", "bits"], rows))
        else:
            lines.append("No traced sends in this trace.")
        lines.append("")
        mismatches = summary.mismatches()
        if mismatches:
            lines.append("**Reconciliation FAILED:**")
            lines.extend(f"- {m}" for m in mismatches)
        elif any(
            run.reported_totals is not None for run in summary.runs.values()
        ):
            lines.append(
                "Reconciliation: traced sends match the "
                "`run_end` reported totals exactly."
            )
        else:
            lines.append(
                "Reconciliation: no `run_end` totals present to check "
                "against."
            )
        lines.append("")
        per_run_rows = []
        for sim, run in sorted(summary.runs.items()):
            frequencies = run.frequencies()
            if frequencies is None:
                continue
            for category, rate in frequencies.items():
                per_run_rows.append([sim, run.n_nodes, category, rate])
        if per_run_rows:
            lines.append("Per-run measured rates (msgs/node/time):")
            lines.append("")
            lines.extend(
                _table(["sim", "N", "category", "rate"], per_run_rows)
            )
            lines.append("")
        return lines

    def _render_attribution(self, summary: TraceSummary) -> list[str]:
        lines = ["### Overhead attribution", ""]
        runs = _runs(summary, "attribution")
        if not runs:
            lines.append(
                "No `attribution` events — run with `--trace` to collect "
                "the overhead ledger."
            )
            lines.append("")
            return lines
        # Cause breakdown: per (sim, category) rows whose per-category
        # totals are the ledger's own `totals` — the exact counters the
        # reconciliation check pins to the traced sends, so this table
        # sums to the "Message totals" section by construction.
        rows = []
        for run in runs:
            sim, record = run.sim, run.attribution
            causes = record.get("causes", {})
            for category in sorted(causes):
                breakdown = causes[category]
                category_total = sum(
                    tally["messages"] for tally in breakdown.values()
                )
                for cause in sorted(breakdown):
                    tally = breakdown[cause]
                    share = (
                        tally["messages"] / category_total
                        if category_total
                        else 0.0
                    )
                    rows.append(
                        [
                            sim,
                            category,
                            cause,
                            tally["messages"],
                            tally["bits"],
                            f"{share:.1%}",
                        ]
                    )
                totals = record.get("totals", {}).get(category, {})
                rows.append(
                    [
                        sim,
                        category,
                        "**total**",
                        totals.get("messages", category_total),
                        totals.get("bits"),
                        "100.0%",
                    ]
                )
        lines.extend(
            _table(
                ["sim", "category", "cause", "messages", "bits", "share"],
                rows,
            )
        )
        lines.append("")
        lines.extend(self._render_hotspots(runs))
        lines.extend(self._render_heatmap(runs))
        mismatches = [m for run in runs for m in _attribution_mismatches(run)]
        if mismatches:
            lines.append("**Attribution reconciliation FAILED:**")
            lines.extend(f"- {m}" for m in mismatches)
        else:
            lines.append(
                "Reconciliation: the ledger's per-cause totals match the "
                "run's `MessageStats` counters (and the traced sends) "
                "exactly."
            )
        lines.append("")
        return lines

    def _render_hotspots(self, runs: list[RunSummary]) -> list[str]:
        lines: list[str] = []
        for kind, key in (("nodes", "node"), ("clusters", "cluster")):
            rows = []
            for run in runs:
                tallies = run.attribution.get(kind, {})
                top = sorted(
                    tallies.items(),
                    key=lambda item: (-item[1]["messages"], int(item[0])),
                )[:5]
                for name, tally in top:
                    rows.append(
                        [run.sim, int(name), tally["messages"], tally["bits"]]
                    )
            if rows:
                lines.append(f"Top overhead {kind} (by attributed messages):")
                lines.append("")
                lines.extend(
                    _table(["sim", key, "messages", "bits"], rows)
                )
                lines.append("")
        return lines

    def _render_heatmap(self, runs: list[RunSummary]) -> list[str]:
        lines: list[str] = []
        shades = " .:-=+*#%@"
        for run in runs:
            heatmap = run.attribution.get("heatmap") or {}
            grid = heatmap.get("messages") or []
            peak = max((max(row) for row in grid if row), default=0)
            if not peak:
                continue
            lines.append(
                f"Spatial heatmap, sim {run.sim} "
                f"({heatmap.get('bins')}x{heatmap.get('bins')} cells over "
                f"side {_fmt(heatmap.get('side'))}; peak "
                f"{_fmt(float(peak))} messages/cell):"
            )
            lines.append("")
            lines.append("```")
            for row in grid:
                lines.append(
                    "".join(
                        shades[
                            min(
                                len(shades) - 1,
                                int(value / peak * (len(shades) - 1)),
                            )
                        ]
                        * 2
                        for value in row
                    )
                )
            lines.append("```")
            lines.append("")
        return lines

    def _render_dynamics(self, summary: TraceSummary) -> list[str]:
        lines = ["### Cluster dynamics", ""]
        runs = _runs(summary, "cluster_windows")
        if not runs:
            lines.append(
                "No `cluster_window` events — run with `--trace` and an "
                "attached maintenance protocol to collect the series."
            )
            lines.append("")
            return lines
        import statistics

        rows = []
        for run in runs:
            windows = run.cluster_windows
            totals = run.dynamics_totals()
            clusters = [int(w.get("clusters", 0)) for w in windows]
            rows.append(
                [
                    run.sim,
                    len(windows),
                    totals["head_changes"],
                    totals["reaffiliations"],
                    totals["gateway_churn"],
                    statistics.mean(clusters) if clusters else None,
                    windows[-1].get("mean_head_tenure"),
                    windows[-1].get("mean_diameter"),
                ]
            )
        lines.extend(
            _table(
                [
                    "sim",
                    "windows",
                    "head changes",
                    "reaffiliations",
                    "gateway churn",
                    "mean clusters",
                    "head tenure",
                    "mean diameter",
                ],
                rows,
            )
        )
        lines.append("")
        mismatches = [m for run in runs for m in _dynamics_mismatches(run)]
        if mismatches:
            lines.append("**Cluster-dynamics reconciliation FAILED:**")
            lines.extend(f"- {m}" for m in mismatches)
        else:
            lines.append(
                "Reconciliation: window sums match the trace's "
                "`head_change` / `cluster_reaffiliation` / "
                "`gateway_change` event counts exactly."
            )
        lines.append("")
        return lines

    def _render_control(self, summary: TraceSummary) -> list[str]:
        lines = ["### Adaptive beaconing", ""]
        runs = _runs(summary, "control_windows")
        if not runs:
            lines.append(
                "No `control_window` events — run without an adaptive "
                "beacon policy (or untraced)."
            )
            lines.append("")
            return lines
        rows = []
        for run in runs:
            windows = run.control_windows
            totals = run.control_totals()
            active = [w for w in windows if int(w.get("beacons", 0))]
            rows.append(
                [
                    run.sim,
                    windows[0].get("policy", "?"),
                    len(windows),
                    totals["beacons"],
                    totals["mean_interval"],
                    min(
                        (float(w["min_interval"]) for w in active),
                        default=None,
                    ),
                    max(
                        (float(w["max_interval"]) for w in active),
                        default=None,
                    ),
                    totals["mean_staleness"],
                    sum(float(w.get("mean_rate", 0.0)) for w in windows)
                    / len(windows),
                ]
            )
        lines.extend(
            _table(
                [
                    "sim",
                    "policy",
                    "windows",
                    "beacons",
                    "mean interval",
                    "min interval",
                    "max interval",
                    "mean staleness",
                    "mean churn rate",
                ],
                rows,
            )
        )
        lines.append("")
        lines.append(
            "Staleness is the mean per-node neighbor-table error count "
            "sampled at each control-window close; churn rate is the "
            "windowed per-node link-change rate the policies acted on."
        )
        lines.append("")
        return lines

    def _render_audits(self, summary: TraceSummary) -> list[str]:
        lines = ["### Invariant audits (P1/P2)", ""]
        runs = _runs(summary, "audits")
        if not runs:
            lines.append(
                "No `invariant_audit` events — run without `--audit`."
            )
            lines.append("")
            return lines
        rows = []
        spans = {run.sim: run.violation_spans() for run in runs}
        for run in runs:
            violations = sum(1 for a in run.audits if not a.get("ok", True))
            rows.append(
                [
                    run.sim,
                    len(run.audits),
                    violations,
                    sum(end - start for start, end in spans[run.sim]),
                    "OK" if violations == 0 else "VIOLATED",
                ]
            )
        lines.extend(
            _table(
                ["sim", "audits", "violations", "violation time", "status"],
                rows,
            )
        )
        lines.append("")
        for sim, intervals in spans.items():
            for start, end in intervals:
                lines.append(
                    f"- sim {sim}: invariants violated from t={start:.4g} "
                    f"to t={end:.4g}"
                )
        if any(spans.values()):
            lines.append("")
        return lines

    def _render_residuals(self, summary: TraceSummary) -> list[str]:
        lines = ["### Analytic residuals (measured vs lower bound)", ""]
        keys = [
            (run, category)
            for _, run in sorted(summary.runs.items())
            for category in sorted(
                set(run.residual_windows) | set(run.residual_finals)
            )
        ]
        if not keys:
            lines.append("No `residual` events — run without `--audit`.")
            lines.append("")
            return lines
        rows = []
        for run, category in keys:
            windows = run.residual_windows.get(category, [])
            finals = run.residual_finals.get(category)
            final = finals[-1] if finals else None
            histogram = _window_histogram(windows, final)
            stats = histogram.summary()
            flagged = sum(1 for w in windows if not w.get("ok", True))
            rows.append(
                [
                    run.sim,
                    category,
                    len(windows),
                    flagged,
                    stats["min"],
                    stats["p50"],
                    final["measured"] if final else None,
                    final["bound"] if final else None,
                    final["residual"] if final else None,
                    ("OK" if final.get("ok") else "BELOW BOUND")
                    if final
                    else "-",
                ]
            )
        lines.extend(
            _table(
                [
                    "sim",
                    "category",
                    "windows",
                    "flagged",
                    "min rate",
                    "p50 rate",
                    "final rate",
                    "bound",
                    "residual",
                    "verdict",
                ],
                rows,
            )
        )
        lines.append("")
        lines.append(
            "A final rate below the bound flags a measurement-window bug "
            "or a model-regime mismatch; single flagged windows are "
            "ordinary burstiness."
        )
        lines.append("")
        return lines

    def _render_resources(self, summary: TraceSummary) -> list[str]:
        lines = ["### Resources", ""]
        samples = summary.resources
        if not samples:
            lines.append(
                "No `resource_sample` events — run without "
                "`--sample-resources`."
            )
            lines.append("")
            return lines
        # Samples from platforms without an RSS source carry rss_kb
        # null (see repro.obs.resources) — report what remains.
        rss_values = [
            float(s["rss_kb"])
            for s in samples
            if s.get("rss_kb") is not None
        ]
        utils = [float(s.get("cpu_util", 0.0)) for s in samples[1:]] or [
            float(s.get("cpu_util", 0.0)) for s in samples
        ]
        lines.append(
            f"- samples: {len(samples)} over "
            f"{samples[-1].get('wall_s', 0.0):.4g}s wall-clock"
        )
        if rss_values:
            rss = Histogram("rss", bounds=_rss_buckets(rss_values))
            for value in rss_values:
                rss.observe(value)
            stats = rss.summary()
            lines.append(
                f"- RSS (KiB): min {stats['min']:.4g}, "
                f"p50 {stats['p50']:.4g}, max {stats['max']:.4g}"
            )
        else:
            lines.append("- RSS: unavailable on this platform")
        lines.append(
            f"- CPU utilisation: mean {sum(utils) / len(utils):.2f} cores"
        )
        phase_totals = summary.phase_totals()
        if phase_totals:
            total = sum(phase_totals.values())
            lines.append("")
            lines.extend(
                _table(
                    ["phase", "seconds", "share"],
                    [
                        [phase, seconds, f"{seconds / total:.1%}"]
                        for phase, seconds in sorted(
                            phase_totals.items(), key=lambda kv: -kv[1]
                        )
                    ],
                )
            )
        lines.append("")
        return lines

    def _render_cache(self, summary: TraceSummary) -> list[str]:
        hits, misses, writes = (
            summary.event_counts.get(event, 0)
            for event in ("cache_hit", "cache_miss", "cache_write")
        )
        if not (hits or misses or writes):
            # Degrade to an explicit note rather than silently omitting
            # the section (or printing a meaningless 0/0 rate).
            return [
                "### Result store",
                "",
                "No `cache_*` events — run without `--store`, or the "
                "store was never consulted.",
                "",
            ]
        lines = ["### Result store", ""]
        rate_text = (
            f"{hits / (hits + misses):.1%}" if hits + misses else "n/a"
        )
        lines.append(
            f"- tasks: {hits} hit(s), {misses} miss(es) "
            f"({rate_text} hit rate), {writes} record(s) written"
        )
        lines.append("")
        return lines


def _window_histogram(windows: list[dict], final: dict | None) -> Histogram:
    """Histogram of per-window measured rates, bucketed around the bound."""
    bound = None
    if final is not None:
        bound = float(final.get("bound", 0.0))
    elif windows:
        bound = float(windows[-1].get("bound", 0.0))
    if not bound or bound <= 0.0:
        bound = 1.0
    buckets = tuple(
        bound * factor for factor in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)
    )
    histogram = Histogram("residual_rate", bounds=buckets)
    for window in windows:
        histogram.observe(float(window.get("measured", 0.0)))
    return histogram


def _rss_buckets(rss_values: list[float]) -> tuple[float, ...]:
    peak = max(rss_values) or 1.0
    return tuple(peak * f for f in (0.25, 0.5, 0.75, 0.9, 1.0))


def build_report(paths) -> HealthReport:
    """Fold one or more trace files into a :class:`HealthReport`."""
    return HealthReport(traces=[summarize_trace(path) for path in paths])
