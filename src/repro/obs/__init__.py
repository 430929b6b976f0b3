"""Observability subsystem: metrics, tracing, timing and logging.

The simulation stack is instrumented through three orthogonal,
individually optional channels:

* **metrics** (:mod:`repro.obs.metrics`) — labelled counters, gauges
  and histograms in a :class:`MetricsRegistry`; backs
  :class:`~repro.sim.stats.MessageStats` and the CLI's
  ``--metrics-json`` export;
* **tracing** (:mod:`repro.obs.tracer`) — schema-versioned structured
  events (steps, link churn, cluster role changes, message
  transmissions) written as JSON Lines; the no-op
  :data:`NULL_TRACER` is the default, so untraced runs pay nothing;
* **timing** (:mod:`repro.obs.timing`) — per-phase wall-clock
  accumulation (mobility / adjacency / link diff / each protocol hook)
  reported by :meth:`~repro.sim.engine.Simulation.timing_report`.

Configuration flows either explicitly (constructor arguments) or via
the ambient context (:func:`observe`), which is how the CLI turns on
telemetry for whole experiments without touching their signatures.
:func:`summarize_trace` closes the loop: one streaming pass folds a
trace back into the per-category totals and rates that
:class:`MessageStats` reported, plus every per-run series the trace
commands show.  ``trace-summary``, ``report`` (:mod:`~repro.obs.report`),
``compare`` (:mod:`~repro.obs.compare`) and ``metrics``
(:mod:`~repro.obs.openmetrics`) all render from that one
:class:`TraceSummary`; only the ``timeline`` export streams
:func:`read_trace` itself, slice by slice.

On top of the three channels sits the **run-health layer**
(:mod:`~repro.obs.audit`, :mod:`~repro.obs.residuals`,
:mod:`~repro.obs.resources`, :mod:`~repro.obs.report`): a streaming
P1/P2 invariant auditor, an online measured-vs-analytic-bound residual
monitor, a background RSS/CPU sampler, and a Markdown report renderer
over the resulting trace events — wired into simulations through
:func:`attach_run_health` and a :class:`RunHealthConfig` carried by the
ambient context (the CLI's ``--audit`` flag).

The **span layer** (:mod:`~repro.obs.spans`) adds causal structure to
the trace: a hierarchy of run → phase → step → handler spans with
``span_link`` edges from cluster-maintenance repairs to the message
bursts they trigger.  :mod:`~repro.obs.timeline` exports the result as
Chrome/Perfetto trace-event JSON, and :mod:`~repro.obs.compare` diffs
two traces — overhead rates, cluster-dynamics rates, residual verdicts
— behind the ``repro-manet compare`` gate.

The **attribution layer** (:mod:`~repro.obs.attribution`) tags every
control message with a root cause at its send site and accumulates
per-cause / per-node / per-cluster ledgers plus a spatial heatmap that
reconcile with :class:`~repro.sim.stats.MessageStats` by construction;
:mod:`~repro.obs.openmetrics` exports the metrics registry — including
the attribution counters — in OpenMetrics text format
(``repro-manet metrics`` and ``--metrics-openmetrics``).
"""

from .attribution import KNOWN_CAUSES, OverheadLedger, attach_attribution
from .audit import AuditError, InvariantAuditor
from .compare import TraceComparison, TraceDigest, compare_traces
from .context import ObsContext, RunHealthConfig, current, observe
from .health import attach_run_health
from .log import PROGRESS_LOGGER, configure_logging, progress
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .openmetrics import (
    registry_from_trace,
    render_openmetrics,
    write_openmetrics,
)
from .report import HealthReport, build_report
from .residuals import MONITORED_CATEGORIES, ResidualMonitor
from .resources import ResourceSampler, current_rss_kb
from .spans import SpanTracker, next_span_id
from .summary import RunSummary, TraceSummary, read_trace, summarize_trace
from .timeline import build_timeline, write_timeline
from .timing import PhaseTimer, PhaseTiming, TimingReport
from .tracer import (
    NULL_TRACER,
    TRACE_EVENTS,
    TRACE_SCHEMA_VERSION,
    CollectingTracer,
    JsonlTracer,
    NullTracer,
    Tracer,
)

__all__ = [
    "ObsContext",
    "RunHealthConfig",
    "current",
    "observe",
    "AuditError",
    "InvariantAuditor",
    "KNOWN_CAUSES",
    "OverheadLedger",
    "attach_attribution",
    "registry_from_trace",
    "render_openmetrics",
    "write_openmetrics",
    "MONITORED_CATEGORIES",
    "ResidualMonitor",
    "ResourceSampler",
    "current_rss_kb",
    "attach_run_health",
    "HealthReport",
    "build_report",
    "PROGRESS_LOGGER",
    "configure_logging",
    "progress",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunSummary",
    "TraceSummary",
    "read_trace",
    "summarize_trace",
    "SpanTracker",
    "next_span_id",
    "TraceComparison",
    "TraceDigest",
    "compare_traces",
    "build_timeline",
    "write_timeline",
    "PhaseTimer",
    "PhaseTiming",
    "TimingReport",
    "NULL_TRACER",
    "TRACE_EVENTS",
    "TRACE_SCHEMA_VERSION",
    "CollectingTracer",
    "JsonlTracer",
    "NullTracer",
    "Tracer",
]
