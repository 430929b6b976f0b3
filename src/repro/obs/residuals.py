"""Online comparison of measured message rates against the analytic bounds.

The paper's Section 4 validation loop — simulate, measure the three
per-node control message frequencies, check them against the closed
form — is automated here as a streaming monitor.  Attached as an
ordinary protocol, :class:`ResidualMonitor` splits the measurement
window into fixed simulated-time windows; at each window boundary it
compares the window's measured per-node rate for every monitored
category against the closed-form *lower bound* evaluated for the run's
:class:`~repro.core.params.NetworkParameters` (and, for CLUSTER/ROUTE,
the window's mean *measured* cluster-head ratio — exactly the paper's
"P is measured in real time" methodology), then emits one ``residual``
trace event per category::

    {"event": "residual", "t": 8.0, "sim": 0, "kind": "window",
     "category": "hello", "window_start": 6.0, "elapsed": 2.0,
     "measured": 3.81, "bound": 3.52, "residual": 0.29,
     "head_ratio": 0.21, "rtol": 0.05, "ok": true}

A measured rate *below* the lower bound (beyond ``rtol`` slack) flags
either a measurement-window bug or a model-regime mismatch — the two
failure modes the paper's own validation loop exists to catch.  At run
end a ``kind="final"`` record per category carries the whole-run
verdict (aggregate measured rate vs the time-weighted mean bound);
:mod:`repro.obs.report` renders both into the residual tables.
"""

from __future__ import annotations

from ..core.overhead import cluster_frequency, hello_frequency, route_frequency
from ..protocol import Protocol

__all__ = ["MONITORED_CATEGORIES", "ResidualMonitor"]

#: Categories the closed-form model provides lower bounds for.
MONITORED_CATEGORIES = ("hello", "cluster", "route")


class ResidualMonitor(Protocol):
    """Protocol streaming measured-vs-bound residuals into the trace.

    Parameters
    ----------
    params:
        The run's network parameters; the bounds are evaluated for
        these.
    maintenance:
        The cluster maintenance protocol, supplying the live measured
        head ratio ``P``.  Required when monitoring ``cluster`` or
        ``route`` (their bounds are functions of ``P``); ``None``
        restricts monitoring to ``hello``.
    categories:
        Subset of :data:`MONITORED_CATEGORIES` to monitor.
    window:
        Simulated-time width of one measurement window.
    rtol:
        Relative slack below the bound tolerated before flagging.
    convention:
        Counting convention forwarded to the closed-form model.
    """

    name = "residual-monitor"

    def __init__(
        self,
        params,
        maintenance=None,
        categories=MONITORED_CATEGORIES,
        window: float = 2.0,
        rtol: float = 0.15,
        convention: str = "consistent",
    ) -> None:
        if window <= 0.0:
            raise ValueError(f"window must be positive, got {window}")
        if rtol < 0.0:
            raise ValueError(f"rtol must be non-negative, got {rtol}")
        categories = tuple(categories)
        unknown = set(categories) - set(MONITORED_CATEGORIES)
        if unknown:
            raise ValueError(
                f"no analytic bound for categories {sorted(unknown)}; "
                f"monitorable: {MONITORED_CATEGORIES}"
            )
        if maintenance is None and set(categories) - {"hello"}:
            raise ValueError(
                "cluster/route bounds need the measured head ratio; "
                "pass the maintenance protocol or monitor 'hello' only"
            )
        self.params = params
        self.maintenance = maintenance
        self.categories = categories
        self.window = window
        self.rtol = rtol
        self.convention = convention
        #: Per-category count of windows completed / windows flagged.
        self.windows: dict[str, int] = {c: 0 for c in categories}
        self.window_violations: dict[str, int] = {c: 0 for c in categories}
        #: Per-category whole-run verdict (populated at run end).
        self.final_verdict: dict[str, dict] = {}
        # Aggregates for the final verdict: message counts and the
        # time-integral of the bound across completed windows.
        self._total_messages: dict[str, int] = {c: 0 for c in categories}
        self._bound_integral: dict[str, float] = {c: 0.0 for c in categories}
        self._total_elapsed = 0.0
        self._window_open = False
        self._window_start = 0.0
        self._start_counts: dict[str, int] = {}
        self._ratio_sum = 0.0
        self._ratio_samples = 0

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def on_step_end(self, sim, time: float) -> None:
        stats = sim.stats
        if not stats.measuring:
            # Warm-up (or between runs): no open window.
            if self._window_open:
                self._close_window(sim, time)
            return
        if not self._window_open:
            self._open_window(stats, time)
            return
        if self.maintenance is not None:
            self._ratio_sum += self.maintenance.head_ratio()
            self._ratio_samples += 1
        if time - self._window_start + 1e-12 >= self.window:
            self._close_window(sim, time)
            self._open_window(stats, time)

    def on_run_end(self, sim, time: float) -> None:
        if self._window_open:
            self._close_window(sim, time)
        self._emit_final(sim, time)

    # ------------------------------------------------------------------
    def _open_window(self, stats, time: float) -> None:
        self._window_open = True
        self._window_start = time
        self._start_counts = {
            category: stats.message_count(category)
            for category in self.categories
        }
        self._ratio_sum = 0.0
        self._ratio_samples = 0

    def _mean_head_ratio(self) -> float | None:
        if self.maintenance is None:
            return None
        if self._ratio_samples == 0:
            return self.maintenance.head_ratio()
        return self._ratio_sum / self._ratio_samples

    def _bound(self, category: str, head_ratio: float | None) -> float:
        if category == "hello":
            return hello_frequency(self.params)
        if category == "cluster":
            return cluster_frequency(self.params, head_ratio, self.convention)
        return route_frequency(self.params, head_ratio, self.convention)

    def _close_window(self, sim, time: float) -> None:
        self._window_open = False
        elapsed = time - self._window_start
        if elapsed <= 1e-12:
            return
        stats = sim.stats
        head_ratio = self._mean_head_ratio()
        self._total_elapsed += elapsed
        scale = self.params.n_nodes * elapsed
        for category in self.categories:
            delta = stats.message_count(category) - self._start_counts.get(
                category, 0
            )
            measured = delta / scale
            bound = self._bound(category, head_ratio)
            ok = measured >= bound * (1.0 - self.rtol)
            self.windows[category] += 1
            if not ok:
                self.window_violations[category] += 1
            self._total_messages[category] += delta
            self._bound_integral[category] += bound * elapsed
            if sim.tracer.enabled:
                record = {
                    "sim": sim.sim_id,
                    "kind": "window",
                    "category": category,
                    "window_start": self._window_start,
                    "elapsed": elapsed,
                    "measured": measured,
                    "bound": bound,
                    "residual": measured - bound,
                    "rtol": self.rtol,
                    "ok": ok,
                }
                if head_ratio is not None:
                    record["head_ratio"] = head_ratio
                sim.tracer.emit("residual", time, **record)

    def _emit_final(self, sim, time: float) -> None:
        """Whole-run verdict: aggregate rate vs time-weighted mean bound."""
        if self._total_elapsed <= 0.0:
            return
        for category in self.categories:
            measured = self._total_messages[category] / (
                self.params.n_nodes * self._total_elapsed
            )
            bound = self._bound_integral[category] / self._total_elapsed
            ok = measured >= bound * (1.0 - self.rtol)
            self.final_verdict[category] = {
                "measured": measured,
                "bound": bound,
                "residual": measured - bound,
                "windows": self.windows[category],
                "window_violations": self.window_violations[category],
                "ok": ok,
            }
            if sim.tracer.enabled:
                sim.tracer.emit(
                    "residual",
                    time,
                    sim=sim.sim_id,
                    kind="final",
                    category=category,
                    elapsed=self._total_elapsed,
                    measured=measured,
                    bound=bound,
                    residual=measured - bound,
                    rtol=self.rtol,
                    ok=ok,
                )

    @property
    def ok(self) -> bool:
        """Whether every final verdict so far holds the bound."""
        return all(v["ok"] for v in self.final_verdict.values())
