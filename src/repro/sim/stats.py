"""Control-message accounting for simulations.

The paper's evaluation counts three categories of control messages —
HELLO, CLUSTER and ROUTE — and reports *per-node frequencies* (messages
per node per unit time, Figures 1–3) and *overheads* (bits per node per
unit time).  :class:`MessageStats` is the single accounting point every
protocol records into; it supports a warm-up barrier so transient
cluster-formation traffic is excluded, exactly as the paper excludes the
initial cluster formation stage.

Storage is backed by a :class:`~repro.obs.metrics.MetricsRegistry`:
each category owns a ``messages_total`` and a ``bits_total`` counter
(labelled ``category=...`` plus any instance labels), so the same
numbers are available both through the legacy accessor API below and
through a shared registry export (``repro-manet ... --metrics-json``).
Reading an unrecorded category returns zero without creating counters —
a typo'd query can no longer pollute :meth:`frequencies` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import Counter, MetricsRegistry

__all__ = ["MessageStats", "CategoryTotals", "RateSeries"]


@dataclass
class CategoryTotals:
    """Message count and bit total for one message category."""

    messages: int = 0
    bits: float = 0.0


class MessageStats:
    """Per-category message counters over a measurement window.

    Parameters
    ----------
    n_nodes:
        Number of nodes, for per-node normalization.
    registry:
        Metrics registry backing the counters.  Defaults to a private
        registry; pass a shared one (with distinguishing ``labels``)
        to aggregate several runs into one export.
    labels:
        Extra labels stamped on every counter this instance creates
        (e.g. ``{"sim": "3"}`` when sharing a registry across runs).
    """

    def __init__(
        self,
        n_nodes: int,
        registry: MetricsRegistry | None = None,
        labels: dict[str, str] | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = n_nodes
        self.registry = MetricsRegistry() if registry is None else registry
        self.labels = dict(labels) if labels else {}
        self.measured_time = 0.0
        self._measuring = False
        self._categories: dict[str, tuple[Counter, Counter]] = {}
        #: Optional ``(category, messages, bits, cause, node, nodes,
        #: cluster)`` callback fired for every record inside the
        #: measurement window, with the arguments :meth:`record` got.
        #: The simulation uses it to mirror records into a trace as
        #: runs of sends (``msgs``), guaranteeing trace/stats reconciliation;
        #: the overhead-attribution ledger reads the last four.
        self.on_record = None

    # ------------------------------------------------------------------
    # Measurement window control
    # ------------------------------------------------------------------
    def start_measuring(self) -> None:
        """Open the measurement window (end of warm-up)."""
        self._measuring = True

    def stop_measuring(self) -> None:
        """Close the measurement window."""
        self._measuring = False

    @property
    def measuring(self) -> bool:
        """Whether records are currently being counted."""
        return self._measuring

    def advance_time(self, dt: float) -> None:
        """Accumulate measured wall-clock (simulated) time."""
        if dt < 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        if self._measuring:
            self.measured_time += dt

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _counters(self, category: str) -> tuple[Counter, Counter]:
        pair = self._categories.get(category)
        if pair is None:
            pair = (
                self.registry.counter(
                    "messages_total", category=category, **self.labels
                ),
                self.registry.counter(
                    "bits_total", category=category, **self.labels
                ),
            )
            self._categories[category] = pair
        return pair

    def record(
        self,
        category: str,
        messages: int = 1,
        bits: float = 0.0,
        *,
        cause: str | None = None,
        node: int | None = None,
        nodes=None,
        cluster: int | None = None,
    ) -> None:
        """Record ``messages`` transmissions totalling ``bits`` bits.

        ``cause``, ``node``, ``nodes`` and ``cluster`` say why and by
        whom the messages were sent; only :attr:`on_record` reads them
        (see :class:`~repro.obs.attribution.OverheadLedger`).  Records
        outside the measurement window are dropped (warm-up).
        """
        if messages < 0 or bits < 0.0:
            raise ValueError("message and bit counts must be non-negative")
        if not self._measuring:
            return
        message_counter, bit_counter = self._counters(category)
        message_counter.value += messages
        bit_counter.value += bits
        if self.on_record is not None:
            self.on_record(category, messages, bits, cause, node, nodes, cluster)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def totals(self) -> dict[str, CategoryTotals]:
        """Snapshot of every recorded category's totals."""
        return {
            category: CategoryTotals(
                int(message_counter.value), float(bit_counter.value)
            )
            for category, (message_counter, bit_counter) in (
                self._categories.items()
            )
        }

    def message_count(self, category: str) -> int:
        """Total messages recorded in ``category`` (0 when never seen)."""
        pair = self._categories.get(category)
        return 0 if pair is None else int(pair[0].value)

    def bit_count(self, category: str) -> float:
        """Total bits recorded in ``category`` (0 when never seen)."""
        pair = self._categories.get(category)
        return 0.0 if pair is None else float(pair[1].value)

    def per_node_frequency(self, category: str) -> float:
        """Messages per node per unit time — the paper's ``f_*`` metrics."""
        if self.measured_time <= 0.0:
            raise ValueError("no measured time accumulated yet")
        return self.message_count(category) / (self.n_nodes * self.measured_time)

    def per_node_overhead(self, category: str) -> float:
        """Bits per node per unit time — the paper's ``O_*`` metrics."""
        if self.measured_time <= 0.0:
            raise ValueError("no measured time accumulated yet")
        return self.bit_count(category) / (self.n_nodes * self.measured_time)

    def frequencies(self) -> dict[str, float]:
        """Per-node frequencies of all recorded categories."""
        return {
            category: self.per_node_frequency(category)
            for category in sorted(self._categories)
        }

    def overheads(self) -> dict[str, float]:
        """Per-node overheads of all recorded categories."""
        return {
            category: self.per_node_overhead(category)
            for category in sorted(self._categories)
        }

    def total_overhead(self) -> float:
        """Summed per-node overhead across every category."""
        return sum(self.overheads().values())


@dataclass
class RateSeries:
    """Windowed per-node message-rate time series for one category.

    Attach to a simulation loop by calling :meth:`sample` once per step
    (or less often); each completed window of ``window`` simulated time
    yields one rate sample.  Used to observe convergence/steady-state
    of control traffic instead of a single end-of-run average.
    """

    stats: MessageStats
    category: str
    window: float
    times: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    _window_start_time: float = 0.0
    _window_start_count: int = 0
    _started: bool = False

    def __post_init__(self) -> None:
        if self.window <= 0.0:
            raise ValueError(f"window must be positive, got {self.window}")

    def sample(self, time: float) -> None:
        """Record a sample boundary if a full window has elapsed."""
        if not self._started:
            self._window_start_time = time
            self._window_start_count = self.stats.message_count(self.category)
            self._started = True
            return
        elapsed = time - self._window_start_time
        if elapsed + 1e-12 < self.window:
            return
        count = self.stats.message_count(self.category)
        rate = (count - self._window_start_count) / (
            self.stats.n_nodes * elapsed
        )
        self.times.append(time)
        self.rates.append(rate)
        self._window_start_time = time
        self._window_start_count = count

    def steady_state_rate(self, skip_fraction: float = 0.25) -> float:
        """Mean rate after discarding the first ``skip_fraction`` windows."""
        if not self.rates:
            raise ValueError("no completed windows yet")
        skip = int(len(self.rates) * skip_fraction)
        tail = self.rates[skip:] or self.rates
        return float(sum(tail) / len(tail))
