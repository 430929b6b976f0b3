"""Incremental temporal-coherence connectivity engine.

With ``recommended_step`` bounding per-step displacement to a few
percent of the transmission range, almost no links change between
consecutive steps, so re-sweeping every pair each step repeats nearly
all of its work.  This module exploits that temporal coherence while
staying *exact*: every step returns the bit-identical sorted edge set
(and :class:`~repro.spatial.neighbors.LinkEvents`) that a full
:func:`~repro.spatial.neighbors.compute_edges` would produce.  It is
the only per-step connectivity path of
:class:`~repro.sim.engine.Simulation`.  Tests enforce the equivalence
property against the dense metric.

The scheme is an expanded-radius candidate cache whose per-pair work
follows the pairs near the range boundary:

* A **full validation** finds every pair within the candidate radius
  ``r_cand = tx_range + margin`` with the batch pair sweep
  :func:`~repro.spatial.neighbors.pairs_within`, which returns them
  key-sorted with their bit-exact distances.  Each candidate gets its
  edge status ``d0 <= r`` and a recheck budget ``due = |d0 - r| - eps``;
  every node's odometer resets to 0.
* A validation also returns the exact **link events** since the
  previous step, without diffing two edge sets.  The previous edge set
  is exactly the pairs with ``d_prev <= r``, measured at the previous
  positions.  No separation changed by more than ``2 * s`` in one
  step, ``s`` the largest step displacement, so a candidate whose
  ``|d0 - r|`` exceeds ``2 * s + eps`` kept its status; only the
  candidates in that shell are measured at the previous positions.
  Every previous edge is still a candidate exactly when the candidates
  with a previous status of "up" are as many as the previous edges.
  When they are fewer (a teleport or a reset moved a node past the
  margin), the missing previous edges are looked up by key: they left
  the candidate radius, so they are broken links too.
* Each **incremental step** adds every node's step displacement (under
  the region metric) to its odometer.  A pair ``(i, j)`` is recomputed
  only once ``odo[i] + odo[j] >= due``.  Proof sketch: if the pair was
  last measured at distance ``d`` when the odometers summed to ``s``,
  the triangle inequality bounds the change of its separation since
  then by the path length both nodes travelled, ``odo[i] + odo[j] - s``;
  while that stays below ``|d - r|`` the pair cannot have crossed the
  range, so its status is unchanged.  A recompute measures ``d`` anew
  and sets ``due = odo[i] + odo[j] + |d - r| - eps``, restarting the
  argument from that step.  Link events are the status flips among the
  recomputed pairs: every other pair provably kept its status.
* Pairs outside the candidate set are covered globally: no pair
  separation can shrink by more than the two largest displacements
  since the validation, so while their sum stays below ``margin`` no
  non-candidate can have entered range — once it no longer does, the
  engine falls back to a full validation.
* A float-safety slack ``eps`` shrinks every budget, and widens the
  validation's shell, so borderline classifications always take the
  recompute path, where the distance
  is evaluated bit-identically to the batch engine (see below), so the
  resulting edge status can never disagree with a full rebuild.  The
  slack is far above the ulp-scale error the odometer sums accumulate.

The odometers are per node, not one global clock: a global clock would
charge every pair with the motion of the two fastest nodes, so pairs of
slow or paused nodes would be rechecked needlessly under random
waypoint with pauses or Gauss-Markov motion.

Every distance, in a validation and in a recompute, comes from
:func:`~repro.spatial.neighbors._pair_distances`, bit-equal to
``region.distance`` and thus to the batch engine.

The candidates are kept as the two key-sorted columns the sweep
returns, with one edge-status mask.  A step's link events are gathered
from the columns at the flipped pairs, and its
:class:`IncrementalStepResult` builds the ``(E, 2)`` edge set only when
something reads it: most steps' callers read the events alone.  Each
incremental step updates a copy of the mask, so a result owns the mask
it was returned with and still gives its own step's edges when read
after later steps.

The candidates double as a **pair index** for point neighbor queries.
Each validation also keeps the forward row pointer of the key-sorted
pairs (node ``x``'s pairs ``(x, j)`` are one contiguous slice) and a
stable transpose order of ``cj`` with its row pointer (the pairs
``(i, x)``, ``i`` still ascending).
:meth:`IncrementalConnectivityEngine.neighbors` masks both slices with
the live edge status, so one node's row costs ``O(candidate degree)``
and no step has to sort the whole edge set to answer it.

Teleports, mobility resets, and any other large jump are caught by the
same displacement test (the region metric bounds the torus shortcut
correctly).  The state depends on positions alone: failed radios are
masked out of the edge set by the simulation, outside the engine, so a
fault transition needs no validation.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .neighbors import LinkEvents, _pair_distances, edge_keys, pairs_within
from .region import SquareRegion

__all__ = [
    "INCREMENTAL_MARGIN_FRACTION",
    "IncrementalConnectivityEngine",
    "IncrementalStepResult",
]

#: Candidate-cache margin of the engine, as a fraction of ``tx_range``:
#: candidates are cached out to ``(1 + fraction) * tx_range``.  It
#: decides only when the engine re-sweeps, never what a step returns.
#: Cost model at the recommended step, where the two fastest nodes close
#: in by ~5 % of r per step: a fraction m keeps K(m) ∝ (1 + m)²
#: candidates and validates every S(m) ≈ m / 0.05 steps, so a step costs
#: about A·K + B·K / S.  On the bare engine at N=2000 (r = 0.1a,
#: v = 0.05a, epoch RWP, 400 steps, 2-vCPU x86-64 VM) an incremental
#: step costs A ≈ 13-17 ns and a validation B ≈ 95-100 ns per
#: candidate, so the mean step is cheapest near m = 0.3, and the p95
#: step, a validation, falls with K: 141 k candidates at 0.5, 132 k at
#: 0.45, 123 k at 0.4.  Below 0.4 too few incremental steps run between
#: validations under non-uniform motion (at 0.35 group motion runs
#: fewer than three per validation, which the engine's long-run lockstep
#: test requires).  perfbench, 10 s runs alternating 0.4 / 0.45 / 0.5
#: over seeds 901-905, medians: paper-stack ``step_ms_p95`` 15.1 /
#: 16.2 / 16.2 ms and ``steps_per_s`` 127.5 / 125.1 / 126.7; jsonl-trace
#: ``step_ms_p95`` 10.4 / 10.4 / 12.0 ms (``step_ms_p50`` 6.88 / 6.87 /
#: 6.76); data-plane and sweep within their run-to-run spread.
INCREMENTAL_MARGIN_FRACTION = 0.4


class _Candidates:
    """One validation's key-sorted candidate pairs, as two columns.

    Event pairs are gathered from them by :meth:`at`, edge sets by
    :meth:`masked`.  The latter reads the ``(K, 2)`` pair array, made
    from the columns on first use and kept until the next validation: a
    run that never reads an edge set never builds it, and one that reads
    every step's pays one masked gather of 16-byte rows per read, not an
    interleave of two compressed columns (about twice the time).
    """

    __slots__ = ("ci", "cj", "_pairs")

    def __init__(self, ci: np.ndarray, cj: np.ndarray) -> None:
        self.ci = ci
        self.cj = cj
        self._pairs: np.ndarray | None = None

    def at(self, idx: np.ndarray) -> np.ndarray:
        """The ``(len(idx), 2)`` candidate pairs at the indices ``idx``."""
        return np.column_stack((self.ci.take(idx), self.cj.take(idx)))

    def masked(self, mask: np.ndarray) -> np.ndarray:
        """The ``(count_nonzero(mask), 2)`` candidate pairs where ``mask`` holds."""
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = np.column_stack((self.ci, self.cj))
        return pairs.compress(mask, axis=0)


class IncrementalStepResult:
    """Outcome of one engine step.

    ``edges`` is the canonical sorted ``(E, 2)`` edge set, built from
    the step's candidate columns and edge status on first read and then
    kept, so a step whose edges nobody reads never builds them.  The
    result owns its status mask (the engine never writes to it again),
    so ``edges`` stays the edge set of *this* step when read after
    later steps.  ``events`` carries the exact link changes since the
    previous step, on incremental and validation steps alike; it is
    ``None`` only on the engine's first step and when the node count
    changed, where there is no previous step of the same nodes to
    compare.  ``at_risk`` is the number of candidate pairs whose
    distance this step recomputed.  ``revalidate_seconds`` is the time
    spent on the odometers and on classifying and recomputing pairs,
    kept separate so the simulation can charge it to a dedicated
    sub-phase.
    """

    __slots__ = (
        "events", "rebuilt", "at_risk", "revalidate_seconds",
        "_candidates", "_mask", "_edges",
    )

    def __init__(
        self,
        candidates: _Candidates,
        mask: np.ndarray,
        events: LinkEvents | None,
        rebuilt: bool,
        at_risk: int,
        revalidate_seconds: float,
    ) -> None:
        self._candidates = candidates
        self._mask = mask
        self._edges: np.ndarray | None = None
        self.events = events
        self.rebuilt = rebuilt
        self.at_risk = at_risk
        self.revalidate_seconds = revalidate_seconds

    @property
    def edges(self) -> np.ndarray:
        edges = self._edges
        if edges is None:
            edges = self._edges = self._candidates.masked(self._mask)
        return edges


class IncrementalConnectivityEngine:
    """Exact connectivity tracking that carries state across steps.

    Parameters
    ----------
    region:
        Square region whose metric (torus or Euclidean) governs
        distances.
    tx_range:
        Unit-disk transmission range.  Candidates are cached out to
        ``(1 + INCREMENTAL_MARGIN_FRACTION) * tx_range``.
    """

    def __init__(self, region: SquareRegion, tx_range: float) -> None:
        if tx_range <= 0.0:
            raise ValueError(f"tx_range must be positive, got {tx_range}")
        self.region = region
        self.tx_range = float(tx_range)
        self.margin = INCREMENTAL_MARGIN_FRACTION * self.tx_range
        self._r_cand = self.tx_range + self.margin
        # Slack subtracted from every recheck budget: borderline pairs
        # fall through to the recompute path, whose result is bit-exact
        # against the batch engine, so float rounding can never flip a
        # "safe" classification.  Way above the ~ulp-scale error the
        # odometer sums can accumulate, way below any physical
        # displacement.
        self._eps = 1e-9 * self.tx_range
        self._ref: np.ndarray | None = None
        self._prev: np.ndarray | None = None
        self._odo: np.ndarray | None = None
        self._candidates: _Candidates | None = None
        self._ci: np.ndarray | None = None
        self._cj: np.ndarray | None = None
        self._ci_counts: np.ndarray | None = None
        self._ci_bounds: list[int] | None = None
        self._cj_order: np.ndarray | None = None
        self._cj_bounds: list[int] | None = None
        self._due: np.ndarray | None = None
        self._mask: np.ndarray | None = None
        # Grown-on-demand scratch (keyed by role) so steady-state steps
        # allocate almost nothing.
        self._buffers: dict[str, np.ndarray] = {}
        self.full_rebuilds = 0
        self.incremental_steps = 0
        self.last_at_risk = 0
        self.at_risk_total = 0

    # ------------------------------------------------------------------
    def _scratch(self, name: str, size: int, dtype) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size or buf.dtype != np.dtype(dtype):
            buf = np.empty(size + (size >> 2) + 16, dtype=dtype)
            self._buffers[name] = buf
        return buf[:size]

    def _validate(self, pos: np.ndarray) -> LinkEvents | None:
        """Full candidate sweep at the expanded radius; reseeds all state.

        Returns, when the engine holds a previous step of as many
        nodes, the exact link events since that step.
        """
        n = len(pos)
        ci, cj, dist = pairs_within(self.region, pos, self._r_cand)
        up = dist <= self.tx_range
        dist -= self.tx_range
        gap = np.abs(dist, out=dist)
        events = None
        if self._prev is not None and len(self._prev) == n:
            events = self._validation_events(pos, ci, cj, up, gap)
        self._candidates = _Candidates(ci, cj)
        self._ci = ci
        self._cj = cj
        # Pair index (module docstring).  ci ascends, so its row
        # pointer is a binary search, and gathering per-node values
        # over ci is a repeat.  Row pointers are Python ints:
        # neighbors() reads two of each per call.  Argsorting the
        # smallest unsigned type that holds every id gives the same
        # stable order, and numpy radix-sorts keys of up to 16 bits.
        ci_bounds = np.searchsorted(ci, np.arange(n + 1))
        self._ci_counts = ci_bounds[1:] - ci_bounds[:-1]
        self._ci_bounds = ci_bounds.tolist()
        self._cj_order = np.argsort(
            cj.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable"
        )
        self._cj_bounds = [
            0, *np.cumsum(np.bincount(cj, minlength=n)).tolist()
        ]
        self._mask = up
        gap -= self._eps
        self._due = gap
        # The mobility model mutates its position buffer in place, so
        # the snapshots must be owned copies.
        self._ref = pos.copy()
        self._prev = pos.copy()
        self._odo = np.zeros(n)
        self.full_rebuilds += 1
        self.last_at_risk = 0
        return events

    def _validation_events(
        self,
        pos: np.ndarray,
        ci: np.ndarray,
        cj: np.ndarray,
        up: np.ndarray,
        gap: np.ndarray,
    ) -> LinkEvents:
        """Exact link events from the previous step to a fresh sweep.

        ``ci`` / ``cj`` are the new candidates, ``up`` their edge
        status and ``gap`` their ``|d - r|`` (module docstring).  The
        engine still holds the previous step's candidates and status.
        """
        region, r = self.region, self.tx_range
        prev = self._prev
        moved = region.distance(prev, pos)
        reach = 2.0 * float(moved.max()) if moved.size else 0.0
        shell = (gap <= reach + self._eps).nonzero()[0]
        si, sj = ci.take(shell), cj.take(shell)
        was = _pair_distances(region, prev, si, sj) <= r
        now = up.take(shell)
        gained = now > was
        lost = was > now
        generated = np.column_stack((si.compress(gained), sj.compress(gained)))
        broken = np.column_stack((si.compress(lost), sj.compress(lost)))
        n_edges = np.count_nonzero(up)
        if n_edges - len(generated) + len(broken) != np.count_nonzero(self._mask):
            old = self._candidates.masked(self._mask)
            gone = ~np.isin(
                edge_keys(old),
                edge_keys(np.column_stack((ci, cj))),
                assume_unique=True,
            )
            broken = np.concatenate((broken, old.compress(gone, axis=0)))
            broken = broken.take(np.argsort(edge_keys(broken)), axis=0)
        return LinkEvents(generated=generated, broken=broken)

    def neighbors(self, node: int) -> np.ndarray:
        """Ascending neighbors of ``node`` in the last step's edge set.

        Equal, dtype included, to row ``node`` of
        :func:`~repro.spatial.edges_to_csr` of that edge set: the
        transpose slice gives the neighbors below ``node``, the forward
        slice those above it.  A fresh array, so the next step's in-place
        mask updates never reach it.
        """
        mask = self._mask
        bounds = self._cj_bounds
        below = self._cj_order[bounds[node] : bounds[node + 1]]
        start, stop = self._ci_bounds[node], self._ci_bounds[node + 1]
        return np.concatenate((
            self._ci.take(below)[mask.take(below)],
            self._cj[start:stop][mask[start:stop]],
        ))

    def _needs_validation(self, disp: np.ndarray) -> bool:
        if disp.shape[0] < 2:
            return False
        # No pair separation can change by more than the sum of the two
        # largest displacements; once that reaches the margin a
        # non-candidate pair could have entered range.
        top2 = np.partition(disp, disp.shape[0] - 2)[-2:]
        return float(top2[0] + top2[1]) + self._eps >= self.margin

    def step(self, positions: np.ndarray) -> IncrementalStepResult:
        """Advance to ``positions`` and return the exact edge set."""
        pos = np.asarray(positions, dtype=float)
        rebuild = (
            self._ref is None
            or len(pos) != len(self._ref)
            or self._needs_validation(self.region.distance(self._ref, pos))
        )
        if rebuild:
            events = self._validate(pos)
            return IncrementalStepResult(
                self._candidates,
                self._mask,
                events=events,
                rebuilt=True,
                at_risk=0,
                revalidate_seconds=0.0,
            )
        started = perf_counter()
        odo = self._odo
        odo += self.region.distance(self._prev, pos)
        np.copyto(self._prev, pos)
        k = len(self._ci)
        spent = np.repeat(odo, self._ci_counts)
        spent_j = self._scratch("spent_j", k, float)
        np.take(odo, self._cj, out=spent_j)
        spent += spent_j
        at_risk = self._scratch("at_risk", k, bool)
        np.greater_equal(spent, self._due, out=at_risk)
        risk_idx = np.flatnonzero(at_risk)
        d_now = _pair_distances(
            self.region, pos, self._ci.take(risk_idx), self._cj.take(risk_idx)
        )
        up = d_now <= self.tx_range
        # The last result owns the current mask: update a copy.
        mask = self._mask = self._mask.copy()
        flipped = up != mask.take(risk_idx)
        mask[risk_idx] = up
        # Fresh budget from this step: due = odo[i] + odo[j] + |d - r| - eps.
        d_now -= self.tx_range
        np.abs(d_now, out=d_now)
        d_now += spent.take(risk_idx)
        d_now -= self._eps
        self._due[risk_idx] = d_now
        # Candidates are stored in canonical sorted order and risk_idx
        # ascends, so the flips are already sorted edge arrays — the
        # events are bit-identical to diff_edge_sets on the snapshots.
        flip_idx = risk_idx[flipped]
        up = up[flipped]
        generated = self._candidates.at(flip_idx[up])
        broken = self._candidates.at(flip_idx[~up])
        self.incremental_steps += 1
        self.last_at_risk = int(risk_idx.size)
        self.at_risk_total += self.last_at_risk
        return IncrementalStepResult(
            self._candidates,
            mask,
            events=LinkEvents(generated=generated, broken=broken),
            rebuilt=False,
            at_risk=self.last_at_risk,
            revalidate_seconds=perf_counter() - started,
        )
