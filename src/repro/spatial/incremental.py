"""Incremental temporal-coherence connectivity engine.

With ``recommended_step`` bounding per-step displacement to a few
percent of the transmission range, almost no links change between
consecutive steps — yet the batch edge engine re-tests every candidate
cell pair each step.  This module exploits that temporal coherence
while staying *exact*: every step returns the bit-identical sorted
edge set (and :class:`~repro.spatial.neighbors.LinkEvents`) that a full
rebuild would produce.  Tests enforce the equivalence property.

The scheme is an expanded-radius candidate cache whose per-pair work
follows the pairs near the range boundary:

* A **full validation** finds every pair within the candidate radius
  ``r_cand = tx_range + margin`` with the batch pair sweep
  :func:`~repro.spatial.neighbors.pairs_within`, which returns them
  key-sorted with their bit-exact distances.  Each candidate gets its
  edge status ``d0 <= r`` and a recheck budget ``due = |d0 - r| - eps``;
  every node's odometer resets to 0.
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
* A float-safety slack ``eps`` shrinks every budget so borderline
  classifications always take the recompute path, where the distance
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
correctly), and :meth:`IncrementalConnectivityEngine.invalidate` lets
the simulation force a validation on external events such as
``fail_node``/``recover_node``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .neighbors import (
    INCREMENTAL_MARGIN_FRACTION,
    LinkEvents,
    _pair_distances,
    pairs_within,
)
from .region import SquareRegion

__all__ = [
    "IncrementalConnectivityEngine",
    "IncrementalStepResult",
]


@dataclass(frozen=True)
class IncrementalStepResult:
    """Outcome of one engine step.

    ``edges`` is the canonical sorted ``(E, 2)`` edge set.  ``events``
    carries the link changes since the previous step when the
    incremental path produced them, and is ``None`` on validation steps
    (the caller diffs edge sets itself there).  ``at_risk`` is the
    number of candidate pairs whose distance this step recomputed.
    ``revalidate_seconds`` is the time spent on the odometers and on
    classifying and recomputing pairs, kept separate so the simulation
    can charge it to a dedicated sub-phase.
    """

    edges: np.ndarray
    events: LinkEvents | None
    rebuilt: bool
    at_risk: int
    revalidate_seconds: float


class IncrementalConnectivityEngine:
    """Exact connectivity tracking that carries state across steps.

    Parameters
    ----------
    region:
        Square region whose metric (torus or Euclidean) governs
        distances.
    tx_range:
        Unit-disk transmission range.
    margin_fraction:
        Candidate radius is ``(1 + margin_fraction) * tx_range``.  A
        larger margin buys more steps between full validations at the
        cost of a bigger candidate set per step.
    """

    def __init__(
        self,
        region: SquareRegion,
        tx_range: float,
        margin_fraction: float = INCREMENTAL_MARGIN_FRACTION,
    ) -> None:
        if tx_range <= 0.0:
            raise ValueError(f"tx_range must be positive, got {tx_range}")
        if margin_fraction <= 0.0:
            raise ValueError(
                f"margin_fraction must be positive, got {margin_fraction}"
            )
        self.region = region
        self.tx_range = float(tx_range)
        self.margin = margin_fraction * self.tx_range
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
        self._cand: np.ndarray | None = None
        self._ci: np.ndarray | None = None
        self._cj: np.ndarray | None = None
        self._ci_counts: np.ndarray | None = None
        self._ci_bounds: list[int] | None = None
        self._cj_order: np.ndarray | None = None
        self._cj_bounds: list[int] | None = None
        self._due: np.ndarray | None = None
        self._mask: np.ndarray | None = None
        self._pending = True
        # Grown-on-demand scratch (keyed by role) so steady-state steps
        # allocate almost nothing.
        self._buffers: dict[str, np.ndarray] = {}
        self.full_rebuilds = 0
        self.incremental_steps = 0
        self.last_at_risk = 0
        self.at_risk_total = 0

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Force a full validation on the next :meth:`step`.

        Called by the simulation on external events (``fail_node``,
        ``recover_node``) so the engine never reasons across a state
        change it cannot see in the positions.
        """
        self._pending = True

    def _scratch(self, name: str, size: int, dtype) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size or buf.dtype != np.dtype(dtype):
            buf = np.empty(size + (size >> 2) + 16, dtype=dtype)
            self._buffers[name] = buf
        return buf[:size]

    def _validate(self, pos: np.ndarray) -> np.ndarray:
        """Full candidate sweep at the expanded radius; reseeds all state."""
        n = len(pos)
        ci, cj, dist = pairs_within(self.region, pos, self._r_cand)
        self._ci = ci
        self._cj = cj
        # ci ascends, so gathering per-node values over ci is a repeat.
        self._ci_counts = np.bincount(ci, minlength=n)
        # Pair index (module docstring).  Row pointers are Python ints:
        # neighbors() reads two of each per call.  Argsorting the
        # smallest unsigned type that holds every id gives the same
        # stable order, and numpy radix-sorts keys of up to 16 bits.
        self._ci_bounds = [0, *np.cumsum(self._ci_counts).tolist()]
        self._cj_order = np.argsort(
            cj.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable"
        )
        self._cj_bounds = [
            0, *np.cumsum(np.bincount(cj, minlength=n)).tolist()
        ]
        self._cand = np.column_stack((ci, cj))
        self._mask = dist <= self.tx_range
        dist -= self.tx_range
        self._due = np.abs(dist, out=dist)
        self._due -= self._eps
        # The mobility model mutates its position buffer in place, so
        # the snapshots must be owned copies.
        self._ref = pos.copy()
        self._prev = pos.copy()
        self._odo = np.zeros(n)
        self._pending = False
        self.full_rebuilds += 1
        self.last_at_risk = 0
        return self._cand[self._mask]

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
            self._pending
            or self._ref is None
            or len(pos) != len(self._ref)
            or self._needs_validation(self.region.distance(self._ref, pos))
        )
        if rebuild:
            edges = self._validate(pos)
            return IncrementalStepResult(
                edges=edges,
                events=None,
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
        flipped = up != self._mask.take(risk_idx)
        self._mask[risk_idx] = up
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
        generated = self._cand[flip_idx[up]]
        broken = self._cand[flip_idx[~up]]
        edges = self._cand.compress(self._mask, axis=0)
        self.incremental_steps += 1
        self.last_at_risk = int(risk_idx.size)
        self.at_risk_total += self.last_at_risk
        return IncrementalStepResult(
            edges=edges,
            events=LinkEvents(generated=generated, broken=broken),
            rebuilt=False,
            at_risk=self.last_at_risk,
            revalidate_seconds=perf_counter() - started,
        )
