"""Parallel execution of independent simulation tasks.

Sweeps and experiments are embarrassingly parallel at the seed level:
every run is a pure function of its task tuple (parameters + seed), so
runs can be farmed out to worker processes without changing any result.
:func:`run_tasks` is the single entry point — experiments build a list
of task tuples, point it at a module-level worker function, and get
results back *in task order* regardless of worker scheduling, so a
``jobs=1`` and a ``jobs=8`` run aggregate bitwise-identical numbers.

Telemetry still has to close end-to-end (the PR-1 reconciliation
invariant): a worker process cannot write into the parent's JSONL
tracer, shared metrics registry or phase timer, so each worker captures
its own telemetry locally and ships it back with the result.  A worker
captures only what the parent keeps: a phase timer always, an in-memory
tracer only when the parent traces, and a private metrics registry only
when the parent has one.  The worker's context replaces whatever it
inherited, so it attaches an attribution ledger exactly when a serial
run would.  The parent then merges: trace records are replayed
into the ambient tracer with simulation ids — and span ids, through
the global span counter of :mod:`repro.obs.spans` — remapped through
the parent's id counters (so concurrent workers never collide), registry
instruments are folded in under the same remapping, and phase timings
are added to the shared timer.  ``repro-manet trace-summary`` on a
traced parallel run therefore reconciles exactly as a serial run does.
The overhead-attribution ledger rides the same path for free: its
run-end ``attribution`` event carries a ``sim`` field and its
``overhead_*_total`` counters a ``sim`` label, both remapped by the
merge, so ``--jobs N`` attribution output is byte-identical to serial.

Determinism: tasks carry explicit seeds and workers derive *all*
randomness from them, so scheduling cannot leak into results.  The only
parallel/serial difference is telemetry interleaving (merged per task,
in task order) — never the task results themselves.

Because every task is such a pure function, its result can be memoized:
when a :class:`~repro.store.disk.ResultStore` is active (passed
explicitly or ambient via :func:`repro.store.use_store`), each task is
fingerprinted (:mod:`repro.store.fingerprint`) and the store is
consulted *before* simulating — hits return the stored result, misses
run and write their record back (in ``--jobs > 1`` runs the *workers*
write, as soon as each task finishes, so an interrupted sweep resumes
from every completed task; the parent only merges telemetry).  Cache
outcomes surface as ``cache_hit`` / ``cache_miss`` / ``cache_write``
counters in the ambient metrics registry and as trace events of the
same names (emitted off the simulated clock, at ``t=0``).  Tasks whose
payload cannot be fingerprinted (for example one carrying an open RNG)
are silently run uncached — the store can never break a run.
"""

from __future__ import annotations

import atexit
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any, Callable, Iterable, Sequence

from ..obs import context as obs_context
from ..obs.metrics import MetricsRegistry
from ..obs.timing import PhaseTimer
from ..obs.tracer import NULL_TRACER, CollectingTracer
from ..store import MISS, FingerprintError, fingerprint, task_identity
from ..store import context as store_context

__all__ = ["TaskTelemetry", "resolve_jobs", "run_tasks", "task_chunk_size"]

logger = logging.getLogger(__name__)


@dataclass
class TaskTelemetry:
    """Telemetry captured by one worker task, to be merged by the parent."""

    #: Trace records as emitted (with the worker's local sim ids).
    records: list[dict] = field(default_factory=list)
    #: Phase timing rows: ``(phase, seconds, calls)``.
    phases: list[tuple[str, float, int]] = field(default_factory=list)
    #: Metrics registry snapshot (:meth:`MetricsRegistry.to_dict`);
    #: empty when the parent keeps no registry.
    metrics: dict = field(default_factory=dict)
    #: How many tasks rode in the worker submission that ran this task
    #: (1 for serial runs); surfaced so sweeps can verify that worker
    #: batching actually amortized the spawn/IPC overhead.
    chunk_size: int = 1


def resolve_jobs(jobs: int | None, n_tasks: int) -> int:
    """Number of worker processes to use for ``n_tasks`` tasks.

    ``None`` and ``1`` mean serial in-process execution; ``0`` means
    one worker per CPU.  The result is capped at the task count.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_tasks))


def task_chunk_size(n_tasks: int, jobs: int) -> int:
    """Tasks batched per worker submission.

    ~4 chunks per worker keeps the pool load-balanced while amortizing
    the pickle/dispatch overhead that made fine-grained submissions
    slower than serial execution on small sweeps.
    """
    return max(1, n_tasks // (4 * jobs))


def _emit_cache_event(
    context: obs_context.ObsContext, outcome: str, key: str, fn_path: str
) -> None:
    """Record one cache outcome in the ambient registry and trace.

    Cache events happen outside any simulation run, so they carry
    ``t=0`` and no ``sim`` field (readers treat them as runless, like
    ``resource_sample``).
    """
    if context.registry is not None:
        context.registry.counter(outcome).inc()
    if context.tracer.enabled:
        context.tracer.emit(outcome, 0.0, key=key, fn=fn_path)


def _fn_path(fn: Callable) -> str:
    return f"{getattr(fn, '__module__', '?')}:{getattr(fn, '__qualname__', '?')}"


def _run_captured(
    payload: tuple[Callable[[Any], Any], Sequence[Any], bool, bool, Any, Sequence[Any]]
):
    """Worker entry: run one *chunk* of tasks, each under a local context.

    Tasks are batched per submission so the process spawn and pickle
    round-trip amortize over ``chunk_size`` tasks instead of being paid
    per task (the dominant cost of small sweeps).  Each task still gets
    its own observability context, so the per-task telemetry the parent
    merges is identical to what single-task submissions produced.
    """
    fn, chunk, capture_trace, capture_metrics, health, stored_entries = payload
    outcomes = []
    for task, stored in zip(chunk, stored_entries):
        tracer = CollectingTracer() if capture_trace else NULL_TRACER
        registry = MetricsRegistry() if capture_metrics else None
        timer = PhaseTimer()
        # The parent's run-health configuration rides along so a
        # --jobs > 1 traced run carries the same invariant_audit/residual
        # events (and the same strict-mode behavior) as a serial one.
        # A forked worker inherits the context stack of the moment it was
        # forked, so the task's context is pushed whole, not inherited.
        with obs_context.use(
            obs_context.ObsContext(tracer, registry, timer, health)
        ) as context:
            started = perf_counter()
            result = fn(task)
            if stored is not None:
                # Workers write their own records the moment the task
                # completes: an interrupted parent loses nothing already
                # simulated, and the atomic rename makes concurrent
                # writers of the same key harmless.
                store, key, identity = stored
                store.put(key, identity, result, perf_counter() - started)
                _emit_cache_event(context, "cache_write", key, _fn_path(fn))
        report = timer.report()
        telemetry = TaskTelemetry(
            records=tracer.records if capture_trace else [],
            phases=[(p.phase, p.seconds, p.calls) for p in report.phases],
            metrics=registry.to_dict() if capture_metrics else {},
            chunk_size=len(chunk),
        )
        outcomes.append((result, telemetry))
    return outcomes


# ---------------------------------------------------------------------
# One process pool is reused across run_tasks calls (and therefore
# across the points of a sweep): worker startup re-imports numpy and the
# package, which dominated small sweeps when a fresh pool was created
# per call.  The pool is keyed by worker count and torn down at exit.
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _shared_pool(max_workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != max_workers:
        _POOL.shutdown(wait=False)
        _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=max_workers)
        _POOL_WORKERS = max_workers
    return _POOL


def _discard_pool() -> None:
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=False)
        _POOL = None


atexit.register(_discard_pool)


# A worker killed mid-run (OOM, SIGKILL, a chaos test) poisons the whole
# executor: every unfinished future raises BrokenProcessPool.  Because
# tasks are pure functions of their tuples, resubmitting the failed
# chunks on a fresh pool is always safe — results cannot differ, and any
# store records the dead round already wrote are simply rewritten to the
# same keys.  One retry round with a bounded backoff turns a transient
# worker death into a warning instead of a lost sweep; a second failure
# propagates, since it points at something systematic (e.g. the task
# itself crashing the interpreter).  Module-level knobs so tests can
# shrink the delay.
_POOL_ATTEMPTS = 2
_POOL_RETRY_BACKOFF = 0.5
_POOL_RETRY_BACKOFF_CAP = 4.0


def _run_chunks(payloads: Sequence[Any], jobs: int) -> tuple[list[Any], int]:
    """Run chunk payloads on the shared pool, retrying broken-pool losses.

    Returns ``(outcomes, retried)`` where ``outcomes`` is in payload
    order (so downstream merging stays order-deterministic for any
    ``jobs``) and ``retried`` counts chunks that needed resubmission.
    """
    outcomes: list[Any] = [None] * len(payloads)
    pending = list(range(len(payloads)))
    retried = 0
    for attempt in range(_POOL_ATTEMPTS):
        pool = _shared_pool(jobs)
        futures: list[tuple[int, Any]] = []
        failed: list[int] = []
        error: BrokenProcessPool | None = None
        for position, index in enumerate(pending):
            try:
                futures.append((index, pool.submit(_run_captured, payloads[index])))
            except BrokenProcessPool as exc:
                # A worker died while we were still submitting: the
                # executor rejects everything from here on, so the rest
                # of the round goes straight to the retry list.
                failed.extend(pending[position:])
                error = exc
                break
        for index, future in futures:
            try:
                outcomes[index] = future.result()
            except BrokenProcessPool as exc:
                failed.append(index)
                error = exc
        failed.sort()
        if not failed:
            return outcomes, retried
        # The broken executor is unusable from here on; discard it so
        # the retry (and any later run_tasks call) starts healthy.
        _discard_pool()
        if attempt + 1 >= _POOL_ATTEMPTS:
            assert error is not None
            raise error
        retried += len(failed)
        delay = min(
            _POOL_RETRY_BACKOFF * 2.0**attempt, _POOL_RETRY_BACKOFF_CAP
        )
        logger.warning(
            "worker pool broke under %d chunk(s); resubmitting on a "
            "fresh pool in %.1fs",
            len(failed),
            delay,
        )
        sleep(delay)
        pending = failed
    return outcomes, retried


def _fresh_sim_id() -> int:
    # The parent's Simulation counter is the authority for sim ids in
    # shared traces/registries; drawing remapped ids from it keeps
    # parallel runs collision-free with sims the parent creates itself.
    from ..sim.engine import Simulation

    return next(Simulation._instance_ids)


def _remap_sim(value, sim_map: dict) -> int:
    key = int(value)
    if key not in sim_map:
        sim_map[key] = _fresh_sim_id()
    return sim_map[key]


def _fresh_span_id() -> int:
    # Same authority principle as sim ids: span ids in merged records
    # are redrawn from the parent's global span counter so they can
    # never collide with spans the parent's own simulations emit.
    from ..obs.spans import next_span_id

    return next_span_id()


#: Record fields carrying span ids (see repro.obs.spans): the span's
#: own id, its parent, and the two endpoints of a ``span_link``.
_SPAN_FIELDS = ("span", "parent", "src_span", "dst_span")


def _remap_span(value, span_map: dict) -> int:
    key = int(value)
    if key not in span_map:
        span_map[key] = _fresh_span_id()
    return span_map[key]


def merge_telemetry(
    telemetry: TaskTelemetry, context: obs_context.ObsContext
) -> None:
    """Fold one worker's captured telemetry into the ambient context."""
    sim_map: dict[int, int] = {}
    span_map: dict[int, int] = {}
    tracer = context.tracer
    if tracer.enabled:
        for record in telemetry.records:
            fields = {
                k: v for k, v in record.items() if k not in ("event", "t")
            }
            if "sim" in fields:
                fields["sim"] = _remap_sim(fields["sim"], sim_map)
            for name in _SPAN_FIELDS:
                if fields.get(name) is not None:
                    fields[name] = _remap_span(fields[name], span_map)
            tracer.emit(record["event"], record["t"], **fields)
    if context.timer is not None:
        for phase, seconds, calls in telemetry.phases:
            context.timer.add(phase, seconds, calls=calls)
    if context.registry is not None:
        registry = context.registry
        # Surface the worker batching factor so traced sweeps can check
        # that chunking engaged (1 = unbatched/serial-equivalent).
        registry.gauge("worker_chunk_size").set(telemetry.chunk_size)
        for row in telemetry.metrics.get("counters", ()):
            labels = dict(row["labels"])
            if "sim" in labels:
                labels["sim"] = str(_remap_sim(labels["sim"], sim_map))
            registry.counter(row["name"], **labels).inc(row["value"])
        for row in telemetry.metrics.get("gauges", ()):
            labels = dict(row["labels"])
            if "sim" in labels:
                labels["sim"] = str(_remap_sim(labels["sim"], sim_map))
            registry.gauge(row["name"], **labels).set(row["value"])
        for row in telemetry.metrics.get("histograms", ()):
            labels = dict(row["labels"])
            if "sim" in labels:
                labels["sim"] = str(_remap_sim(labels["sim"], sim_map))
            histogram = registry.histogram(
                row["name"], buckets=tuple(row["bounds"]), **labels
            )
            histogram.count += row["count"]
            histogram.sum += row["sum"]
            if row.get("min") is not None:
                histogram.min_value = min(histogram.min_value, row["min"])
            if row.get("max") is not None:
                histogram.max_value = max(histogram.max_value, row["max"])
            for position, count in enumerate(row["bucket_counts"]):
                histogram.bucket_counts[position] += count


def _fingerprint_tasks(
    fn: Callable, task_list: Sequence[Any], store
) -> list[tuple[str, dict] | None]:
    """``(key, identity)`` per task, or ``None`` when uncacheable."""
    keyed: list[tuple[str, dict] | None] = []
    for task in task_list:
        if store is None:
            keyed.append(None)
            continue
        try:
            identity = task_identity(fn, task)
            keyed.append((fingerprint(identity), identity))
        except FingerprintError as error:
            logger.debug(
                "store: task of %s not cacheable (%s)", _fn_path(fn), error
            )
            keyed.append(None)
    return keyed


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    jobs: int | None = None,
    store=None,
) -> list[Any]:
    """Run ``fn`` over ``tasks``, optionally across worker processes.

    ``fn`` must be a module-level (picklable) function of one task
    argument, and each task must be picklable and carry every input the
    run needs (including its seed).  Results are returned in task
    order.  With ``jobs in (None, 1)`` — or a single task — execution
    is serial and in-process, with telemetry flowing directly into the
    ambient observability context; with ``jobs > 1`` (or ``jobs=0`` for
    one worker per CPU) tasks run in a :class:`ProcessPoolExecutor` and
    captured telemetry is merged back afterwards.

    ``store`` (a :class:`~repro.store.disk.ResultStore`; default: the
    ambient one from :func:`repro.store.use_store`, if any) memoizes
    per-task results by content address: hits skip execution entirely
    and return the stored result, misses execute and write back.  The
    cache is transparent — for any hit/miss mix the returned list is
    equal to an uncached run's, and ``jobs`` still never changes any
    result.
    """
    task_list: Sequence[Any] = list(tasks)
    if store is None:
        store = store_context.current_store()
    context = obs_context.current()
    keyed = _fingerprint_tasks(fn, task_list, store)
    results: list[Any] = [MISS] * len(task_list)
    if store is not None and not store.refresh:
        for index, entry in enumerate(keyed):
            if entry is None:
                continue
            hit = store.get(entry[0])
            if hit is not MISS:
                results[index] = hit
                store.hits += 1
                _emit_cache_event(context, "cache_hit", entry[0], _fn_path(fn))
    pending = [i for i in range(len(task_list)) if results[i] is MISS]
    if store is not None:
        for index in pending:
            if keyed[index] is not None:
                store.misses += 1
                _emit_cache_event(
                    context, "cache_miss", keyed[index][0], _fn_path(fn)
                )
    jobs = resolve_jobs(jobs, len(pending))
    if jobs <= 1:
        for index in pending:
            started = perf_counter()
            result = fn(task_list[index])
            results[index] = result
            entry = keyed[index]
            if store is not None and entry is not None:
                store.put(
                    entry[0], entry[1], result, perf_counter() - started
                )
                store.writes += 1
                _emit_cache_event(
                    context, "cache_write", entry[0], _fn_path(fn)
                )
        return results
    capture_trace = context.tracer.enabled
    capture_metrics = context.registry is not None
    chunk_size = task_chunk_size(len(pending), jobs)
    chunks = [
        pending[at : at + chunk_size]
        for at in range(0, len(pending), chunk_size)
    ]
    payloads = [
        (
            fn,
            [task_list[index] for index in chunk],
            capture_trace,
            capture_metrics,
            context.health,
            [
                (store, *keyed[index]) if keyed[index] is not None else None
                for index in chunk
            ],
        )
        for chunk in chunks
    ]
    chunk_outcomes, retried = _run_chunks(payloads, jobs)
    if context.registry is not None:
        # 0 on clean runs; chaos tests and flaky hosts read this to see
        # that the broken-pool recovery path actually engaged.
        context.registry.gauge("worker_retries").set(retried)
    # Chunks preserve pending order, so merging chunk by chunk keeps
    # telemetry in task order exactly as unchunked submission did.
    for chunk, outcomes in zip(chunks, chunk_outcomes):
        for index, (result, telemetry) in zip(chunk, outcomes):
            merge_telemetry(telemetry, context)
            results[index] = result
            if store is not None and keyed[index] is not None:
                store.writes += 1
    return results
