"""Command-line interface: ``repro-manet``.

Subcommands::

    repro-manet list                     # show all experiment ids
    repro-manet run fig1 [--quick]       # run one experiment
    repro-manet run all [--quick]        # run every experiment
    repro-manet simulate scenario.json   # run a declarative scenario
    repro-manet trace-summary t.jsonl    # aggregate a telemetry trace
    repro-manet metrics t.jsonl          # OpenMetrics export of a trace
    repro-manet report t.jsonl           # Markdown run-health report
    repro-manet timeline t.jsonl         # Chrome/Perfetto trace export
    repro-manet compare a.jsonl b.jsonl  # diff two traced runs
    repro-manet bench                    # engine perf -> BENCH_engine.json
    repro-manet store stats              # inspect the result store
    repro-manet model --n 400 --rf 0.15 --vf 0.05
                                         # evaluate the closed-form model

``run`` and ``sweep`` accept ``--jobs J`` to fan per-seed simulation
runs out to ``J`` worker processes; results are bitwise-identical to a
serial run for any value.

The same two commands accept ``--store [PATH]`` to memoize per-seed
simulation tasks in a content-addressed on-disk store (see README,
"Result store & incremental sweeps"): repeated runs are cache hits,
interrupted sweeps resume from completed tasks, and results are
byte-identical either way.  The store root defaults to
``$REPRO_MANET_STORE`` or ``~/.cache/repro-manet``; setting the
environment variable enables the store without the flag, and
``--no-store`` disables it regardless.  ``--store-refresh`` recomputes
every task and overwrites its record.  The ``store`` command group
(``stats`` / ``ls`` / ``gc`` / ``verify``) inspects and maintains the
store.

``run`` and ``simulate`` accept telemetry flags (see README,
"Observability"): ``--trace FILE`` streams structured JSONL events,
``--metrics-json FILE`` exports the metrics registry and per-phase
timing, ``--metrics-openmetrics FILE`` (also on ``sweep``) exports the
registry — message totals plus the overhead-attribution counters — in
OpenMetrics text format, ``--progress`` prints progress lines and the
timing breakdown,
and ``-v`` / ``--log-level`` control stdlib logging across the package.
Run-health flags ride on the same commands: ``--audit [check|strict]``
attaches the P1/P2 invariant auditor and the analytic-residual monitor
(strict mode exits 3 on the first violation), and
``--sample-resources SEC`` streams RSS/CPU/phase samples into the
trace.  ``bench --history FILE`` appends steps/sec results to a JSONL
history and exits 1 when a point regresses more than the threshold
against the best prior entry (regressions come with a per-phase
attribution table when phase data is available).  ``bench --modes``
picks which kernels run; whenever the incremental engine is among
them, its equivalence check against a fresh pair sweep gates the
exit code too.

Timeline tooling (see README, "Timelines & run comparison"):
``timeline`` exports a trace as Chrome trace-event JSON for
chrome://tracing / Perfetto, ``--profile FILE`` on ``run``/``simulate``
writes a collapsed-stack cProfile capture, and ``compare`` diffs two
traces — per-category message rates, cluster-dynamics rates, residual
verdicts and phase timings — exiting 1 when any gating delta exceeds
``--threshold`` or a residual verdict flips.

Exit codes: 0 success/healthy, 1 unhealthy (report problems, trace
non-reconciliation, bench regression, compare deltas beyond threshold,
corrupt store records), 2 usage or input error, 3 strict-mode
invariant audit failure.

The experiment tables printed here are the series behind the paper's
figures; EXPERIMENTS.md archives the full-scale output.
"""

from __future__ import annotations

import argparse
import sys

from .core.lid_analysis import lid_head_probability
from .core.overhead import overhead_breakdown
from .core.params import NetworkParameters
from .experiments import experiment_ids, run_experiment

__all__ = ["main", "build_parser"]


class _CliError(Exception):
    """User-facing CLI failure: printed to stderr, exit code 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="J",
        help=(
            "worker processes for per-seed runs (0 = one per CPU; "
            "default: serial). Results are identical for any value."
        ),
    )


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """Result-store flags shared by ``run`` and ``sweep``."""
    parser.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=(
            "memoize per-seed simulation tasks in a content-addressed "
            "store (bare --store uses $REPRO_MANET_STORE or "
            "~/.cache/repro-manet)"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the result store even when $REPRO_MANET_STORE is set",
    )
    parser.add_argument(
        "--store-refresh",
        action="store_true",
        help=(
            "re-simulate every task and overwrite its store record "
            "(implies --store)"
        ),
    )


def _parse_size(text: str) -> int:
    """Parse a byte size with an optional K/M/G suffix."""
    text = text.strip()
    multiplier = 1
    suffixes = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1].upper() in suffixes:
        multiplier = suffixes[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(float(text) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a size (use bytes or K/M/G suffix): {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be >= 0, got {value}")
    return value


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``run`` and ``simulate``."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write structured JSONL telemetry events to FILE",
    )
    parser.add_argument(
        "--trace-step-every",
        type=_positive_int,
        default=10,
        metavar="K",
        help="sample only every K-th per-step trace event (default 10)",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="FILE",
        default=None,
        help="write the metrics registry and timing breakdown to FILE",
    )
    _add_openmetrics_flag(parser)
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print progress lines and a final timing breakdown",
    )
    parser.add_argument(
        "--audit",
        nargs="?",
        const="check",
        default="off",
        choices=["off", "check", "strict"],
        help=(
            "attach run-health protocols: P1/P2 invariant auditor and "
            "analytic-residual monitor (bare --audit = check; strict "
            "exits 3 on the first invariant violation)"
        ),
    )
    parser.add_argument(
        "--audit-every",
        type=float,
        default=1.0,
        metavar="T",
        help="simulated seconds between invariant audits (default 1.0)",
    )
    parser.add_argument(
        "--residual-window",
        type=float,
        default=2.0,
        metavar="T",
        help="simulated seconds per residual-monitor window (default 2.0)",
    )
    parser.add_argument(
        "--residual-rtol",
        type=float,
        default=0.15,
        metavar="F",
        help=(
            "relative slack below the analytic bound tolerated before "
            "a residual is flagged (default 0.15)"
        ),
    )
    parser.add_argument(
        "--sample-resources",
        type=float,
        default=0.0,
        metavar="SEC",
        help=(
            "sample RSS/CPU/engine-phase usage every SEC wall-clock "
            "seconds into the trace (requires --trace; 0 disables)"
        ),
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help=(
            "capture a cProfile of the workload and write it to FILE in "
            "collapsed-stack (flamegraph) format"
        ),
    )
    _add_logging_flags(parser)


def _add_openmetrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-openmetrics",
        metavar="FILE",
        default=None,
        help=(
            "write the metrics registry (message totals, overhead "
            "attribution counters) to FILE in OpenMetrics text format"
        ),
    )


def _add_logging_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="explicit log level (overrides -v)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from . import __version__
    from .sim.engine import ENGINE_SCHEMA_VERSION

    parser = argparse.ArgumentParser(
        prog="repro-manet",
        description=(
            "Clustering/routing overhead analysis for clustered MANETs "
            "(reproduction of Xue, Er & Seah, ICDCS 2006)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"repro-manet {__version__} "
            f"(engine schema {ENGINE_SCHEMA_VERSION})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id or 'all'")
    run.add_argument(
        "--quick", action="store_true", help="reduced-scale run (seconds)"
    )
    run.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each experiment's table as DIR/<id>.csv",
    )
    _add_jobs_flag(run)
    _add_store_flags(run)
    _add_telemetry_flags(run)

    simulate = sub.add_parser(
        "simulate", help="run a JSON scenario through the full stack"
    )
    simulate.add_argument("scenario", help="path to a scenario JSON file")
    simulate.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    _add_telemetry_flags(simulate)

    metrics = sub.add_parser(
        "metrics",
        help=(
            "export a JSONL trace in OpenMetrics text format (message "
            "totals plus overhead-attribution counters)"
        ),
    )
    metrics.add_argument("file", help="trace file written by --trace")
    metrics.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="output path (default: stdout)",
    )
    _add_logging_flags(metrics)

    trace_summary = sub.add_parser(
        "trace-summary",
        help="aggregate a JSONL trace into per-category message rates",
    )
    trace_summary.add_argument("file", help="trace file written by --trace")
    trace_summary.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of text",
    )
    _add_logging_flags(trace_summary)

    timeline = sub.add_parser(
        "timeline",
        help="export a JSONL trace as Chrome/Perfetto trace-event JSON",
    )
    timeline.add_argument("file", help="trace file written by --trace")
    timeline.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="output path (default: <trace>.timeline.json)",
    )
    _add_logging_flags(timeline)

    compare = sub.add_parser(
        "compare",
        help=(
            "diff two traces: message rates, cluster dynamics, residual "
            "verdicts, phase timings (exit 1 when deltas exceed threshold)"
        ),
    )
    compare.add_argument("trace_a", help="baseline trace file")
    compare.add_argument("trace_b", help="candidate trace file")
    compare.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="F",
        help=(
            "relative delta on gating metrics tolerated before exit 1 "
            "(default 0.10)"
        ),
    )
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as JSON instead of text",
    )
    _add_logging_flags(compare)

    report = sub.add_parser(
        "report",
        help="render a Markdown run-health report from trace files",
    )
    report.add_argument(
        "files", nargs="+", help="trace files written by --trace"
    )
    report.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    _add_logging_flags(report)

    sweep = sub.add_parser(
        "sweep", help="sweep one parameter, simulation vs analysis"
    )
    sweep.add_argument(
        "parameter", choices=["tx_range", "velocity", "density"]
    )
    sweep.add_argument(
        "values",
        help="comma-separated absolute values, e.g. 0.08,0.15,0.25",
    )
    sweep.add_argument("--n", type=int, default=150, help="network size N")
    sweep.add_argument(
        "--rf", type=float, default=0.15, help="base range as r/a"
    )
    sweep.add_argument(
        "--vf", type=float, default=0.05, help="base speed as v/a"
    )
    sweep.add_argument("--seeds", type=int, default=2, help="seeds per point")
    sweep.add_argument(
        "--duration", type=float, default=10.0, help="measured time per run"
    )
    sweep.add_argument(
        "--beacon-policy",
        metavar="POLICY",
        default=None,
        help=(
            "replace the event-mode HELLO with a beacon policy from "
            "repro.control (fixed, analytic-rate, churn-feedback, "
            "staleness-bounded); part of each task's store identity"
        ),
    )
    sweep.add_argument(
        "--beacon-interval",
        type=float,
        default=1.0,
        help="base beacon interval for --beacon-policy (default 1.0)",
    )
    sweep.add_argument(
        "--fault-crash-rate",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "inject node crashes at RATE per node per unit time "
            "(deterministic per-seed schedule; part of each task's "
            "store identity)"
        ),
    )
    sweep.add_argument(
        "--fault-crash-recover",
        type=float,
        default=None,
        metavar="DELAY",
        help=(
            "recover crashed nodes after DELAY time units "
            "(default: crashes are permanent)"
        ),
    )
    sweep.add_argument(
        "--fault-loss-rate",
        type=float,
        default=None,
        metavar="P",
        help="drop each HELLO/RREQ reception with probability P",
    )
    _add_jobs_flag(sweep)
    _add_store_flags(sweep)
    _add_openmetrics_flag(sweep)
    _add_logging_flags(sweep)

    store = sub.add_parser(
        "store", help="inspect and maintain the result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_parsers = {
        "stats": store_sub.add_parser(
            "stats", help="record/manifest counts, sizes and saved time"
        ),
        "ls": store_sub.add_parser("ls", help="list stored task records"),
        "gc": store_sub.add_parser(
            "gc", help="evict records by age and total size"
        ),
        "verify": store_sub.add_parser(
            "verify", help="re-hash every record and report corruption"
        ),
    }
    for store_parser in store_parsers.values():
        store_parser.add_argument(
            "--store",
            metavar="PATH",
            default=None,
            help=(
                "store root (default: $REPRO_MANET_STORE or "
                "~/.cache/repro-manet)"
            ),
        )
        _add_logging_flags(store_parser)
    store_parsers["ls"].add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="show only the N most recent records",
    )
    store_parsers["gc"].add_argument(
        "--max-size",
        type=_parse_size,
        default=None,
        metavar="SIZE",
        help="evict oldest records until the store fits (bytes or K/M/G)",
    )
    store_parsers["gc"].add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="DAYS",
        help="evict records older than DAYS",
    )
    store_parsers["gc"].add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    store_parsers["verify"].add_argument(
        "--quarantine",
        action="store_true",
        help="also move corrupt records into <root>/quarantine/",
    )

    bench = sub.add_parser(
        "bench", help="benchmark the engine; writes BENCH_engine.json"
    )
    bench.add_argument(
        "--out",
        metavar="FILE",
        default="BENCH_engine.json",
        help="output JSON report path (default: BENCH_engine.json)",
    )
    bench.add_argument(
        "--sizes",
        default="100,500,2000,5000",
        help="comma-separated network sizes (default: 100,500,2000,5000)",
    )
    bench.add_argument(
        "--steps",
        type=_positive_int,
        default=30,
        help="simulation steps per (size, mode) point (default 30)",
    )
    bench.add_argument(
        "--modes",
        default="edge,incremental",
        metavar="M1,M2",
        help=(
            "comma-separated kernels to benchmark: edge, incremental "
            "(default: both)"
        ),
    )
    bench.add_argument(
        "--sweep-jobs",
        default=None,
        metavar="J1,J2",
        help="also time a small sweep point at these jobs values, e.g. 1,4",
    )
    bench.add_argument(
        "--history",
        metavar="FILE",
        default=None,
        help=(
            "append steps/sec results to this JSONL history and exit 1 "
            "on regression vs the best prior entry"
        ),
    )
    bench.add_argument(
        "--regression-threshold",
        type=float,
        default=0.20,
        metavar="F",
        help=(
            "fractional steps/sec drop counted as a regression when "
            "gating with --history (default 0.20)"
        ),
    )
    _add_logging_flags(bench)

    model = sub.add_parser("model", help="evaluate the closed-form model")
    model.add_argument("--n", type=int, default=400, help="network size N")
    model.add_argument(
        "--rf", type=float, default=0.15, help="transmission range as r/a"
    )
    model.add_argument(
        "--vf", type=float, default=0.05, help="node speed as v/a"
    )
    model.add_argument(
        "--full-table",
        action="store_true",
        help="ROUTE updates carry the full intra-cluster table",
    )
    return parser


def _run_model(args) -> int:
    params = NetworkParameters.from_fractions(
        n_nodes=args.n, range_fraction=args.rf, velocity_fraction=args.vf
    )
    head_p = float(
        lid_head_probability(params.n_nodes, params.density, params.tx_range)
    )
    breakdown = overhead_breakdown(params, head_p, full_table=args.full_table)
    print(f"N={params.n_nodes}  r/a={args.rf}  v/a={args.vf}")
    print(f"expected degree d      = {breakdown.degree:.4g}")
    print(f"LID head ratio P       = {head_p:.4g}")
    print(f"expected clusters n    = {params.n_nodes * head_p:.4g}")
    for key, value in breakdown.frequencies.items():
        print(f"{key:22s} = {value:.4g} msgs/node/t")
    print(f"O_hello                = {breakdown.hello_overhead:.4g} bits/node/t")
    print(f"O_cluster              = {breakdown.cluster_overhead:.4g} bits/node/t")
    print(f"O_route                = {breakdown.route_overhead:.4g} bits/node/t")
    print(f"O_total                = {breakdown.total:.4g} bits/node/t")
    return 0


def _resolve_store(args):
    """The :class:`~repro.store.disk.ResultStore` the flags request.

    Enabled by ``--store`` / ``--store-refresh`` or by the
    ``REPRO_MANET_STORE`` environment variable; ``--no-store`` always
    wins.  Returns ``None`` when caching is off.
    """
    import os

    from .store import STORE_ENV_VAR, ResultStore, resolve_store_root

    if args.no_store:
        if args.store is not None or args.store_refresh:
            raise _CliError("--no-store conflicts with --store/--store-refresh")
        return None
    enabled = (
        args.store is not None
        or args.store_refresh
        or bool(os.environ.get(STORE_ENV_VAR))
    )
    if not enabled:
        return None
    return ResultStore(
        resolve_store_root(args.store or None), refresh=args.store_refresh
    )


def _run_sweep(args) -> int:
    from .analysis import run_sweep
    from .experiments.figures123 import sweep_table
    from .obs import MetricsRegistry, observe

    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print(f"could not parse sweep values: {args.values!r}")
        return 2
    if not values:
        print("no sweep values given")
        return 2
    store = _resolve_store(args)
    beacon = None
    if args.beacon_policy is not None:
        beacon = {
            "mode": "adaptive",
            "policy": {
                "policy": args.beacon_policy,
                "interval": args.beacon_interval,
            },
        }
        from .sim.beacon import hello_from_config

        try:
            hello_from_config(beacon)
        except ValueError as error:
            print(f"bad --beacon-policy: {error}")
            return 2
    faults = None
    if (
        args.fault_crash_rate is not None
        or args.fault_loss_rate is not None
    ):
        faults = {}
        if args.fault_crash_rate is not None:
            faults["crash_rate"] = args.fault_crash_rate
        if args.fault_crash_recover is not None:
            faults["crash_recover_after"] = args.fault_crash_recover
        if args.fault_loss_rate is not None:
            faults["loss_rate"] = args.fault_loss_rate
        from .faults import fault_config_from_dict

        try:
            fault_config_from_dict(faults)
        except ValueError as error:
            print(f"bad --fault-* flags: {error}")
            return 2
    elif args.fault_crash_recover is not None:
        print("--fault-crash-recover requires --fault-crash-rate")
        return 2
    base = NetworkParameters.from_fractions(
        n_nodes=args.n, range_fraction=args.rf, velocity_fraction=args.vf
    )
    # An ambient registry makes every per-seed run attach the overhead
    # ledger; worker registries are folded back in by the parallel
    # runner, so any --jobs value exports identical counters.
    registry = (
        MetricsRegistry() if args.metrics_openmetrics is not None else None
    )
    with observe(registry=registry):
        sweep_kwargs = dict(
            seeds=args.seeds,
            duration=args.duration,
            warmup=args.duration * 0.15,
            jobs=args.jobs,
            store=store,
        )
        if beacon is not None:
            # Only passed when set: a literal ``beacon=None`` would
            # enter the sweep manifest identity and orphan every
            # pre-existing event-mode manifest.
            sweep_kwargs["beacon"] = beacon
        if faults is not None:
            # Same manifest-compatibility contract as ``beacon``.
            sweep_kwargs["faults"] = faults
        result = run_sweep(args.parameter, base, values, **sweep_kwargs)
    if registry is not None:
        from .obs.openmetrics import write_openmetrics

        write_openmetrics(registry, args.metrics_openmetrics)
        print(f"openmetrics written to {args.metrics_openmetrics}")
    table = sweep_table(
        result,
        f"Sweep of {args.parameter} (N={args.n})",
        args.parameter,
    )
    print(table.render())
    if store is not None:
        print()
        print(store.describe())
    return 0


def _run_bench(args) -> int:
    from .analysis.benchmark import DEFAULT_MODES, run_bench, write_bench

    modes = tuple(
        token.strip() for token in args.modes.split(",") if token.strip()
    )
    unknown = [token for token in modes if token not in DEFAULT_MODES]
    if unknown:
        raise _CliError(
            f"unknown bench modes {','.join(unknown)!r}; "
            f"choose from {','.join(DEFAULT_MODES)}"
        )
    if not modes:
        raise _CliError("no bench modes given")
    try:
        sizes = [int(v) for v in args.sizes.split(",") if v.strip()]
    except ValueError:
        raise _CliError(
            f"could not parse sizes: {args.sizes!r}"
        ) from None
    if not sizes:
        raise _CliError("no benchmark sizes given")
    too_small = [size for size in sizes if size < 2]
    if too_small:
        raise _CliError(
            f"bad --sizes {args.sizes!r}: sizes must be >= 2, got {too_small}"
        )
    sweep_jobs = None
    if args.sweep_jobs is not None:
        tokens = [token.strip() for token in args.sweep_jobs.split(",")]
        if not tokens or any(not token for token in tokens):
            raise _CliError(
                f"bad --sweep-jobs {args.sweep_jobs!r}: empty entry "
                "(use a comma-separated list like 1,4)"
            )
        try:
            sweep_jobs = [int(token) for token in tokens]
        except ValueError:
            raise _CliError(
                f"bad --sweep-jobs {args.sweep_jobs!r}: entries must be "
                "integers (use a comma-separated list like 1,4)"
            ) from None
        invalid = [jobs for jobs in sweep_jobs if jobs < 1]
        if invalid:
            raise _CliError(
                f"bad --sweep-jobs {args.sweep_jobs!r}: jobs values must "
                f"be >= 1, got {invalid}"
            )
    payload = run_bench(
        sizes=sizes,
        steps=args.steps,
        sweep_jobs=sweep_jobs,
        modes=modes,
    )
    path = write_bench(payload, args.out)
    print(f"benchmark report written to {path}")
    for row in payload["step_benchmarks"]:
        print(
            f"  N={row['n_nodes']:>5d}  {row['mode']:<18s} "
            f"{row['steps_per_sec']:>10.1f} steps/s  "
            f"peak RSS {row['peak_rss_kb'] / 1024:.0f} MiB"
        )
    for row in payload["step_benchmarks"]:
        stats = row.get("engine_stats")
        if stats:
            print(
                f"  N={row['n_nodes']:>5d}  incremental engine: "
                f"{stats['full_rebuilds']} validations, "
                f"{stats['incremental_steps']} incremental steps, "
                f"{stats['mean_at_risk']:.0f} pairs recomputed per "
                "incremental step (mean_at_risk)"
            )
    for size, per_mode in payload.get("speedup_vs_edge", {}).items():
        for mode, speedup in per_mode.items():
            print(f"  N={size:>5s}  {mode} vs edge: {speedup:.1f}x")
    violations = [
        f"  N={size:>5s}  incremental-engine equivalence: {verdict}"
        for size, verdict in payload.get("equivalence", {}).items()
        if verdict != "ok"
    ]
    for line in violations:
        print(f"EQUIVALENCE VIOLATION{line}", file=sys.stderr)
    resources = payload.get("resources") or {}
    if resources.get("samples"):
        rss_max = resources.get("rss_kb_max")
        rss_text = (
            f"{rss_max / 1024:.0f} MiB" if rss_max is not None else "n/a"
        )
        print(
            f"  resources: peak RSS {rss_text}"
            f"  mean CPU {resources['cpu_util_mean']:.2f} cores"
            f"  ({resources['rss_source']})"
        )
    if args.history is not None:
        from .analysis.benchmark import update_bench_history

        try:
            entry, regressions = update_bench_history(
                payload, args.history, threshold=args.regression_threshold
            )
        except (OSError, ValueError) as error:
            raise _CliError(f"bench history: {error}") from None
        print(
            f"bench history: appended {len(entry['points'])} point(s) "
            f"to {args.history}"
        )
        if regressions:
            for line in regressions:
                print(f"  REGRESSION {line}", file=sys.stderr)
            return 1
    # Equivalence violations gate after the history append so the run
    # is still recorded as evidence.
    return 1 if violations else 0


def _run_trace_summary(args) -> int:
    import json as _json

    from .obs import summarize_trace

    try:
        summary = summarize_trace(args.file)
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"malformed trace: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(summary.to_dict(), indent=2))
    else:
        print(summary.render())
    return 0 if summary.reconciles() else 1


class _Telemetry:
    """Telemetry channels opened for one CLI workload."""

    def __init__(self, tracer, registry, timer, sampler, profiler=None):
        self.tracer = tracer
        self.registry = registry
        self.timer = timer
        self.sampler = sampler
        self.profiler = profiler

    def start(self) -> None:
        if self.sampler is not None:
            self.sampler.start()
        if self.profiler is not None:
            self.profiler.enable()

    def finish(self, args) -> None:
        import json as _json
        from pathlib import Path

        if self.profiler is not None:
            self.profiler.disable()
            from .obs.timeline import write_collapsed_profile

            frames = write_collapsed_profile(self.profiler, args.profile)
            print(
                f"profile: {frames} collapsed stack(s) written to "
                f"{args.profile}"
            )
        # The sampler's closing sample still goes through the tracer,
        # so stop it before the trace file is closed.
        if self.sampler is not None:
            self.sampler.stop()
        if self.tracer is not None:
            self.tracer.close()
        if args.metrics_json is not None:
            payload = {
                "schema_version": 1,
                "metrics": self.registry.to_dict(),
                "timing": self.timer.report().to_dict(),
            }
            Path(args.metrics_json).write_text(
                _json.dumps(payload, indent=2) + "\n"
            )
        if getattr(args, "metrics_openmetrics", None) is not None:
            from .obs.openmetrics import write_openmetrics

            write_openmetrics(self.registry, args.metrics_openmetrics)
        if args.progress:
            print()
            print(self.timer.report().render())


def _telemetry_scope(args):
    """Build the observability context requested by CLI flags.

    Returns ``(context manager, telemetry)``; the caller runs the
    workload inside the context manager between ``telemetry.start()``
    and ``telemetry.finish(args)``.
    """
    from .obs import JsonlTracer, MetricsRegistry, PhaseTimer, observe
    from .obs.context import RunHealthConfig
    from .obs.resources import ResourceSampler

    tracer = None
    if args.trace is not None:
        try:
            tracer = JsonlTracer(args.trace, step_every=args.trace_step_every)
        except OSError as error:
            raise _CliError(f"cannot open trace file: {error}") from None
    registry = (
        MetricsRegistry()
        if args.metrics_json is not None
        or getattr(args, "metrics_openmetrics", None) is not None
        else None
    )
    timer = PhaseTimer()
    health = None
    if args.audit != "off":
        health = RunHealthConfig(
            audit_every=args.audit_every,
            strict=args.audit == "strict",
            residual_window=args.residual_window,
            residual_rtol=args.residual_rtol,
        )
    sampler = None
    if args.sample_resources > 0.0:
        if tracer is None:
            raise _CliError("--sample-resources requires --trace")
        sampler = ResourceSampler(
            interval=args.sample_resources, tracer=tracer, timer=timer
        )
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
    scope = observe(
        tracer=tracer, registry=registry, timer=timer, health=health
    )
    return scope, _Telemetry(tracer, registry, timer, sampler, profiler)


def _audit_failure(error) -> int:
    print(f"audit failure: {error}", file=sys.stderr)
    return 3


def _run_simulate(args) -> int:
    import json as _json

    from .obs import AuditError
    from .scenario import load_scenario, run_scenario

    scope, telemetry = _telemetry_scope(args)
    telemetry.start()
    try:
        with scope:
            report = run_scenario(load_scenario(args.scenario))
    except AuditError as error:
        return _audit_failure(error)
    except (OSError, _json.JSONDecodeError, ValueError, TypeError) as error:
        # Unreadable file, malformed JSON, or a scenario that fails
        # validation (e.g. unknown keys) — input errors, exit code 2.
        print(f"bad scenario: {error}", file=sys.stderr)
        return 2
    finally:
        telemetry.finish(args)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0


def _run_run(args) -> int:
    from .obs import AuditError
    from .store import use_store

    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    csv_dir = None
    if args.csv is not None:
        from pathlib import Path

        csv_dir = Path(args.csv)
        csv_dir.mkdir(parents=True, exist_ok=True)
    store = _resolve_store(args)
    scope, telemetry = _telemetry_scope(args)
    telemetry.start()
    try:
        with scope, use_store(store):
            for experiment_id in ids:
                table = run_experiment(
                    experiment_id, quick=args.quick, jobs=args.jobs
                )
                print(table.render())
                print()
                if csv_dir is not None:
                    table.save_csv(csv_dir / f"{experiment_id}.csv")
    except AuditError as error:
        return _audit_failure(error)
    finally:
        telemetry.finish(args)
    if store is not None:
        print(store.describe())
    return 0


def _run_store(args) -> int:
    from .store import ResultStore, resolve_store_root

    store = ResultStore(resolve_store_root(args.store or None))
    if args.store_command == "stats":
        stats = store.stats()
        print(f"store root       {stats['root']}")
        print(
            f"task records     {stats['records']} "
            f"({stats['record_bytes'] / 1024:.1f} KiB)"
        )
        print(
            f"sweep manifests  {stats['manifests']} "
            f"({stats['manifest_bytes'] / 1024:.1f} KiB)"
        )
        print(f"quarantined      {stats['quarantined']}")
        print(
            f"stored sim time  {stats['stored_elapsed']:.2f}s "
            f"(wall-clock a full re-run would cost)"
        )
        return 0
    if args.store_command == "ls":
        rows = store.ls(limit=args.limit)
        if not rows:
            print(f"no records under {store.root}")
            return 0
        for row in rows:
            elapsed = row.get("elapsed")
            print(
                f"{row['key'][:16]}  {row['bytes']:>7d} B  "
                f"{elapsed if elapsed is None else format(elapsed, '8.3f')}s  "
                f"{row['fn']}"
            )
        return 0
    if args.store_command == "gc":
        removed, freed = store.gc(
            max_size=args.max_size,
            max_age_days=args.max_age,
            dry_run=args.dry_run,
        )
        verb = "would evict" if args.dry_run else "evicted"
        print(f"{verb} {removed} file(s), {freed / 1024:.1f} KiB")
        return 0
    if args.store_command == "verify":
        problems = store.verify(quarantine=args.quarantine)
        checked = sum(1 for _ in store.iter_record_paths()) + (
            len(problems) if args.quarantine else 0
        )
        if not problems:
            print(f"store OK: {checked} record(s) verified under {store.root}")
            return 0
        for path, problem in problems:
            print(f"CORRUPT {path}: {problem}", file=sys.stderr)
        print(
            f"store verify: {len(problems)} corrupt record(s) "
            + ("quarantined" if args.quarantine else "found"),
            file=sys.stderr,
        )
        return 1
    return 2  # pragma: no cover - argparse enforces the choices


def _run_metrics(args) -> int:
    from .obs.openmetrics import registry_from_trace, render_openmetrics

    try:
        registry = registry_from_trace(args.file)
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"malformed trace: {error}", file=sys.stderr)
        return 2
    text = render_openmetrics(registry)
    if args.out is not None:
        from pathlib import Path

        Path(args.out).write_text(text, encoding="utf-8")
        print(f"openmetrics written to {args.out}")
    else:
        print(text, end="")
    return 0


def _run_timeline(args) -> int:
    from .obs.timeline import write_timeline

    out = args.out if args.out is not None else f"{args.file}.timeline.json"
    try:
        count = write_timeline(args.file, out)
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"malformed trace: {error}", file=sys.stderr)
        return 2
    print(f"timeline: {count} trace event(s) written to {out}")
    return 0


def _run_compare(args) -> int:
    import json as _json

    from .obs.compare import DEFAULT_COMPARE_THRESHOLD, compare_traces

    threshold = (
        args.threshold
        if args.threshold is not None
        else DEFAULT_COMPARE_THRESHOLD
    )
    if threshold <= 0.0:
        print(
            f"bad input: threshold must be positive, got {threshold}",
            file=sys.stderr,
        )
        return 2
    try:
        comparison = compare_traces(
            args.trace_a, args.trace_b, threshold=threshold
        )
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"malformed trace: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(comparison.to_dict(), indent=2))
    else:
        print(comparison.render())
    return 0 if comparison.within_threshold else 1


def _run_report(args) -> int:
    from pathlib import Path

    from .obs import build_report

    try:
        report = build_report(args.files)
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"malformed trace: {error}", file=sys.stderr)
        return 2
    text = report.render()
    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"run-health report written to {args.out}")
        for problem in report.problems():
            print(f"  PROBLEM {problem}", file=sys.stderr)
    else:
        print(text)
    return 0 if report.healthy else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if hasattr(args, "verbose"):
        from .obs import configure_logging

        configure_logging(
            level=args.log_level,
            verbosity=args.verbose,
            show_progress=getattr(args, "progress", False),
        )
    try:
        if args.command == "list":
            for experiment_id in experiment_ids():
                print(experiment_id)
            return 0
        if args.command == "model":
            return _run_model(args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "trace-summary":
            return _run_trace_summary(args)
        if args.command == "metrics":
            return _run_metrics(args)
        if args.command == "timeline":
            return _run_timeline(args)
        if args.command == "compare":
            return _run_compare(args)
        if args.command == "report":
            return _run_report(args)
        if args.command == "store":
            return _run_store(args)
        if args.command == "simulate":
            return _run_simulate(args)
        if args.command == "run":
            return _run_run(args)
    except _CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Telemetry sinks flush on the way out: _run_simulate/_run_run
        # finish their tracer in ``finally`` blocks as the interrupt
        # unwinds, and JsonlTracer keeps an atexit flush as a backstop —
        # a Ctrl-C'd run leaves a parseable trace.
        print("interrupted", file=sys.stderr)
        return 130
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
