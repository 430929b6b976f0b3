"""Full-stack benchmark of the clustered-MANET simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-stack --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload once untraced and once with the
per-layer wrappers of :mod:`probes` installed, and reports the per-layer
metrics.  Metric lines go to standard output, followed by one JSON
result line: ``{"correct", "attempted", "failed", "metrics"}``.  The
program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("paper-stack", "data-plane", "sweep", "jsonl-trace")


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool, scale=None):
    """Run one workload; returns its :class:`workloads.Outcome`.

    ``scale`` defaults to the benchmark's sizes, checked against the
    golden digests; the benchmark's tests pass smaller sizes (unchecked).
    """
    bootstrap()
    import probes
    import workloads

    golden = workloads.load_golden(GOLDEN) if scale is None else None
    scale = workloads.FULL if scale is None else scale
    workdir = WORKDIR / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = workloads.make_workload(workload, scale, seed, workdir)
        if trace:
            return probes.measure_traced(bench, seconds, golden)
        return bench.measure(seconds, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it


def result_line(outcome) -> str:
    return json.dumps(
        {
            "correct": outcome.checks.failed == 0,
            "attempted": outcome.checks.attempted,
            "failed": outcome.checks.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome.metrics.items()
            },
        }
    )


def report(workload: str, outcome) -> str:
    """Human-readable metric lines printed above the result line."""
    lines = [f"workload {workload}"]
    for name, (value, unit) in outcome.metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {unit}")
    lines.append(
        f"  {'check_fail_ratio':<44} {outcome.checks.fail_ratio:>14.6g} ratio"
        f"  ({outcome.checks.failed}/{outcome.checks.attempted})"
    )
    for name, value in outcome.notes.items():
        lines.append(f"  {name:<44} {value}")
    for problem in outcome.checks.problems:
        lines.append(f"  FAILED {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(args.workload, outcome))
    print(result_line(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
