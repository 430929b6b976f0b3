"""Run the benchmark over several seeds and summarize the spread.

Usage, from the root of a checkout::

    python3 perfbench/record.py --workloads paper-stack,sweep --seeds 1-10 \\
        --seconds 20 --out perfbench/baseline.json [--against old.json]

Each run is a separate ``perfbench/run.py`` process.  For every
workload and metric the summary holds the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread — the
distance between the quartiles as a share of the median — and, with
``--against``, the shift of the median relative to another summary.
The output also records the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    """``"1-10"`` or ``"3,7,11"`` to a list of seeds."""
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": commit,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 2:
            try:
                result["notes"][fields[0]] = float(fields[1])
            except ValueError:
                pass
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    against = json.loads(args.against.read_text()) if args.against else None
    summary = {
        "provenance": provenance(),
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [
            run_once(workload, seed, args.seconds, args.trace)
            for seed in seeds_from(args.seeds)
        ]
        metrics = {}
        for name in runs[0]["metrics"]:
            entry = summarize([r["metrics"][name]["value"] for r in runs])
            entry["unit"] = runs[0]["metrics"][name]["unit"]
            if against is not None:
                old = against["workloads"][workload]["metrics"][name]["median"]
                entry["shift"] = entry["median"] / old - 1.0 if old else 0.0
            metrics[name] = entry
        notes = {
            name: summarize([r["notes"][name] for r in runs])
            for name in runs[0]["notes"]
            if all(name in r["notes"] for r in runs)
        }
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "wall_s": summarize([r["wall_s"] for r in runs]),
            "metrics": metrics,
            "notes": notes,
        }
        print(f"{workload}: wall median {summary['workloads'][workload]['wall_s']['median']:.1f}s,"
              f" failed {summary['workloads'][workload]['failed']}")
        for name, entry in metrics.items():
            shift = f"  shift {entry['shift']:+.3f}" if "shift" in entry else ""
            print(
                f"  {name:<40} median {entry['median']:<12.6g} {entry['unit']:<6}"
                f" spread {entry['spread']:.3f}{shift}"
            )
        for name, entry in notes.items():
            print(f"  ({name:<38}) median {entry['median']:<12.6g} spread {entry['spread']:.3f}")
        sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
