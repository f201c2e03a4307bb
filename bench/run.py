#!/usr/bin/env python3
"""Benchmark of jensenmeans, run from the root of a checkout:

    python3 bench/run.py --workload {certify,evaluate,cli} --seed N \\
        --seconds S --trace {0,1} [--smoke]

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 is the
separate traced run that reports the per-layer metrics and its own overhead
(the metric names and units are listed in BENCHMARK.json).  --smoke runs
the same code on tiny inputs, in seconds, for the benchmark's own tests.
A traced run prints a metric that nothing in it measured (a time per call
of a function the workload never calls) as 0 and lists it in the record's
"unobserved".

The library is imported from the checkout's src/ and nowhere else; without
it the benchmark exits with code 2 and prints no result.  The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the full record of the run (run
environment, sample counts, output hashes, failure breakdown), also written
to bench/out/ together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

LIMITATION = (
    "CPU frequency, caches and the scheduler are not controlled: the machine "
    "may be shared and the benchmark changes no machine setting.  Timings are "
    "rescaled to a reference speed measured next to each timed interval "
    "(bench/calib.py), which cancels much but not all of the swing that other "
    "load causes; raw medians are under detail.raw.*."
)


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics a run of this mode must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(seed: int) -> dict:
    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "seed": seed,
        "limitation": LIMITATION,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "evaluate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "jensenmeans" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # One CPU for this process and its children, so that the reference
    # timings (calib.py) and the measured work share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads

    trace = bool(args.trace)
    run = workloads.Run(args.workload, args.seed, args.seconds, trace,
                        workloads.SMOKE if args.smoke else workloads.FULL)
    workloads.WORKLOADS[args.workload](workloads.library(), run)

    units = declared_metrics(trace)
    values = dict(run.values)
    if not trace:
        values["fail_ratio"] = workloads.fail_bound(run.failed, run.attempted)
        run.samples["fail_ratio"] = run.attempted
    missing = sorted(set(units) - set(values))
    unknown = sorted(set(values) - set(units))
    if missing or unknown:
        print(f"error: metrics missing {missing}, undeclared {unknown}", file=sys.stderr)
        return 3

    correct = not run.problems
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "metrics": metrics,
        "samples": run.samples,
        "operations": {"attempted": run.attempted, "failed": run.failed},
        "problems": run.problems,
        # per-layer metrics printed as 0 because nothing in this run measured them
        "unobserved": run.unobserved,
        "hashes": run.hashes,
        "detail": run.extra,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if trace:
        record["spans_file"] = str((OUT / f"{stem}-spans.json").relative_to(ROOT))
        (OUT / f"{stem}-spans.json").write_text(json.dumps(run.spans))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
