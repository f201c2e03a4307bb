#!/usr/bin/env python3
"""A/B record of the benchmark: parent and change runs, alternated, summarized.

    python3 tools/ab.py --parent DIR --change DIR --seed N --run cli:10 \\
        [--run evaluate:3 ...] [--seconds 15] [--claim cli_p90_ms:cli] --out BENCH_<n>.json

DIR is a checkout of each side (`git archive` of the parent commit into an
empty directory, say).  Each pair runs `python3 bench/run.py --workload W
--seed N --seconds S --trace 0` once from each root, the parent first in odd
pairs and the change first in even ones.  After each `cli` run, fresh
`python3 -c pass` processes are timed on the CPU the benchmark pins to, and
their median is scaled to the benchmark's reference speed by that run's own
ratio of `cli_p50_ms` to its raw p50: the interpreter's floor beside each
subcommand's median (`detail."cli.sub_p50_ms"`).

Per workload and end-to-end metric the record holds every pair, the medians,
the parent's interquartile range, the change's wins (ties count for neither)
and whether the change's median is within the metric's bound; with --claim,
whether at least 10 pairs ran, the change won nine tenths of them and the
medians differ by more than the parent's IQR.  The floor is measured next to
a run, not during it, so its scaled value is a size, not a baseline.  The
record is written after every pair, so a run cut short keeps the pairs it
finished.  Keys of an existing --out file that this tool does not write (a
description of the change, say) are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

FLOOR_RUNS = 31
SIDES = ("parent", "change")


def bench_record(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The full record of one untraced benchmark run from the checkout at root."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-2])  # the line before the result


def floor_ms(runs: int = FLOOR_RUNS) -> float:
    """Median wall time, in ms, of a fresh `python3 -c pass`."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def summarize(pairs: list[dict], bounds: dict[str, dict]) -> dict:
    """Per-metric summary of pairs {"parent": record, "change": record}."""
    metrics = {}
    for name, spec in bounds.items():
        ps = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        cs = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        lower = spec["better"] == "lower"
        # one pair, as a record written after the first pair holds, has no spread
        q1, _, q3 = statistics.quantiles(ps, n=4, method="inclusive") if len(ps) > 1 else ps * 3
        pm, cm = statistics.median(ps), statistics.median(cs)
        worse = (cm - pm) / pm if lower else (pm - cm) / pm
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "pairs": [[p, c] for p, c in zip(ps, cs)],
            "parent_median": pm, "change_median": cm, "parent_iqr": q3 - q1,
            "change_wins": sum(c < p if lower else c > p for p, c in zip(ps, cs)),
            "relative_worsening_of_median": worse, "within_bound": worse <= spec["bound"]}
    hashes = [pair[side]["hashes"] for pair in pairs for side in SIDES]
    return {
        "pairs_run": len(pairs),
        "metrics": metrics,
        "operations": {side: [[pair[side]["operations"]["attempted"],
                               pair[side]["operations"]["failed"]] for pair in pairs]
                       for side in SIDES},
        "correct": {side: [not pair[side]["problems"] for pair in pairs] for side in SIDES},
        "hash_differences": sorted({key for h in hashes for key in {*h, *hashes[0]}
                                    if h.get(key) != hashes[0].get(key)}),
    }


def cli_floor(pairs: list[dict]) -> dict:
    """The floor and each subcommand's median per pair, and their medians."""
    rows = []
    for pair in pairs:
        row = {}
        for side in SIDES:
            record, floor = pair[side], pair[side + "_floor_ms"]
            detail = record["detail"]
            scale = record["metrics"]["cli_p50_ms"]["value"] / detail["raw.cli_ms"]["p50"]
            row[side] = {"sub_p50_ms": detail["cli.sub_p50_ms"], "raw_cli_ms": detail["raw.cli_ms"],
                         "python_c_pass_raw_ms": floor, "python_c_pass_ms": floor * scale}
        rows.append(row)
    subs = sorted(rows[0]["parent"]["sub_p50_ms"])

    def median(side, key, sub=None):
        return statistics.median(r[side][key] if sub is None else r[side][key][sub] for r in rows)

    return {
        "per_pair": rows,
        "sub_p50_ms_median": {side: {sub: median(side, "sub_p50_ms", sub) for sub in subs}
                              for side in SIDES},
        "sub_p50_ms_change_wins": {
            sub: sum(r["change"]["sub_p50_ms"][sub] < r["parent"]["sub_p50_ms"][sub] for r in rows)
            for sub in subs},
        "python_c_pass_ms_median": {side: median(side, "python_c_pass_ms") for side in SIDES},
    }


def claim_result(metric: dict) -> dict:
    pairs, wins = len(metric["pairs"]), metric["change_wins"]
    gap = abs(metric["parent_median"] - metric["change_median"])
    better = (metric["change_median"] < metric["parent_median"]) == (metric["better"] == "lower")
    return {"pairs": pairs, "change_wins": wins, "parent_median": metric["parent_median"],
            "change_median": metric["change_median"], "parent_iqr": metric["parent_iqr"],
            "met": better and pairs >= 10 and wins >= 0.9 * pairs and gap > metric["parent_iqr"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:PAIRS")
    parser.add_argument("--claim", default=None, metavar="METRIC:WORKLOAD")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # the floor's processes share the CPU that bench/run.py pins itself to
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    roots = {"parent": args.parent, "change": args.change}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    workloads = {}
    record.update({
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "protocol": "tools/ab.py: pairs alternate which side runs first (the parent in odd "
                    "pairs); after each cli run the median of "
                    f"{FLOOR_RUNS} fresh `python3 -c pass` on the benchmark's CPU, "
                    "scaled by the run's cli_p50_ms over its raw p50",
        "environment": None,
        "workloads": workloads,
    })
    claim = args.claim.split(":") if args.claim else None
    for item in args.run:
        workload, count = item.split(":")
        pairs = []
        for i in range(1, int(count) + 1):
            pair = {}
            for side in SIDES if i % 2 else reversed(SIDES):
                pair[side] = bench_record(roots[side], workload, args.seed, args.seconds)
                if workload == "cli":
                    pair[side + "_floor_ms"] = floor_ms()
                print(f"{workload} pair {i} {side} done", file=sys.stderr, flush=True)
            pairs.append(pair)
            # written after every pair, so that a run cut short keeps what it measured
            record["environment"] = pairs[0]["parent"]["environment"]
            workloads[workload] = summarize(pairs, bounds)
            if workload == "cli":
                workloads[workload]["cli_floor"] = cli_floor(pairs)
            if claim and claim[1] == workload:
                record["claim"] = {"metric": claim[0], "workload": workload,
                                   "result": claim_result(workloads[workload]["metrics"][claim[0]])}
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
