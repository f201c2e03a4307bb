"""The three benchmark workloads: certify, evaluate and cli.

Each workload is a closed loop with one caller in one process (``cli`` runs
one child process at a time).  A :class:`Run` collects what a workload
measured: metric values, sample counts, output hashes, failure counts and
the reasons, if any, that the run's outputs were not correct.

The library is driven only through its public functions, looked up as
module attributes at call time so that a traced run sees the wrappers that
:mod:`tracing` installs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import gen
import oracle
from calib import Calibration
from tracing import Tracer, install_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Exception types reported on their own; everything else is "other".
EXCEPTION_KINDS = ("OverflowError", "ZeroDivisionError", "ValueError")
BRANCHES = ("generic", "limit-1", "limit0", "limit1", "series-small-t", "degenerate-equal")
CLI_SUBCOMMANDS = ("compare", "scan", "series", "verify", "thresholds", "moments")
CLI_FAIL_KINDS = ("exit_code", "traceback", "nan", "nondeterministic")
LAYERS = ("lambda_family", "classical", "highprec", "inequalities", "jensen")
FAIL_CONFIDENCE = 0.95  # of the upper bound that fail_ratio reports


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run; :data:`SMOKE` shrinks everything to seconds."""

    pairs: int = 3000               # evaluate: two-point inputs (7 calls each)
    samples: int = 600              # evaluate: n-point inputs (2 calls each)
    cross_pairs: int = 1000         # certify/cli: the evaluate cross-check stream,
    cross_samples: int = 300
    cross_chunk_seconds: float = 0.5  # timed after every certify pass or cli round
    pair_ladder_step: float = 0.5   # decades between edge-ladder points
    sample_ladder_step: float = 0.25
    setup_repeats: int = 5
    certify_setup_repeats: int = 3
    sentinel_passes: int = 3        # evaluate/cli: certify passes for certify_pass_s
    cli_repeats: int = 3            # cli: each subcommand this often per round
    sentinel_rounds: int = 2        # certify/evaluate: cli rounds for cli_p50/p90_ms
    min_invocations: int = 100      # cli: p90 keeps ten samples beyond it
    smoke: bool = False


FULL = Sizes()
SMOKE = Sizes(pairs=40, samples=12, cross_pairs=20, cross_samples=6,
              cross_chunk_seconds=0.05, pair_ladder_step=2.5, sample_ladder_step=2.5,
              setup_repeats=1, certify_setup_repeats=1, sentinel_passes=1,
              cli_repeats=1, sentinel_rounds=1, min_invocations=0, smoke=True)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.hashes: dict[str, str] = {}
        self.problems: list[str] = []
        # distinct operations, each checked; a repeat must reproduce the
        # first outcome, and an operation that fails in any repeat is failed
        self.attempted = 0
        self.failed = 0
        self.extra: dict[str, object] = {}
        self.spans: list[dict] = []
        self.unobserved: list[str] = []
        self.calibration = Calibration()

    def unobserved_metric(self, name: str) -> None:
        """A per-layer metric that nothing in this run measured, such as a
        time per call of a function the workload never calls.  Every
        declared metric must be printed, so it reads 0; the record lists it."""
        self.values[name] = 0.0
        self.unobserved.append(name)


def library() -> SimpleNamespace:
    """The library modules, imported from the checkout's src/."""
    import jensenmeans
    from jensenmeans import classical, errors, highprec, inequalities, jensen, lambda_family

    here = Path(jensenmeans.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise RuntimeError(f"jensenmeans imported from {here}, not from {SRC}")
    return SimpleNamespace(classical=classical, errors=errors, highprec=highprec,
                           inequalities=inequalities, jensen=jensen,
                           lambda_family=lambda_family)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fail_bound(failed: int, n: int) -> float:
    """One-sided Clopper-Pearson upper bound on a failure probability.

    It is the fail_ratio the benchmark reports: never 0, so a workload on
    which nothing failed still reads as "fewer than this share fail", and
    it grows at once when a failure appears.
    """
    if n <= 0:
        raise ValueError("no operations attempted")
    if failed >= n:
        return 1.0
    if failed == 0:
        return 1.0 - (1.0 - FAIL_CONFIDENCE) ** (1.0 / n)
    from scipy.special import betaincinv

    return float(betaincinv(failed + 1, n - failed, FAIL_CONFIDENCE))


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    i = int(pos)
    frac = pos - i
    upper = ordered[min(i + 1, len(ordered) - 1)]
    return float(ordered[i] + frac * (upper - ordered[i]))


# A set-up child times `body` (which fills `result`) and rescales the time by
# the reference measured in the same process before and after it.
SETUP_SCRIPT = """
import sys, time
sys.path.insert(0, {here!r})
from calib import REFERENCE_S, reference_time
before = reference_time()
result = {{}}
t0 = time.perf_counter()
{body}
elapsed = time.perf_counter() - t0
after = reference_time()
import json
result["setup_s"] = elapsed * 2.0 * REFERENCE_S / (before + after)
result["raw_setup_s"] = elapsed
print(json.dumps(result))
"""


def run_child(body: str, timeout: float = 120.0) -> dict:
    """Run `body` in a fresh interpreter under SETUP_SCRIPT."""
    script = SETUP_SCRIPT.format(here=str(HERE), body=body.strip())
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(run: Run, script: str, repeats: int) -> None:
    """Median fresh-process set-up time over `repeats` children -> setup_s."""
    reports = [run_child(script) for _ in range(repeats)]
    run.values["setup_s"] = statistics.median(r["setup_s"] for r in reports)
    run.samples["setup_s"] = repeats
    run.extra["raw.setup_s"] = statistics.median(r["raw_setup_s"] for r in reports)


# ---------------------------------------------------------------------------
# evaluate: the seeded stream of scalar library calls
# ---------------------------------------------------------------------------

# call name -> module that owns it
CALL_MODULE = {
    "lambda_mean": "lambda_family",
    "mean_value": "classical",
    "power_gap_ratio": "jensen",
    "lambda_quotient": "jensen",
}


class Call(NamedTuple):
    name: str
    args: tuple
    lo: float
    hi: float
    reference: tuple  # (function, args) of the oracle


class Stream:
    """Two-point and n-point calls with their bounds and oracle references."""

    def __init__(self, lib: SimpleNamespace, pairs, samples):
        self.lib = lib
        self.pair_calls: list[Call] = []
        for p in pairs:
            lo, hi = min(p.a, p.b), max(p.a, p.b)
            self.pair_calls.append(Call("lambda_mean", (p.s, p.a, p.b), lo, hi,
                                        (oracle.lambda_mean, (p.s, p.a, p.b))))
            for kind in gen.MEANS:
                self.pair_calls.append(Call("mean_value", (kind, p.a, p.b), lo, hi,
                                            (oracle.classical_mean, (kind, p.a, p.b))))
        self.sample_calls: list[Call] = []
        for smp in samples:
            sample = lib.jensen.WeightedSample(smp.points, smp.weights)
            ref = (oracle.gap_quotient, (smp.s, smp.points, smp.weights))
            lo, hi = min(smp.points), max(smp.points)
            self.sample_calls.append(Call("power_gap_ratio", (smp.s, sample), lo, hi, ref))
            self.sample_calls.append(Call("lambda_quotient", (lib.jensen.power_pair(smp.s), sample),
                                          lo, hi, ref))

    def bound(self, calls: list[Call]) -> list[tuple]:
        """(function, args) pairs, resolved now so that wrappers are seen."""
        fns = {name: getattr(getattr(self.lib, module), name) for name, module in CALL_MODULE.items()}
        return [(fns[c.name], c.args) for c in calls]


def run_block(calls) -> list:
    """Call each (fn, args) once; exceptions are kept as their class."""
    out = []
    keep = out.append
    for fn, args in calls:
        try:
            result = fn(*args)
        except Exception as exc:  # classified after the timed block
            result = exc.__class__
        keep(result)
    return out


def _value(result):
    return getattr(result, "value", result)


def same_result(a, b) -> bool:
    if a is b or a == b:
        return True
    va, vb = _value(a), _value(b)
    return (isinstance(va, float) and isinstance(vb, float) and va != va and vb != vb
            and getattr(a, "branch", None) == getattr(b, "branch", None))


def classify(lib, call: Call, result, refs: dict) -> tuple[str, float | None]:
    """Outcome kind of one call and, when it succeeded, its relative error."""
    if isinstance(result, type) and issubclass(result, BaseException):
        if issubclass(result, lib.errors.MeansError):
            return "accepted", None
        name = result.__name__
        return "exception." + (name if name in EXCEPTION_KINDS else "other"), None
    value = _value(result)
    if not math.isfinite(value):
        return "nonfinite", None
    if not call.lo <= value <= call.hi:
        return "range", None
    key = repr((call.reference[0].__name__, call.reference[1]))
    ref = refs.get(key)
    if ref is None:
        ref = refs[key] = call.reference[0](*call.reference[1])
    return "ok", abs(value - ref) / abs(ref)


class Validation(NamedTuple):
    kinds: Counter
    pair_max_err: float
    npoint_max_err: float
    distinct: int
    failed: int
    branches: Counter
    digest: str


def validate(lib, stream: Stream, refs: dict | None = None) -> Validation:
    """One untimed pass over every call, checked against the oracle; `refs`
    holds oracle values by input and gains those computed here."""
    kinds: Counter = Counter()
    branches: Counter = Counter()
    errors = {"pair": 0.0, "npoint": 0.0}
    refs = {} if refs is None else refs
    digest = hashlib.sha256()
    for group, calls in (("pair", stream.pair_calls), ("npoint", stream.sample_calls)):
        results = run_block(stream.bound(calls))
        for call, result in zip(calls, results):
            kind, err = classify(lib, call, result, refs)
            kinds[kind] += 1
            if err is not None:
                errors[group] = max(errors[group], err)
            if call.name == "lambda_mean" and hasattr(result, "branch"):
                branches[result.branch] += 1
            digest.update(repr(result).encode())
    failed = sum(n for kind, n in kinds.items() if kind not in ("ok", "accepted"))
    return Validation(kinds, errors["pair"], errors["npoint"], sum(kinds.values()), failed,
                      branches, digest.hexdigest())


# The ladder is the same in every run, and its oracle values (3 s of mpmath
# at 60 digits) are kept between runs in the checkout.  They depend only on
# the input and on oracle.py, whose hash names the file; the library's
# outputs are still computed and checked in every run.
ORACLE_HASH = hashlib.sha256((HERE / "oracle.py").read_bytes()).hexdigest()[:16]
LADDER_REFS = HERE / "out" / f"ladder-refs-{ORACLE_HASH}.json"


def ladder_refs() -> dict:
    try:
        return json.loads(LADDER_REFS.read_text())
    except (OSError, ValueError):
        return {}


def save_ladder_refs(refs: dict) -> None:
    LADDER_REFS.parent.mkdir(exist_ok=True)
    partial = LADDER_REFS.with_suffix(".partial")
    partial.write_text(json.dumps(refs))
    os.replace(partial, LADDER_REFS)


class Sweep(NamedTuple):
    seconds: float      # at the reference speed (calib.py), as are the others
    pair_s: float
    npoint_s: float
    raw_seconds: float


def sweep(stream: Stream, run: Run, first: list) -> Sweep:
    """One timed pass over the stream; results must repeat those in `first`."""
    pair_calls = stream.bound(stream.pair_calls)
    sample_calls = stream.bound(stream.sample_calls)
    cal = run.calibration
    cal.scale()
    t0 = time.perf_counter()
    results = run_block(pair_calls)
    pair_raw = time.perf_counter() - t0
    pair_s = pair_raw * cal.scale()
    t0 = time.perf_counter()
    results += run_block(sample_calls)
    sample_raw = time.perf_counter() - t0
    sample_s = sample_raw * cal.scale()
    if not first:
        first.extend(results)
    elif results != first and not all(map(same_result, results, first)):
        run.problems.append("evaluate results differ between identical sweeps")
    return Sweep(pair_s + sample_s, pair_s, sample_s, pair_raw + sample_raw)


class Evaluation:
    """A stream checked once against the oracle, with its edge ladders,
    then timed in sweeps for as long as :meth:`run_for` is asked to."""

    def __init__(self, lib, run: Run, pairs, samples, prefix: str):
        sizes = run.sizes
        self.lib, self.run = lib, run
        self.timed = Stream(lib, pairs, samples)
        self.stream = validate(lib, self.timed)
        refs = ladder_refs()
        known = len(refs)
        self.ladder = validate(lib, Stream(lib, gen.pair_ladder(sizes.pair_ladder_step),
                                           gen.sample_ladder(sizes.sample_ladder_step)), refs)
        if len(refs) > known:
            save_ladder_refs(refs)
        self.pair_calls = len(self.timed.pair_calls)
        self.sample_calls = len(self.timed.sample_calls)
        self.sweeps: list[Sweep] = []   # untraced
        self.traced: list[Sweep] = []
        self.elapsed = 0.0              # wall seconds spent in run_for
        self._first: list = []
        run.hashes[prefix + "stream_results"] = self.stream.digest
        run.hashes[prefix + "ladder_results"] = self.ladder.digest
        run.extra[prefix + "outcomes"] = dict(self.stream.kinds + self.ladder.kinds)
        run.extra[prefix + "stream_max_rel_err"] = {"pair": self.stream.pair_max_err,
                                                    "npoint": self.stream.npoint_max_err}

    def run_for(self, seconds: float, tracer: Tracer | None = None) -> None:
        """Time sweeps for `seconds`; with a tracer, untraced and traced sweeps alternate."""
        start = time.perf_counter()
        while (not self.sweeps or time.perf_counter() - start < seconds
               or (tracer is not None and not self.traced)):
            if tracer is not None and len(self.traced) < len(self.sweeps):
                install_layers(tracer, self.lib)
                try:
                    self.traced.append(sweep(self.timed, self.run, self._first))
                finally:
                    tracer.restore()
            else:
                self.sweeps.append(sweep(self.timed, self.run, self._first))
        self.elapsed += time.perf_counter() - start


def set_evaluate_metrics(run: Run, ev: Evaluation) -> None:
    """The end-to-end metrics an evaluation gives."""
    v, n = run.values, len(ev.sweeps)
    # over the ladder only: a maximum over seeded edge inputs is set by the
    # one input a seed happens to draw and varies between seeds beyond any bound
    v["oracle_max_rel_err"] = ev.ladder.pair_max_err
    v["npoint_max_rel_err"] = ev.ladder.npoint_max_err
    run.extra["raw.sweep_s"] = statistics.median(s.raw_seconds for s in ev.sweeps)
    v["pair_evals_per_s"] = statistics.median(ev.pair_calls / s.pair_s for s in ev.sweeps)
    v["npoint_evals_per_s"] = statistics.median(ev.sample_calls / s.npoint_s for s in ev.sweeps)
    run.samples["pair_evals_per_s"] = run.samples["npoint_evals_per_s"] = n
    run.samples["oracle_checked_calls"] = ev.ladder.distinct


def threshold_errors(catalog) -> dict[str, float]:
    if not isinstance(catalog, dict):
        return {}
    refs = oracle.threshold_references()
    return {key: abs(catalog[key].critical_s - ref) for key, ref in refs.items() if key in catalog}


def max_threshold_error(catalog) -> float:
    errors = threshold_errors(catalog)
    return max(errors.values()) if errors else math.inf


# ---------------------------------------------------------------------------
# certify: threshold_catalog() plus verify_part(1..8)
# ---------------------------------------------------------------------------

# One order inside each part's interval (part 8 keeps its default orders):
# tiny verify_part calls that fill every lazy cache a certify pass uses.
PART_PROBE_ORDERS = {1: [0.0, 1.0], 2: [-5.0], 3: [-2.0], 4: [-0.25], 5: [0.5],
                     6: [1.5], 7: [3.0], 8: None}

CERTIFY_WARMUP = f"""
from jensenmeans import inequalities
for part, orders in {PART_PROBE_ORDERS!r}.items():
    inequalities.verify_part(part, s_values=orders, t_values=[0.25, 0.5, 0.75])
"""

CATALOG_KEYS = ("H.upper", "H.lower", "G.upper", "G.lower", "L.upper", "L.lower",
                "I.upper", "I.lower", "A.upper", "A.lower", "S.upper")
PARTS = tuple(range(1, 9))


def certify_pass(lib, run: Run) -> dict:
    """One pass; returns per-op seconds, outputs and failure flags."""
    ineq = lib.inequalities
    smoke = run.sizes.smoke
    cal = run.calibration
    out = {"times": {}, "outputs": {}, "failed": {}}
    cal.scale()
    t0 = time.perf_counter()
    try:
        catalog = ineq.threshold_catalog(tol=1e-3) if smoke else ineq.threshold_catalog()
    except Exception as exc:  # counted: a BracketError or any other error
        catalog = exc
    raw = {"catalog": time.perf_counter() - t0}
    out["times"]["catalog"] = raw["catalog"] * cal.scale()
    out["outputs"]["threshold_catalog"] = catalog
    for part in PARTS:
        t0 = time.perf_counter()
        try:
            if smoke:
                report = ineq.verify_part(part, s_values=PART_PROBE_ORDERS[part],
                                          t_values=[0.25, 0.5])
            else:
                report = ineq.verify_part(part)
        except Exception as exc:
            report = exc
        raw[part] = time.perf_counter() - t0
        out["times"][part] = raw[part] * cal.scale()
        out["outputs"][f"verify_part.{part}"] = report
    out["pass_s"] = sum(out["times"].values())
    out["raw_pass_s"] = sum(raw.values())
    ok_catalog = isinstance(catalog, dict) and set(catalog) == set(CATALOG_KEYS)
    for key in CATALOG_KEYS:
        out["failed"][key] = not ok_catalog
    for part in PARTS:
        report = out["outputs"][f"verify_part.{part}"]
        out["failed"][f"verify_part.{part}"] = not getattr(report, "passed", False)
    return out


def certify_check(run: Run, passes: list[dict], prefix: str = "", count: bool = True) -> None:
    """Output hashes and determinism across passes; with `count`, the
    operations of a pass are counted as the run's operations."""
    first = passes[0]
    for name, value in first["outputs"].items():
        run.hashes[prefix + name] = sha256(repr(value))
    failed_ops = set()
    for p in passes:
        failed_ops.update(op for op, bad in p["failed"].items() if bad)
        for name, value in p["outputs"].items():
            if sha256(repr(value)) != run.hashes[prefix + name]:
                run.problems.append(f"{prefix}{name} differs between identical passes")
    if count:
        run.attempted += len(first["failed"])
        run.failed += len(failed_ops)
    for op in sorted(failed_ops):
        run.problems.append(f"{prefix}{op} failed")


def certify_sentinel(lib, run: Run) -> None:
    """certify_pass_s and threshold_max_abs_err on the workloads that are not
    certify: a few certify passes after the CERTIFY_WARMUP probes, which
    fill every lazy cache a pass uses."""
    for part, orders in PART_PROBE_ORDERS.items():
        lib.inequalities.verify_part(part, s_values=orders, t_values=[0.25, 0.5, 0.75])
    passes = [certify_pass(lib, run) for _ in range(run.sizes.sentinel_passes)]
    certify_check(run, passes, prefix="sentinel.", count=False)
    run.values["certify_pass_s"] = statistics.median(p["pass_s"] for p in passes)
    run.samples["certify_pass_s"] = len(passes)
    run.values["threshold_max_abs_err"] = max_threshold_error(
        passes[0]["outputs"]["threshold_catalog"])


def cross_check(lib, run: Run) -> Evaluation | None:
    """The evaluate stream, small, for the certify and cli runs' library metrics.

    It is timed in chunks between passes or rounds, so that its sweeps
    span the same stretch of the run as the workload's own measurements.
    """
    if run.trace:
        return None
    pairs, samples = gen.stream(run.seed, run.sizes.cross_pairs, run.sizes.cross_samples)
    return Evaluation(lib, run, pairs, samples, "cross_check.")


def certify(lib, run: Run) -> None:
    sizes = run.sizes
    if not run.trace:
        measure_setup(run, CERTIFY_WARMUP, sizes.certify_setup_repeats)
    cross = cross_check(lib, run)
    warm = certify_pass(lib, run)  # fills the lazy caches in this process
    passes: list[dict] = []
    traced: list[dict] = []
    tracer = Tracer() if run.trace else None
    start = time.perf_counter()

    def elapsed() -> float:  # the cross-check's chunks do not count
        return time.perf_counter() - start - (cross.elapsed if cross else 0.0)

    while not passes or elapsed() < run.seconds or (tracer is not None and not traced):
        if tracer is not None and passes and len(traced) < len(passes):
            install_layers(tracer, lib)
            try:
                traced.append(certify_pass(lib, run))
            finally:
                tracer.restore()
        else:
            passes.append(certify_pass(lib, run))
            if cross is not None:
                cross.run_for(sizes.cross_chunk_seconds)
    certify_check(run, [warm] + passes + traced)
    catalog = warm["outputs"]["threshold_catalog"]
    run.extra["certify.op_s"] = {str(op): statistics.median(p["times"][op] for p in passes)
                                 for op in warm["times"]}
    if tracer is not None:
        layer_metrics(run, tracer, [p["pass_s"] for p in traced], [p["pass_s"] for p in passes],
                      sum(p["raw_pass_s"] for p in traced))
        errors = threshold_errors(catalog)
        for key in oracle.threshold_references():
            run.values[f"inequalities.threshold.{key}.abs_err"] = errors.get(key, math.inf)
        cli_import_metrics(run)
        for name in CLI_ROUND_METRICS + EVALUATE_FAIL_METRICS:
            run.unobserved_metric(name)
        run.spans = tracer.spans
        return
    run.values["certify_pass_s"] = statistics.median(p["pass_s"] for p in passes)
    run.samples["certify_pass_s"] = len(passes)
    run.extra["certify.pass_s"] = [p["pass_s"] for p in passes]
    run.extra["raw.certify.pass_s"] = [p["raw_pass_s"] for p in passes]
    run.values["threshold_max_abs_err"] = max_threshold_error(catalog)
    set_evaluate_metrics(run, cross)
    run.values["peak_rss_mb"] = peak_rss_mb()
    cli_sentinel(run)


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run, the same on every workload
# ---------------------------------------------------------------------------

CLI_ROUND_METRICS = ([f"cli.{sub}.p50_ms" for sub in CLI_SUBCOMMANDS]
                     + [f"cli.fail.{kind}" for kind in CLI_FAIL_KINDS])
EVALUATE_FAIL_METRICS = (["evaluate.fail.range", "evaluate.fail.nonfinite"]
                         + [f"evaluate.fail.exception.{name}" for name in EXCEPTION_KINDS + ("other",)]
                         + ["evaluate.accepted_means_error"])


def per_call(run: Run, name: str, calls: int, inclusive_ns: int, scale: float = 1.0) -> None:
    """Inclusive time per call (ns times `scale`); unobserved without calls."""
    if calls:
        run.values[name] = inclusive_ns / calls * scale
    else:
        run.unobserved_metric(name)


def layer_metrics(run: Run, tracer: Tracer, traced: list[float], plain: list[float],
                  traced_raw_s: float) -> None:
    """Per-layer metrics from a tracer that saw len(traced) passes (sweeps on
    evaluate, rounds on cli).  `traced` and `plain` are the traced and
    untraced pass times at the reference speed; the tracer's times are raw,
    so its shares are taken of `traced_raw_s`, the raw traced time."""
    v = run.values
    n = len(traced)
    v["trace.pass_s"] = statistics.median(traced)
    v["trace.untraced_pass_s"] = statistics.median(plain)
    v["trace.overhead_share"] = v["trace.pass_s"] / v["trace.untraced_pass_s"] - 1.0
    self_sum = 0
    for layer in LAYERS:
        self_sum += tracer.layer_self_ns(layer)
        v[f"{layer}.self_s"] = tracer.layer_self_ns(layer) / 1e9 / n
        v[f"{layer}.calls"] = tracer.layer_calls(layer) / n
    v["trace.layer_sum_share"] = self_sum / 1e9 / traced_raw_s
    v["highprec.share"] = tracer.layer_self_ns("highprec") / 1e9 / traced_raw_s
    family = [tracer.by_name(name) for name in ("lambda_ratio", "lambda_mean")]
    per_call(run, "lambda_family.ns_per_call", sum(r[0] for r in family), sum(r[1] for r in family))
    for tag in BRANCHES:
        calls, inclusive, _, _ = tracer.by_sub("lambda_mean", tag)
        v[f"lambda_family.branch.{tag}.count"] = calls / n
        per_call(run, f"lambda_family.branch.{tag}.ns_per_call", calls, inclusive)
    for kind in gen.MEANS:
        per_call(run, f"classical.mean_value.{kind}.ns_per_call", *tracer.by_sub("mean_value", kind)[:2])
    for name in ("power_gap_ratio", "lambda_quotient"):
        per_call(run, f"jensen.{name}.ns_per_call", *tracer.by_name(name)[:2])
    v["jensen.power_gap.calls"] = tracer.by_name("power_gap")[0] / n
    v["inequalities.bisect_iterations"] = tracer.by_name("solve_threshold")[3] / n
    v["inequalities.checks"] = tracer.by_name("verify_part")[3] / n
    per_call(run, "inequalities.catalog_s", *tracer.by_name("threshold_catalog")[:2], scale=1e-9)
    for part in PARTS:
        per_call(run, f"inequalities.verify_part.{part}.s",
                 *tracer.by_sub("verify_part", part)[:2], scale=1e-9)
    run.samples["traced_passes"] = n
    run.samples["untraced_passes"] = len(plain)


def cli_import_metrics(run: Run) -> None:
    """cli.import_ms, cli.modules_loaded and cli.mpmath_loaded from fresh
    processes that import the CLI."""
    reports = [run_child(CLI_IMPORT) for _ in range(run.sizes.setup_repeats)]
    run.values["cli.import_ms"] = statistics.median(r["setup_s"] for r in reports) * 1e3
    run.values["cli.modules_loaded"] = reports[0]["modules"]
    run.values["cli.mpmath_loaded"] = 1 if reports[0]["mpmath"] else 0
    run.samples["cli.import_ms"] = len(reports)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

EVALUATE_WARMUP = """
from jensenmeans import classical, jensen, lambda_family
lambda_family.lambda_mean(0.5, 1.0, 2.0)
for kind in "HGLIAS":
    classical.mean_value(kind, 1.0, 2.0)
sample = jensen.WeightedSample([1.0, 2.0, 4.0])
jensen.power_gap_ratio(0.5, sample)
jensen.lambda_quotient(jensen.power_pair(0.5), sample)
"""


def evaluate(lib, run: Run) -> None:
    sizes = run.sizes
    pairs, samples = gen.stream(run.seed, sizes.pairs, sizes.samples)
    if not run.trace:
        measure_setup(run, EVALUATE_WARMUP, sizes.setup_repeats)
    ev = Evaluation(lib, run, pairs, samples, "evaluate.")
    tracer = Tracer() if run.trace else None
    ev.run_for(run.seconds, tracer)
    count_evaluation(run, ev)
    if tracer is not None:
        layer_metrics(run, tracer, [s.seconds for s in ev.traced], [s.seconds for s in ev.sweeps],
                      sum(s.raw_seconds for s in ev.traced))
        fail_kinds(run, ev.stream.kinds + ev.ladder.kinds)
        cli_import_metrics(run)
        for name in CLI_ROUND_METRICS:
            run.unobserved_metric(name)
        for key in oracle.threshold_references():
            run.unobserved_metric(f"inequalities.threshold.{key}.abs_err")
        run.spans = tracer.spans
        return
    set_evaluate_metrics(run, ev)
    run.values["peak_rss_mb"] = peak_rss_mb()
    certify_sentinel(lib, run)
    cli_sentinel(run)


def count_evaluation(run: Run, ev: Evaluation) -> None:
    """The checked calls of the stream and the ladder are the run's
    operations; a timed sweep repeats the stream and must reproduce it."""
    for checked in (ev.stream, ev.ladder):
        run.attempted += checked.distinct
        run.failed += checked.failed


def fail_kinds(run: Run, kinds: Counter) -> None:
    v = run.values
    v["evaluate.fail.range"] = kinds.get("range", 0)
    v["evaluate.fail.nonfinite"] = kinds.get("nonfinite", 0)
    for name in EXCEPTION_KINDS + ("other",):
        v[f"evaluate.fail.exception.{name}"] = kinds.get(f"exception.{name}", 0)
    v["evaluate.accepted_means_error"] = kinds.get("accepted", 0)


# ---------------------------------------------------------------------------
# cli: fresh `python -m jensenmeans.cli` processes
# ---------------------------------------------------------------------------

CLI_IMPORT = """
modules_before = len(sys.modules)
import jensenmeans.cli
result["modules"] = len(sys.modules) - modules_before
result["mpmath"] = "mpmath" in sys.modules
"""

NAN = re.compile(r"\bnan\b", re.IGNORECASE)


class Command(NamedTuple):
    sub: str
    argv: tuple[str, ...]
    allowed: frozenset   # exit codes the contract allows for this input
    contract: bool       # one of the stated error-contract cases


def _num(x: float) -> str:
    return repr(float(x))


def cli_mix(seed: int, repeats: int) -> list[Command]:
    """One round of invocations; the round is repeated unchanged.

    No record of how the CLI is used is available, so no subcommand is
    weighted above another: each of the six runs `repeats` times a round
    (compare, scan and moments with other seeded arguments each time) and
    each of the three error-contract cases once, which at repeats=3 is 3 of
    21 invocations (1/7).  The shares are an assumption; the per-subcommand
    medians (cli.<subcommand>.p50_ms) let a later mix be reweighted.
    """
    rng = random.Random(seed)
    ok = frozenset({0})

    def compare():
        a, b = (10.0 ** rng.uniform(-3, 3) for _ in range(2))
        return Command("compare", ("compare", _num(a), _num(b), f"--s={_num(rng.uniform(-10, 10))}"),
                       ok, False)

    def scan():
        s_lo, s_hi = rng.uniform(-10, 0), rng.uniform(0, 10)
        t_lo, t_hi = rng.uniform(1e-3, 0.2), rng.uniform(0.5, 0.99)
        return Command("scan", ("scan", f"--s={_num(s_lo)}:{_num(s_hi)}:21",
                                f"--t={_num(t_lo)}:{_num(t_hi)}:9"), ok, False)

    def moments():
        lo = rng.uniform(-5, 5)
        return Command("moments", ("moments", "--dist", "uniform", f"--lo={_num(lo)}",
                                   f"--hi={_num(lo + rng.uniform(0.1, 5))}",
                                   "--seed", str(rng.randrange(2**31)), "--draws", "20000"),
                       ok, False)

    series = Command("series", ("series", "--n-max", "60"), ok, False)
    verify = Command("verify", ("verify", "--part", "7", "--grid", "500"), ok, False)
    thresholds = Command("thresholds", ("thresholds", "--targets", "A"), ok, False)
    mix = []
    for _ in range(repeats):
        mix += [compare(), scan(), series, verify, thresholds, moments()]
    mix += [
        Command("compare", ("compare", "0", _num(10.0 ** rng.uniform(-3, 3))), frozenset({2}), True),
        Command("moments", ("moments", "--dist", "discrete", "--points", "1,x"), frozenset({2}), True),
        # must either evaluate (exit 0, no NaN printed) or refuse the input (exit 2)
        Command("scan", ("scan", "--s", "1e8", "--t", "0.0005"), frozenset({0, 2}), True),
    ]
    rng.shuffle(mix)
    return mix


# Starts each CLI process and reports its wall time.  The CLI processes are
# children of this small process, not of the benchmark: on Linux a child's
# recorded peak memory includes the image of the process it was spawned
# from, which would make the benchmark's own size the CLI's peak.
LAUNCHER = """
import json, resource, subprocess, sys, time
for line in sys.stdin:
    t0 = time.perf_counter()
    proc = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps([elapsed, proc.returncode, proc.stdout, proc.stderr, peak_kib]), flush=True)
"""

# A traced CLI invocation: the CLI's main() with the layers wrapped, the
# tracer's records written to the file named by the first argument.
CLI_TRACED = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
from tracing import Tracer, install_layers
import jensenmeans
import jensenmeans.cli as cli
tracer = Tracer()
install_layers(tracer, jensenmeans, cli)
try:
    code = cli.main(sys.argv[2:])
finally:
    tracer.restore()
    with open(sys.argv[1], "w") as out:
        json.dump(tracer.export(), out)
raise SystemExit(code)
"""
CHILD_TRACE = HERE / "out" / "cli-child-trace.json"


class Launcher:
    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        self.peak_mb = 0.0

    def invoke(self, cmd: Command, traced: bool = False) -> tuple[float, int, str, str]:
        """(seconds, exit code, stdout, stderr) of one `python -m jensenmeans.cli`
        run or, `traced`, of the same CLI run under CLI_TRACED."""
        head = ["-c", CLI_TRACED, str(CHILD_TRACE)] if traced else ["-m", "jensenmeans.cli"]
        self.proc.stdin.write(json.dumps([sys.executable, *head, *cmd.argv]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the CLI launcher stopped")
        seconds, code, stdout, stderr, peak_kib = json.loads(line)
        self.peak_mb = peak_kib / 1024.0
        return seconds, code, stdout, stderr

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def cli_failures(cmd: Command, code: int, stdout: str, stderr: str) -> list[str]:
    kinds = []
    if code not in cmd.allowed:
        kinds.append("exit_code")
    if "Traceback (most recent call last)" in stderr:
        kinds.append("traceback")
    if code == 0 and NAN.search(stdout):
        kinds.append("nan")
    return kinds


@dataclass
class CliLog:
    """What rounds of one mix measured; times are at the reference speed."""

    mix: list[Command]
    times: list[float] = field(default_factory=list)       # untraced invocations
    raw_times: list[float] = field(default_factory=list)
    by_sub: dict[str, list[float]] = field(default_factory=dict)
    rounds: list[float] = field(default_factory=list)      # untraced rounds
    traced_rounds: list[float] = field(default_factory=list)
    traced_raw_s: float = 0.0
    first_out: dict[int, str] = field(default_factory=dict)
    failed_kinds: dict[int, set] = field(default_factory=dict)
    peak_mb: float = 0.0


def cli_round(run: Run, launcher: Launcher, log: CliLog, tracer: Tracer | None) -> None:
    """Every command of the mix once; with a tracer, each CLI process is traced."""
    round_s = 0.0
    for i, cmd in enumerate(log.mix):
        span_start = time.perf_counter_ns()
        CHILD_TRACE.unlink(missing_ok=True)  # a process that fails early writes none
        raw, code, stdout, stderr = launcher.invoke(cmd, traced=tracer is not None)
        seconds = raw * run.calibration.scale()
        round_s += seconds
        digest = sha256(stdout)
        kinds = cli_failures(cmd, code, stdout, stderr)
        if log.first_out.setdefault(i, digest) != digest:
            kinds.append("nondeterministic")
            run.problems.append(
                f"cli {' '.join(cmd.argv)}: stdout differs between identical invocations")
        log.failed_kinds.setdefault(i, set()).update(kinds)
        if tracer is None:
            log.raw_times.append(raw)
            log.times.append(seconds)
            log.by_sub.setdefault(cmd.sub, []).append(seconds)
            continue
        log.traced_raw_s += raw
        child = json.loads(CHILD_TRACE.read_text()) if CHILD_TRACE.exists() else None
        tracer.spans.append({
            "name": "cli." + cmd.sub, "args": list(cmd.argv), "parent": None,
            "start_ns": span_start - tracer.origin_ns,
            "end_ns": time.perf_counter_ns() - tracer.origin_ns,
            "exit_code": code, "failures": kinds,
            "inner": {layer: {"calls": calls, "self_ns": ns}
                      for layer, (calls, ns) in (child["layers"] if child else {}).items() if calls}})
        if child is not None:
            tracer.merge(child, parent=len(tracer.spans) - 1)
    (log.traced_rounds if tracer is not None else log.rounds).append(round_s)


def run_cli_rounds(run: Run, mix: list[Command], rounds: int | None = None,
                   cross: Evaluation | None = None, tracer: Tracer | None = None) -> CliLog:
    """`rounds` rounds of the mix or, without a count, rounds until `seconds`
    of them passed (and, untraced, enough invocations were made).  A chunk of
    the cross-check runs after every untraced round; with a tracer, untraced
    and traced rounds alternate."""
    log = CliLog(mix)
    CHILD_TRACE.parent.mkdir(exist_ok=True)
    launcher = Launcher()
    start = time.perf_counter()

    def more() -> bool:
        done = len(log.rounds) + len(log.traced_rounds)
        if rounds is not None:
            return done < rounds
        if not log.rounds or (tracer is not None and not log.traced_rounds):
            return True
        if tracer is None and len(log.times) < run.sizes.min_invocations:
            return True
        return time.perf_counter() - start - (cross.elapsed if cross else 0.0) < run.seconds

    try:
        while more():
            traced = tracer is not None and len(log.traced_rounds) < len(log.rounds)
            cli_round(run, launcher, log, tracer if traced else None)
            if not traced and cross is not None:
                cross.run_for(run.sizes.cross_chunk_seconds)
    finally:
        launcher.close()
    log.peak_mb = launcher.peak_mb
    return log


def count_cli(run: Run, log: CliLog) -> None:
    """The mix's commands are the run's operations; a command fails when
    any of its invocations does."""
    run.attempted += len(log.mix)
    run.failed += sum(1 for kinds in log.failed_kinds.values() if kinds)


def cli_hashes(run: Run, log: CliLog, prefix: str = "") -> None:
    for i, cmd in enumerate(log.mix):
        run.hashes[f"{prefix}cli[{i}] {' '.join(cmd.argv)}"] = log.first_out[i]


def set_cli_percentiles(run: Run, log: CliLog) -> None:
    run.values["cli_p50_ms"] = quantile(log.times, 0.5) * 1e3
    run.values["cli_p90_ms"] = quantile(log.times, 0.9) * 1e3
    run.samples["cli_p50_ms"] = run.samples["cli_p90_ms"] = len(log.times)
    run.extra["raw.cli_ms"] = {"p50": quantile(log.raw_times, 0.5) * 1e3,
                               "p90": quantile(log.raw_times, 0.9) * 1e3}


def cli_sentinel(run: Run) -> None:
    """cli_p50_ms and cli_p90_ms on the workloads that are not cli: a few
    rounds of the cli workload's mix for this seed (its failures are the cli
    workload's to count, and are listed in the record)."""
    log = run_cli_rounds(run, cli_mix(run.seed, run.sizes.cli_repeats),
                         rounds=run.sizes.sentinel_rounds)
    set_cli_percentiles(run, log)
    cli_hashes(run, log, prefix="sentinel.")
    run.extra["sentinel.cli_failed_commands"] = {
        " ".join(log.mix[i].argv): sorted(k) for i, k in log.failed_kinds.items() if k}


def cli(lib, run: Run) -> None:
    sizes = run.sizes
    mix = cli_mix(run.seed, sizes.cli_repeats)
    if run.trace:
        cli_import_metrics(run)
    else:
        measure_setup(run, CLI_IMPORT, sizes.setup_repeats)
    cross = cross_check(lib, run)
    tracer = Tracer() if run.trace else None
    log = run_cli_rounds(run, mix, cross=cross, tracer=tracer)
    count_cli(run, log)
    cli_hashes(run, log)
    run.extra["cli.contract_share"] = sum(c.contract for c in mix) / len(mix)
    run.extra["cli.sub_p50_ms"] = {sub: statistics.median(ts) * 1e3 for sub, ts in log.by_sub.items()}
    run.extra["cli.failed_commands"] = {
        " ".join(mix[i].argv): sorted(k) for i, k in log.failed_kinds.items() if k}
    if tracer is not None:
        v = run.values
        for sub in CLI_SUBCOMMANDS:
            v[f"cli.{sub}.p50_ms"] = statistics.median(log.by_sub[sub]) * 1e3
            run.samples[f"cli.{sub}.p50_ms"] = len(log.by_sub[sub])
        for kind in CLI_FAIL_KINDS:
            v[f"cli.fail.{kind}"] = sum(kind in k for k in log.failed_kinds.values())
        layer_metrics(run, tracer, log.traced_rounds, log.rounds, log.traced_raw_s)
        for key in oracle.threshold_references():
            run.unobserved_metric(f"inequalities.threshold.{key}.abs_err")
        for name in EVALUATE_FAIL_METRICS:
            run.unobserved_metric(name)
        run.spans = tracer.spans
        return
    set_cli_percentiles(run, log)
    run.values["peak_rss_mb"] = log.peak_mb
    # the library-level metrics come from the in-process cross-check and sentinel
    set_evaluate_metrics(run, cross)
    certify_sentinel(lib, run)


WORKLOADS = {"certify": certify, "evaluate": evaluate, "cli": cli}
