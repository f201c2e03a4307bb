"""Batch command-line surface.

Subcommands:

    compare     the six classical means plus requested family orders at (a, b)
    scan        profile table of the family and the classical means over a grid
    thresholds  every sharp comparison order with its evidence, JSON report
    series      exact log-defect coefficients, both routes, plus the kernel
    verify      check one part of the comparison theorem
    moments     third-moment bounds, analytic or seeded Monte Carlo

Each subcommand declares only the flags it reads.  Every one takes ``--out``;
all but ``thresholds``, which writes JSON only, take ``--format csv|json``.
``thresholds`` alone takes ``--tol``, ``verify`` alone ``--grid`` and
``moments`` alone ``--seed``; any other flag is a usage error, as are
``--t`` and ``--grid`` for ``verify --part 8``, which reads no coordinate
grid.  CSV uses UTF-8, LF line endings, a mandatory header row and
17-significant-digit numbers.  JSON reports carry ``schema_version``,
``command``, ``results`` and ``witnesses``.  Runs are deterministic: the only
randomness is the Monte Carlo draw, the stream of NumPy's ``default_rng``
(PCG64) for ``--seed``, computed in plain Python by ``_pcg64``.

Each handler imports the library modules it runs when it is called, so a
process loads only its own subcommand's modules: ``compare`` and ``scan``
load the two-point evaluators, ``verify`` and ``thresholds`` add the
certifier ``inequalities``, ``series`` loads the exact-rational ``_series``
alone and ``moments`` the record module ``_moments`` alone (and ``_pcg64``
for ``--dist uniform``).  No subcommand loads the n-point module ``jensen``,
mpmath or NumPy, and no package module loads ``dataclasses``; ``json`` loads
only where a subcommand writes JSON.

Exit codes: 0 success, 1 verification/solver failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterable, Sequence

from . import __version__
from .errors import SERIES_N_MAX, BracketError, MeansError

SCHEMA_VERSION = 1
# the Monte Carlo draws about a million values a second in pure Python, and
# MomentReport.from_values would take 7-9 s at the cap (ten times its 10^6 time)
DRAWS_MAX = 10**7


def __getattr__(name: str):
    # the package's public names resolve here too: the benchmark's CLI tracer
    # (bench/tracing.py) wraps some of them by name on this module
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _parse_range(spec: str, what: str) -> list[float]:
    """Accept 'lo:hi:count' (inclusive linspace), 'a,b,c' or a single value."""
    spec = spec.strip()
    try:
        if ":" in spec:
            lo_s, hi_s, count_s = spec.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
            if count < 1:
                raise ValueError
            from .classical import _linspace

            return _linspace(lo, hi, count)
        if "," in spec:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
            if not values:
                raise ValueError
            return values
        return [float(spec)]
    except ValueError:
        raise MeansError(
            f"malformed {what} range {spec!r}; use 'lo:hi:count', 'a,b,c' or a number"
        ) from None


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(header: Sequence[str], rows: Iterable[Sequence[object]],
               out_path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _fmt(cell) if isinstance(cell, float) else str(cell) for cell in row
        ))
    _emit("\n".join(lines) + "\n", out_path)


def _write_json(command: str, results: object, witnesses: object,
                out_path: str | None, **extra: object) -> None:
    import json  # here, so that a CSV run does not load it

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "results": results,
        "witnesses": witnesses,
    }
    payload.update(extra)
    _emit(json.dumps(payload, indent=2) + "\n", out_path)


def _write_table(args: argparse.Namespace, header: Sequence[str],
                 rows: Sequence[Sequence[object]], **extra: object) -> None:
    """CSV rows, or in JSON one object per row keyed by the header."""
    if args.format == "json":
        _write_json(args.command, [dict(zip(header, row)) for row in rows], [],
                    args.out, **extra)
    else:
        _write_csv(header, rows, args.out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_compare(args: argparse.Namespace) -> int:
    from .classical import MEAN_CHAIN, mean_value
    from .lambda_family import lambda_mean

    a, b = args.a, args.b
    rows = []
    for index, kind in enumerate(MEAN_CHAIN):
        rows.append((kind.value, mean_value(kind, a, b), index))
    for s in args.s or []:
        rows.append((f"lambda[{s:g}]", lambda_mean(s, a, b).value, len(rows)))
    rows.sort(key=lambda row: (row[1], row[2]))
    table = [(name, value) for name, value, _ in rows]
    _write_table(args, ("kind", "value"), table, a=a, b=b)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .classical import MEAN_CHAIN, Mean, _profile_row
    from .lambda_family import _ratio_columns, _ratio_row

    means = tuple(kind for kind in MEAN_CHAIN if kind is not Mean.ARITHMETIC)
    header = ("s", "t", "lambda_over_A", *(f"{kind.value}_over_A" for kind in means))
    s_values = _parse_range(args.s, "s")
    t_values = _parse_range(args.t, "t")
    # the mean profiles at each t, in header order
    profiles = list(zip(*(_profile_row(kind, t_values) for kind in means)))
    columns = _ratio_columns(t_values)
    rows = [
        (s, t, family, *at_t)
        for s in s_values  # s-major, then t
        for t, family, at_t in zip(t_values, _ratio_row(s, columns), profiles)
    ]
    _write_table(args, header, rows)
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    from .classical import Mean
    from .inequalities import CATALOG_ORDER, identric_limit_defect_root, solve_threshold

    wanted = None
    if args.targets:
        wanted = {Mean.parse(token).value for token in args.targets.split(",")}
    results: dict[str, dict] = {}
    witnesses = []
    failed = False
    for target, side in CATALOG_ORDER:
        if wanted is not None and target.value not in wanted:
            continue
        key = f"{target.value}.{side}"
        try:
            solved = solve_threshold(target, side, tol=args.tol)
        except BracketError as exc:
            results[key] = {"target": target.value, "side": side,
                            "failed": True, "error": str(exc)}
            failed = True
            continue
        entry = {
            "target": solved.target,
            "side": solved.side,
            "bracket": list(solved.bracket),
            "critical_s": solved.critical_s,
            "witness_t": solved.witness_t,
            "witness_one_minus_t": solved.witness_one_minus_t,
            "iterations": solved.iterations,
        }
        if target is Mean.IDENTRIC and side == "lower":
            root = identric_limit_defect_root()
            entry["tau_root"] = root
            entry["tau_root_delta"] = abs(solved.critical_s - root)
        results[key] = entry
        witnesses.append({"target": solved.target, "side": solved.side,
                          "t": solved.witness_t,
                          "one_minus_t": solved.witness_one_minus_t})
    _write_json("thresholds", results, witnesses, args.out,
                partial=failed)
    return 1 if failed else 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.n_max > SERIES_N_MAX:
        raise MeansError(f"--n-max must be at most {SERIES_N_MAX}, got {args.n_max}")
    from ._series import series_table

    table = series_table(args.n_max)
    rows = []
    for n in range(args.n_max + 1):
        conv = float(table.c_convolution[n])
        closed = float(table.c_closed[n])
        agree = table.c_convolution[n] == table.c_closed[n]
        rows.append((n, conv, closed, float(table.d[n]), agree))
    _write_table(args, ("n", "c_n_convolution", "c_n_closed", "d_n", "agree"), rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .inequalities import _default_t_grid, verify_part

    if args.part == 8 and (args.t is not None or args.grid is not None):
        flag = "--t" if args.t is not None else "--grid"
        raise MeansError(f"verify --part 8 reads no coordinate grid, got {flag}")
    if args.grid is not None and args.grid < 2:
        raise MeansError(f"--grid must be an integer >= 2, got {args.grid}")
    s_values = _parse_range(args.s, "s") if args.s else None
    if args.t:
        t_values = _parse_range(args.t, "t")
    elif args.grid is not None:
        t_values = _default_t_grid(args.grid)
    else:
        t_values = None
    report = verify_part(args.part, s_values, t_values)
    results = {
        "part": report.part,
        "passed": report.passed,
        "checks": report.checks,
        "violations": [v._asdict() for v in report.violations],
        "notes": list(report.notes),
    }
    if report.tightest:  # claims checked at their end orders only
        results["tightest"] = [entry._asdict() for entry in report.tightest]
    # part 8's witnesses have no finite endpoint order: null in strict JSON
    witnesses = [dict(w._asdict(), endpoint_s=None) if math.isinf(w.endpoint_s)
                 else w._asdict() for w in report.sharpness]
    if args.format == "csv":
        rows = [(v.claim, v.s, v.t, v.lhs, v.rhs) for v in report.violations]
        _write_csv(("claim", "s", "t", "lhs", "rhs"), rows, args.out)
    else:
        _write_json("verify", results, witnesses, args.out)
    return 0 if report.passed else 1


def _cmd_moments(args: argparse.Namespace) -> int:
    from ._moments import MomentReport, cubic_moment_bounds

    if args.dist == "uniform":
        if not 1 <= args.draws <= DRAWS_MAX:
            raise MeansError(f"--draws must be an integer in 1..{DRAWS_MAX}, got {args.draws}")
        if args.seed < 0:
            raise MeansError(f"--seed must be a nonnegative integer, got {args.seed}")
        if not (args.lo <= args.hi and math.isfinite(args.hi - args.lo)):
            raise MeansError(
                f"--lo and --hi must span a finite range lo <= hi, got {args.lo}, {args.hi}")
        from . import _pcg64

        draws = _pcg64.uniform(args.seed, args.lo, args.hi, args.draws)
        report = MomentReport.from_values(draws)
        source = {"dist": "uniform", "lo": args.lo, "hi": args.hi,
                  "draws": args.draws, "seed": args.seed,
                  "generator": "numpy.random.default_rng (PCG64)"}
    elif args.dist in ("two-point", "discrete"):
        if not args.points:
            raise MeansError(f"--dist {args.dist} needs --points")
        points = _parse_range(args.points, "points")
        if args.dist == "two-point" and len(points) != 2:
            raise MeansError("two-point distribution needs exactly 2 points")
        if args.probs:
            probs = _parse_range(args.probs, "probs")
        else:
            probs = [1.0 / len(points)] * len(points)
        report = MomentReport.from_values(points, probs)
        total = math.fsum(probs)  # the weights the moments were computed with
        source = {"dist": args.dist, "points": points,
                  "probs": [p / total for p in probs], "mode": "analytic"}
    else:  # constant
        report = MomentReport.from_values([args.value])
        source = {"dist": "constant", "value": args.value, "mode": "analytic"}

    bounds = cubic_moment_bounds(report)
    results = {
        "source": source,
        "report": report._asdict(),
        "lower": bounds.lower,
        "upper": bounds.upper,
        "third_moment": report.third_moment,
        "holds": bounds.holds,
    }
    if args.format == "csv":
        rows = [
            ("mean", report.mean), ("variance", report.variance),
            ("support_min", report.support_min), ("support_max", report.support_max),
            ("lower", bounds.lower), ("third_moment", report.third_moment),
            ("upper", bounds.upper), ("holds", bounds.holds),
        ]
        _write_csv(("key", "value"), rows, args.out)
    else:
        _write_json("moments", results, [], args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jensenmeans",
        description="Quotient means of Jensen gaps: tables, scans and "
                    "sharp-threshold certification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, default_format: str | None):
        """A subcommand with --out and, unless it writes JSON only, --format."""
        p = sub.add_parser(name, help=help)
        if default_format is not None:
            p.add_argument("--format", choices=("csv", "json"), default=default_format,
                           help=f"output format (default {default_format})")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")
        p.set_defaults(func=func)
        return p

    p = command("compare", _cmd_compare,
                "classical means and family values at one pair", "csv")
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)
    p.add_argument("--s", type=float, action="append", default=[],
                   help="family order to include (repeatable)")

    p = command("scan", _cmd_scan, "profile table over an (s, t) grid", "csv")
    p.add_argument("--s", required=True, help="order range 'lo:hi:count'")
    p.add_argument("--t", required=True, help="coordinate range 'lo:hi:count'")

    p = command("thresholds", _cmd_thresholds,
                "every sharp comparison order with its evidence", None)
    p.add_argument("--targets", default=None,
                   help="comma list of mean letters to restrict to")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="probe each order this far past it, or at the theorem table's "
                        "offset for it if farther; at most 1e-2 (default 1e-10)")

    p = command("series", _cmd_series, "log-defect coefficient table", "csv")
    p.add_argument("--n-max", type=int, default=10,
                   help=f"highest coefficient index, 2..{SERIES_N_MAX} (default 10)")

    p = command("verify", _cmd_verify,
                "check one part of the comparison theorem", "json")
    p.add_argument("--part", type=int, required=True, choices=range(1, 9))
    p.add_argument("--s", default=None,
                   help="check every claim at these orders (default: each claim at "
                        "the end order that binds it)")
    coordinates = p.add_mutually_exclusive_group()
    coordinates.add_argument("--t", default=None, help="coordinate grid override")
    coordinates.add_argument("--grid", type=int, default=None, metavar="N",
                             help="N evenly spaced coordinates from 1e-6 to 1 - 1e-6 "
                                  "(N >= 2)")

    p = command("moments", _cmd_moments, "third-moment bounds for a distribution", "json")
    p.add_argument("--dist", required=True,
                   choices=("uniform", "two-point", "discrete", "constant"))
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--points", default=None, help="comma list of atoms")
    p.add_argument("--probs", default=None,
                   help="comma list of positive weights, normalized to sum 1 "
                        "(default: equal weights)")
    p.add_argument("--value", type=float, default=0.0,
                   help="the constant for --dist constant")
    p.add_argument("--draws", type=int, default=100_000,
                   help=f"Monte Carlo draws, 1..{DRAWS_MAX} (default 100000)")
    p.add_argument("--seed", type=int, default=0,
                   help="nonnegative seed for the Monte Carlo generator")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MeansError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
