"""Per-layer tracing from outside the library.

A :class:`Tracer` replaces public functions of the library's modules (as
module attributes, so calls between modules go through the wrapper) with
timing wrappers, and puts the originals back on :meth:`Tracer.restore`.

* Every wrapped call adds its count, inclusive time, self time (inclusive
  time minus the time of wrapped calls it made) and an optional tally of
  its result (such as a solver's iterations) to a record keyed by the
  function name and an optional sub-key, such as the branch a family value
  was evaluated on or the mean that was asked for.
* Functions wrapped with ``span=True`` (solver- and part-level calls)
  additionally record one span each: start, end, parent span and the count
  and self time per layer of the inner calls made under it.

Spans are kept in memory and written out by the caller at the end of a run.
A tracer in another process (a traced CLI invocation) is carried over with
:meth:`Tracer.export` and :meth:`Tracer.merge`.

:func:`install_layers` wraps the same set of public functions in every
workload, so that each layer is measured wherever it runs.
"""

from __future__ import annotations

import time
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        # (name, sub) -> [calls, inclusive ns, self ns, tally]
        self.records: dict[tuple[str, object], list[int]] = {}
        self.layers: dict[str, list[int]] = {}
        self.spans: list[dict] = []
        self._child_ns: list[int] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []
        self.origin_ns = time.perf_counter_ns()

    def wrap(self, module, name: str, layer: str,
             subkey: Callable | None = None, span: bool = False,
             tally: Callable | None = None) -> None:
        """Replace module.name with a wrapper that charges its time to `layer`.

        `subkey(args, result)` names the sub-record a call is charged to;
        `tally(result)` is added to the record's tally.
        """
        fn = getattr(module, name)
        records, layers = self.records, self.layers
        child_ns = self._child_ns
        clock = time.perf_counter_ns
        layer_totals = layers.setdefault(layer, [0, 0])

        def wrapper(*args, **kwargs):
            if span:
                handle = self._open_span(name, args)
            child_ns.append(0)
            sub = None
            count = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if subkey is not None:
                    sub = subkey(args, result)
                if tally is not None:
                    count = tally(result)
                return result
            finally:
                elapsed = clock() - t0
                own = elapsed - child_ns.pop()
                if child_ns:
                    child_ns[-1] += elapsed
                record = records.get((name, sub))
                if record is None:
                    record = records[(name, sub)] = [0, 0, 0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += own
                record[3] += count
                layer_totals[0] += 1
                layer_totals[1] += own
                if span:
                    self._close_span(handle)

        wrapper.__wrapped__ = fn
        setattr(module, name, wrapper)
        self._patches.append((module, name, fn))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            module, name, fn = self._patches.pop()
            setattr(module, name, fn)

    def _snapshot(self) -> dict[str, tuple[int, int]]:
        return {layer: (calls, ns) for layer, (calls, ns) in self.layers.items()}

    def _open_span(self, name: str, args: tuple) -> int:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({
            "name": name,
            "args": [repr(a) for a in args],
            "parent": parent,
            "start_ns": time.perf_counter_ns() - self.origin_ns,
            "_entry": self._snapshot(),
        })
        handle = len(self.spans) - 1
        self._open_spans.append(handle)
        return handle

    def _close_span(self, handle: int) -> None:
        self._open_spans.pop()
        span = self.spans[handle]
        span["end_ns"] = time.perf_counter_ns() - self.origin_ns
        entry = span.pop("_entry")
        inner = {}
        for layer, (calls, ns) in self.layers.items():
            calls0, ns0 = entry.get(layer, (0, 0))
            if calls > calls0:
                inner[layer] = {"calls": calls - calls0, "self_ns": ns - ns0}
        span["inner"] = inner

    def layer_self_ns(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0))[1]

    def layer_calls(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0))[0]

    def by_name(self, name: str) -> tuple[int, int, int, int]:
        """(calls, inclusive ns, self ns, tally) summed over the sub-keys of `name`."""
        total = [0, 0, 0, 0]
        for (fn_name, _sub), record in self.records.items():
            if fn_name == name:
                for i in range(4):
                    total[i] += record[i]
        return tuple(total)

    def by_sub(self, name: str, sub) -> tuple[int, int, int, int]:
        return tuple(self.records.get((name, sub), (0, 0, 0, 0)))

    def export(self) -> dict:
        """Records, layer totals and spans as JSON-ready data."""
        return {"records": [[name, sub, *record] for (name, sub), record in self.records.items()],
                "layers": self.layers, "spans": self.spans}

    def merge(self, data: dict, parent: int | None = None) -> None:
        """Add another tracer's :meth:`export`; its top spans get `parent`."""
        for name, sub, *record in data["records"]:
            mine = self.records.setdefault((name, sub), [0, 0, 0, 0])
            for i, value in enumerate(record):
                mine[i] += value
        for layer, (calls, ns) in data["layers"].items():
            mine = self.layers.setdefault(layer, [0, 0])
            mine[0] += calls
            mine[1] += ns
        offset = len(self.spans)
        for span in data["spans"]:
            up = span["parent"]
            self.spans.append(span | {"parent": parent if up is None else up + offset})


def _mean_kind(args, result) -> str:
    kind = args[0]
    return getattr(kind, "value", kind)


SOLVER = {"span": True, "tally": lambda result: result.iterations}
PART = {"span": True, "tally": lambda result: result.checks,
        "subkey": lambda args, result: result.part}
BRANCH = {"subkey": lambda args, result: result.branch}
KIND = {"subkey": _mean_kind}

# module -> [(function, layer, options)]: the public functions a traced run
# wraps.  Solver- and part-level calls get one span each.
LAYER_WRAPS = {
    "inequalities": [
        ("threshold_catalog", "inequalities", {"span": True}),
        ("verify_part", "inequalities", PART),
        ("solve_threshold", "inequalities", SOLVER),
        ("lambda_ratio", "lambda_family", {}),
        ("ratio_to_a", "classical", {}),
    ],
    "highprec": [("margin_mp", "highprec", {})],
    "lambda_family": [("lambda_mean", "lambda_family", BRANCH)],
    "classical": [("mean_value", "classical", KIND)],
    "jensen": [(name, "jensen", {}) for name in (
        "power_gap_ratio", "lambda_quotient", "power_gap", "jensen_gap", "cubic_moment_bounds")],
}
# The CLI imports these by name, so its own references are wrapped as well.
CLI_WRAPS = [
    ("solve_threshold", "inequalities", SOLVER),
    ("verify_part", "inequalities", PART),
    ("lambda_mean", "lambda_family", BRANCH),
    ("lambda_ratio", "lambda_family", {}),
    ("mean_value", "classical", KIND),
    ("ratio_to_a", "classical", {}),
    ("cubic_moment_bounds", "jensen", {}),
]


def install_layers(tracer: Tracer, modules, cli=None) -> None:
    """Wrap LAYER_WRAPS on `modules` (attribute per module name) and, when
    given, CLI_WRAPS on the `cli` module."""
    for module_name, wraps in LAYER_WRAPS.items():
        module = getattr(modules, module_name)
        for name, layer, options in wraps:
            tracer.wrap(module, name, layer, **options)
    if cli is not None:
        for name, layer, options in CLI_WRAPS:
            tracer.wrap(cli, name, layer, **options)
