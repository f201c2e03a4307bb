"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest -q bench

They run every workload in smoke mode, check that every declared metric is
printed with its unit, and inject failures to check that they are counted.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        if trace == "0":
            assert entry["value"] > 0, m["name"]
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    assert record["environment"]["seed"] == 3
    assert record["hashes"]
    unobserved = set(record["unobserved"])
    assert all(result["metrics"][name]["value"] == 0.0 for name in unobserved)
    if trace == "0":
        assert not unobserved
    else:
        # the same layers are wrapped on every workload, so every call count is measured
        assert not {name for name in unobserved if name.endswith(".calls")}
        assert result["metrics"]["trace.overhead_share"]["value"] != 0.0


def test_without_library_source_exits_nonzero_and_prints_no_result():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run_bench("--workload", "evaluate", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def tiny_stream(lib):
    pairs, samples = gen.stream(5, 8, 4)
    return workloads.Stream(lib, pairs, samples)


@pytest.fixture
def lib():
    return workloads.library()


def test_kept_oracle_values_give_the_same_check(lib):
    refs: dict = {}
    fresh = workloads.validate(lib, tiny_stream(lib), refs)
    kept = json.loads(json.dumps(refs))
    assert kept
    assert workloads.validate(lib, tiny_stream(lib), kept) == fresh and len(kept) == len(refs)


def test_injected_non_means_error_is_a_counted_failure(lib, monkeypatch):
    real = lib.classical.mean_value

    def broken(kind, a, b):
        if kind == "G":
            raise RuntimeError("injected")
        if kind == "H":
            raise ZeroDivisionError("injected")
        return real(kind, a, b)

    monkeypatch.setattr(lib.classical, "mean_value", broken)
    checked = workloads.validate(lib, tiny_stream(lib))
    assert checked.kinds["exception.other"] == 8
    assert checked.kinds["exception.ZeroDivisionError"] == 8
    assert checked.failed >= 16


def test_injected_means_error_is_accepted(lib, monkeypatch):
    def refuse(kind, a, b):
        raise lib.errors.DomainError("injected")

    monkeypatch.setattr(lib.classical, "mean_value", refuse)
    checked = workloads.validate(lib, tiny_stream(lib))
    assert checked.kinds["accepted"] >= 48


def test_injected_nan_is_a_counted_failure(lib, monkeypatch):
    nan_value = lib.lambda_family.LambdaValue(math.nan, "generic")
    monkeypatch.setattr(lib.lambda_family, "lambda_mean", lambda s, a, b: nan_value)
    checked = workloads.validate(lib, tiny_stream(lib))
    assert checked.kinds["nonfinite"] == 8


def test_injected_out_of_range_value_is_a_counted_failure(lib, monkeypatch):
    monkeypatch.setattr(lib.jensen, "power_gap_ratio", lambda s, sample: 2.0 * sample.max_point)
    checked = workloads.validate(lib, tiny_stream(lib))
    assert checked.kinds["range"] >= 4


def test_wrong_exit_code_is_a_counted_failure():
    run = workloads.Run("cli", 0, 0.0, False, workloads.SMOKE)
    wrong = workloads.Command("compare", ("compare", "1", "2"), frozenset({2}), False)
    log = workloads.run_cli_rounds(run, [wrong], rounds=1)
    workloads.count_cli(run, log)
    assert log.failed_kinds[0] == {"exit_code"}
    assert (run.attempted, run.failed) == (1, 1)


def test_traced_cli_process_reports_its_layers():
    run = workloads.Run("cli", 0, 0.0, True, workloads.SMOKE)
    cmd = workloads.Command("verify", ("verify", "--part", "7", "--grid", "50"), frozenset({0}), False)
    tracer = Tracer()
    log = workloads.run_cli_rounds(run, [cmd], rounds=2, tracer=tracer)
    assert len(log.rounds) == len(log.traced_rounds) == 1
    assert log.failed_kinds == {0: set()} and not run.problems  # same stdout traced or not
    calls, _, _, checks = tracer.by_sub("verify_part", 7)
    assert calls == 1 and checks > 0
    assert tracer.layer_calls("lambda_family") > 0
    top, part = tracer.spans[0], tracer.spans[1]
    assert top["name"] == "cli.verify" and part["name"] == "verify_part" and part["parent"] == 0


def test_cli_mix_weights_every_subcommand_alike():
    mix = workloads.cli_mix(4, repeats=3)
    regular = [cmd.sub for cmd in mix if not cmd.contract]
    assert {regular.count(sub) for sub in workloads.CLI_SUBCOMMANDS} == {3}
    assert sum(cmd.contract for cmd in mix) == 3 and len(mix) == 21


def test_traceback_and_nan_are_detected():
    cmd = workloads.Command("scan", ("scan",), frozenset({0}), False)
    assert workloads.cli_failures(cmd, 0, "s,t\n1,nan\n", "") == ["nan"]
    assert workloads.cli_failures(cmd, 1, "", "Traceback (most recent call last):\n") == [
        "exit_code", "traceback"]
    assert workloads.cli_failures(cmd, 0, "s,t\n1,0.5\n", "") == []


def test_fail_bound_is_never_zero_and_grows_with_failures():
    assert workloads.fail_bound(0, 19) == pytest.approx(1 - 0.05 ** (1 / 19))
    bounds = [workloads.fail_bound(f, 100) for f in range(0, 6)]
    assert all(b > f / 100 for f, b in enumerate(bounds))
    assert bounds == sorted(bounds)


def test_oracle_does_not_use_the_library():
    source = (HERE / "oracle.py").read_text()
    assert "import jensenmeans" not in source and "from jensenmeans" not in source


def test_oracle_limit_forms_match_closed_forms():
    from mpmath import mp, mpf

    a, b = 1.25, 7.5
    with mp.workdps(50):
        x, y = mpf(a), mpf(b)
        am, gm, hm = (x + y) / 2, mp.sqrt(x * y), 2 * x * y / (x + y)
        sm = mp.exp((x * mp.log(x) + y * mp.log(y)) / (x + y))
        closed = {-1.0: 2 * gm ** 2 * mp.log(am / gm) / (am - hm),
                  0.0: am * mp.log(sm / am) / mp.log(am / gm),
                  1.0: (am - hm) / (2 * mp.log(sm / am))}
    for s, value in closed.items():
        assert oracle.lambda_mean(s, a, b) == pytest.approx(float(value), rel=1e-15)
        # the limit forms are the continuous extension of the generic formula
        assert oracle.lambda_mean(s + 1e-12, a, b) == pytest.approx(float(value), rel=1e-10)
    assert oracle.lambda_mean(2.0, a, b) == pytest.approx((a + b) / 2, rel=1e-15)


def test_oracle_identric_root():
    root = oracle.identric_lower_root()
    s = root
    defect = math.e * (s - 1) * (2 ** (s + 1) - 2) / (2 * (s + 1) * (2 ** s - 2)) - 1
    assert abs(defect) < 1e-14 and 1.03 < root < 1.04


def test_tracer_self_times_add_up_and_restore():
    module = types.SimpleNamespace()
    module.inner = lambda x: sum(range(x))
    module.outer = lambda x: module.inner(x) + module.inner(x)
    original = module.outer, module.inner
    tracer = Tracer()
    tracer.wrap(module, "outer", "top", span=True)
    tracer.wrap(module, "inner", "leaf")
    module.outer(20000)
    calls, inclusive, own, _ = tracer.by_name("outer")
    assert calls == 1 and tracer.by_name("inner")[0] == 2
    assert tracer.layer_self_ns("top") + tracer.layer_self_ns("leaf") == inclusive
    assert tracer.spans[0]["inner"]["leaf"]["calls"] == 2
    tracer.restore()
    assert (module.outer, module.inner) == original


def test_tracer_merge_adds_another_tracers_export():
    module = types.SimpleNamespace(outer=lambda x: module.inner(x), inner=lambda x: [x])
    tracer = Tracer()
    tracer.wrap(module, "outer", "top", span=True)
    tracer.wrap(module, "inner", "leaf", tally=len)
    module.outer(1)
    tracer.restore()
    merged = Tracer()
    merged.spans.append({"name": "process", "parent": None})
    merged.merge(json.loads(json.dumps(tracer.export())), parent=0)
    merged.merge(tracer.export(), parent=0)
    assert merged.by_name("inner")[0] == 2 and merged.by_name("inner")[3] == 2
    assert merged.layer_calls("top") == 2
    assert [span["parent"] for span in merged.spans] == [None, 0, 0]


def test_inputs_repeat_for_a_seed():
    assert gen.stream(9, 20, 5) == gen.stream(9, 20, 5)
    assert gen.stream(9, 20, 5) != gen.stream(10, 20, 5)
