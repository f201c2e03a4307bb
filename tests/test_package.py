"""The lazy package namespace, what each entry point imports, and the result
records' tuple semantics."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jensenmeans
import jensenmeans.cli as cli
from jensenmeans import errors

SUBMODULES = ("classical", "inequalities", "jensen", "lambda_family")
# private modules that define public names, which jensen and inequalities re-export
PRIVATE_HOMES = ("_moments", "_series")


def _home_modules():
    """name -> the module that defines it, from the submodules' own exports."""
    homes = {name: errors for name, value in vars(errors).items()
             if isinstance(value, type) and value.__module__ == errors.__name__}
    for module_name in (*SUBMODULES, *PRIVATE_HOMES):
        module = importlib.import_module(f"jensenmeans.{module_name}")
        homes.update(dict.fromkeys(module.__all__, module))
    return homes


class TestLazyNamespace:
    def test_every_name_is_its_home_modules_object(self):
        homes = _home_modules()
        assert sorted(homes) == jensenmeans.__all__
        for name, module in homes.items():
            assert getattr(jensenmeans, name) is getattr(module, name), name

    @pytest.mark.parametrize("module_name, names", [
        ("jensen", ("CubicBounds", "MomentReport", "cubic_moment_bounds")),
        ("inequalities", ("SeriesTable", "series_table")),
    ])
    def test_moved_names_stay_importable_from_their_old_modules(self, module_name, names):
        module = importlib.import_module(f"jensenmeans.{module_name}")
        for name in names:
            assert getattr(module, name) is getattr(jensenmeans, name), name
            assert name in module.__all__

    def test_public_api_size(self):
        assert len(jensenmeans.__all__) == len(set(jensenmeans.__all__)) == 60

    def test_dir_covers_the_public_names_and_submodules(self):
        listed = set(dir(jensenmeans))
        assert set(jensenmeans.__all__) <= listed
        assert {*SUBMODULES, "errors", "highprec", "__version__"} <= listed

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from jensenmeans import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(jensenmeans.__all__)

    def test_unknown_name_raises_the_standard_error(self):
        with pytest.raises(AttributeError) as error:
            jensenmeans.no_such_name
        assert str(error.value) == "module 'jensenmeans' has no attribute 'no_such_name'"
        assert not hasattr(jensenmeans, "_linspace")

    def test_submodules_resolve_on_access(self):
        for name in (*SUBMODULES, "errors", "highprec"):
            assert getattr(jensenmeans, name) is sys.modules[f"jensenmeans.{name}"]

    def test_cli_resolves_the_traced_names(self):
        # the benchmark's CLI tracer wraps these by name on the cli module
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert len(tracing.CLI_WRAPS) == 7
        for name, _layer, _options in tracing.CLI_WRAPS:
            assert getattr(cli, name) is getattr(jensenmeans, name), name

    def test_modules_resolve_the_traced_layers(self):
        # the benchmark's layer tracer wraps these by name on each module, and
        # its solver tally reads the solver result's iterations
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert sum(map(len, tracing.LAYER_WRAPS.values())) == 13
        for module_name, wraps in tracing.LAYER_WRAPS.items():
            module = getattr(jensenmeans, module_name)
            for name, _layer, _options in wraps:
                assert callable(getattr(module, name)), f"{module_name}.{name}"
        assert tracing.SOLVER["tally"](jensenmeans.solve_threshold("A", "upper")) == 0

    def test_cli_resolves_no_other_name(self):
        for name in ("_linspace", "__path__", "highprec", "no_such_name"):
            with pytest.raises(AttributeError) as error:
                getattr(cli, name)
            assert str(error.value) == f"module 'jensenmeans.cli' has no attribute {name!r}"


# A fresh interpreter runs `code` and prints the modules it then holds,
# taken before the json it prints them with is imported.
MODULES_AFTER = """
import contextlib, io, sys
{code}
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""

CLI_RUN = """
from jensenmeans.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main({argv!r})
    except SystemExit:  # --version and argparse's usage errors
        pass
"""


def modules_after(code):
    src = os.path.dirname(os.path.dirname(jensenmeans.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", MODULES_AFTER.format(code=code)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def package_modules(loaded):
    return {name.removeprefix("jensenmeans.") for name in loaded
            if name.startswith("jensenmeans.")}


EVALUATORS = {"errors", "classical", "_kernel", "lambda_family"}
SERIES = {"errors", "_series"}  # none of the evaluators or the certifier
CERTIFIER = {*EVALUATORS, *SERIES, "inequalities"}
MOMENTS = {"errors", "_moments"}  # no gap kernel and no n-point module

# argv -> the package modules besides cli that the subcommand loads, and
# whether it writes JSON
FOOTPRINTS = [
    (["--version"], {"errors"}, False),
    (["compare"], {"errors"}, False),  # an argparse usage error: a missing argument
    (["compare", "1", "2", "--s", "3"], EVALUATORS, False),
    (["compare", "1", "2", "--format", "json"], EVALUATORS, True),
    (["scan", "--s", "0:2:3", "--t", "0:0.5:3"], EVALUATORS, False),
    (["scan", "--s", "1e8", "--t", "0.0005"], EVALUATORS, False),
    (["moments", "--dist", "uniform", "--draws", "10"], {*MOMENTS, "_pcg64"}, True),
    (["moments", "--dist", "discrete", "--points", "1,2", "--probs", "1,3"], MOMENTS, True),
    (["moments", "--dist", "discrete", "--points", "1,2", "--format", "csv"], MOMENTS, False),
    (["moments", "--dist", "discrete", "--points", "1,x"], MOMENTS, False),  # exit 2
    (["series", "--n-max", "4"], SERIES, False),
    (["series", "--n-max", "4", "--format", "json"], SERIES, True),
    (["verify", "--part", "7", "--grid", "20"], CERTIFIER, True),
    (["verify", "--part", "7", "--grid", "20", "--format", "csv"], CERTIFIER, False),
    (["thresholds", "--targets", "A"], CERTIFIER, True),
]


class TestImportFootprint:
    def test_package_import_loads_no_submodule(self):
        assert package_modules(modules_after("import jensenmeans")) == set()

    def test_cli_import_loads_only_errors(self):
        assert package_modules(modules_after("import jensenmeans.cli")) == {"cli", "errors"}

    @pytest.mark.parametrize("argv, expected, writes_json", FOOTPRINTS,
                             ids=[" ".join(argv) for argv, _, _ in FOOTPRINTS])
    def test_subcommand_loads_only_its_modules(self, argv, expected, writes_json):
        loaded = modules_after(CLI_RUN.format(argv=argv))
        assert package_modules(loaded) == {"cli", *expected}
        assert "mpmath" not in loaded
        assert "numpy" not in loaded
        assert ("fractions" in loaded) == (argv[0] == "series")
        # no subcommand loads the n-point module, its dataclasses or what they import
        assert not {"jensenmeans.jensen", "dataclasses", "inspect"} & loaded
        assert ("json" in loaded) == writes_json



_TIGHT = jensenmeans.inequalities.Tightness("A <= lambda_s", 2.0, 0.5, 0.5, -1e-13)
# each result record, and its repr: the field reprs in field order
RECORDS = [
    (jensenmeans.LambdaValue(1.5, "generic"), "LambdaValue(value=1.5, branch='generic')"),
    (jensenmeans.SeriesTable((0, 1), (0, 1), (0, 0)),
     "SeriesTable(c_closed=(0, 1), c_convolution=(0, 1), d=(0, 0))"),
    (jensenmeans.ThresholdResult("A", "upper", 2.0, (2.0, 2.1), 0.5, 0.5, 0),
     "ThresholdResult(target='A', side='upper', critical_s=2.0, bracket=(2.0, 2.1), "
     "witness_t=0.5, witness_one_minus_t=0.5, iterations=0)"),
    (jensenmeans.InequalityViolation("A <= lambda_s", 1.0, 0.5, 1.0, 0.9),
     "InequalityViolation(claim='A <= lambda_s', s=1.0, t=0.5, lhs=1.0, rhs=0.9)"),
    (jensenmeans.SharpnessWitness(2.0, 2.1, "lambda_s <= A", 0.5, 0.5, 1e-3, True),
     "SharpnessWitness(endpoint_s=2.0, probe_s=2.1, claim='lambda_s <= A', t=0.5, "
     "one_minus_t=0.5, margin=0.001, found=True)"),
    (_TIGHT, "Tightness(claim='A <= lambda_s', s=2.0, t=0.5, one_minus_t=0.5, margin=-1e-13)"),
    (jensenmeans.MomentReport(0.5, 0.5, 0.5, 0.25, 0.0, 1.0),
     "MomentReport(mean=0.5, second_moment=0.5, third_moment=0.5, variance=0.25, "
     "support_min=0.0, support_max=1.0)"),
    # `tightest` stays out of the repr: every report prints the six fields all fill
    (jensenmeans.PartReport(7, True, 3, (), (), ("note",), (_TIGHT,)),
     "PartReport(part=7, passed=True, checks=3, violations=(), sharpness=(), notes=('note',))"),
]


@pytest.mark.parametrize("record, shown", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
class TestResultRecords:
    def test_repr(self, record, shown):
        assert repr(record) == shown

    def test_asdict_keys_in_field_order(self, record, shown):
        fields = type(record)._fields
        assert list(record._asdict()) == list(fields)
        assert tuple(record._asdict().values()) == tuple(getattr(record, f) for f in fields)

    def test_hash_is_the_field_tuple_hash(self, record, shown):
        assert hash(record) == hash(tuple(record))
        assert record == tuple(record)  # a tuple: equal to a plain tuple of its fields

    def test_frozen(self, record, shown):
        name = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        assert record._replace(**{name: getattr(record, name)}) == record


def test_record_helpers():
    assert float(jensenmeans.LambdaValue(1.5, "generic")) == 1.5
    assert jensenmeans.SeriesTable((0, 1, 2), (0, 1, 2), (0, 0, 0)).n_max == 2
    assert jensenmeans.PartReport(1, True, 0, (), (), ()).tightest == ()


# A call of the public API with one argument left open: an int beyond the
# float range there must raise what an infinity raises.
BEYOND_FLOAT_RANGE = {
    **{f"mean_value {kind}": (lambda x, kind=kind: jensenmeans.mean_value(kind, 1, x))
       for kind in "HGLIAS"},
    # next to 1e300, 2e15 times the lesser argument is inf: no fast-path bound
    "logarithmic at 1e300": lambda x: jensenmeans.logarithmic(x, 1e300),
    "mean_value L at 1e300": lambda x: jensenmeans.mean_value("L", x, 1e300),
    "lambda_mean": lambda x: jensenmeans.lambda_mean(0.5, x, 1),
    "lambda_closed_form": lambda x: jensenmeans.lambda_closed_form(0.0, x, 1),
    "symmetric_coordinate": lambda x: jensenmeans.symmetric_coordinate(x, 1),
    "ratio_to_a": lambda x: jensenmeans.ratio_to_a("G", x),
    "WeightedSample points": lambda x: jensenmeans.WeightedSample([1, x]),
    "WeightedSample weights": lambda x: jensenmeans.WeightedSample([1, 2], [x, 1]),
    "MomentReport.from_values": lambda x: jensenmeans.MomentReport.from_values([1, x]),
    "power_generator": lambda x: jensenmeans.power_generator(0.5, x),
    "log_defect": lambda x: jensenmeans.log_defect(x),
    "identric_parts": lambda x: jensenmeans.identric_parts(x),
    "identric_limit_defect": lambda x: jensenmeans.identric_limit_defect(x),
    "limit_ratio_at_t1": lambda x: jensenmeans.limit_ratio_at_t1(x, "S"),
    "solve_threshold tol": lambda x: jensenmeans.solve_threshold("A", "upper", tol=x),
    "verify_part t_values": lambda x: jensenmeans.verify_part(2, t_values=[x]),
}


def raises_as_infinity(call, huge, shown):
    """call(huge) raises what call(inf) raises, its message showing `shown`."""
    with pytest.raises(errors.MeansError) as at_infinity:
        call(math.inf)
    with pytest.raises(errors.MeansError) as beyond:
        call(huge)
    assert type(beyond.value) is type(at_infinity.value)
    assert str(beyond.value).replace(shown, "inf") == str(at_infinity.value)


@pytest.mark.parametrize("call", BEYOND_FLOAT_RANGE.values(), ids=list(BEYOND_FLOAT_RANGE))
def test_int_beyond_the_float_range_raises_as_infinity(call):
    raises_as_infinity(call, 10 ** 400, repr(10 ** 400))


@pytest.mark.parametrize("call", BEYOND_FLOAT_RANGE.values(), ids=list(BEYOND_FLOAT_RANGE))
def test_int_too_long_to_print_raises_as_infinity(call):
    # 5,001 digits, past the 4,300 that repr prints by default: a message
    # shows the int by its size
    raises_as_infinity(call, 10 ** 5000, "<int of 16610 bits>")
