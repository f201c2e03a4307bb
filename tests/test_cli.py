import contextlib
import hashlib
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jensenmeans import _pcg64, _series, inequalities
from jensenmeans.cli import DRAWS_MAX, SERIES_N_MAX, main
from jensenmeans.inequalities import verify_part
from jensenmeans.lambda_family import lambda_ratio


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompare:
    def test_chain_order(self, capsys):
        code, out, _ = run(capsys, "compare", "1", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,value"
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds == ["H", "G", "L", "I", "A", "S"]
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)

    def test_equal_arguments(self, capsys):
        code, out, _ = run(capsys, "compare", "5", "5")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == 5.0

    def test_lambda_two_equals_arithmetic(self, capsys):
        code, out, _ = run(capsys, "compare", "1", "2", "--s", "2")
        rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert float(rows["lambda[2]"]) == float(rows["A"]) == 1.5

    def test_invalid_input_exit_2(self, capsys):
        code, _, err = run(capsys, "compare", "-1", "2")
        assert code == 2
        assert "error" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "compare", "1", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "compare"
        kinds = {r["kind"]: r["value"] for r in payload["results"]}
        assert kinds["G"] == pytest.approx(2.0)


class TestScan:
    def test_schema_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "scan", "--s", "0:2:3", "--t", "0:0.9:4")
        assert code == 0
        header = out1.split("\n", 1)[0]
        assert header == "s,t,lambda_over_A,H_over_A,G_over_A,L_over_A,I_over_A,S_over_A"
        _, out2, _ = run(capsys, "scan", "--s", "0:2:3", "--t", "0:0.9:4")
        assert out1 == out2  # byte-identical

    def test_lambda_two_rows_are_one(self, capsys):
        _, out, _ = run(capsys, "scan", "--s", "2", "--t", "0:0.99:12")
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[2]) == 1.0

    def test_t_zero_rows_are_one(self, capsys):
        _, out, _ = run(capsys, "scan", "--s", "0:5:3", "--t", "0")
        for line in out.strip().split("\n")[1:]:
            assert all(float(cell) == 1.0 for cell in line.split(",")[2:])

    def test_row_order_s_major(self, capsys):
        _, out, _ = run(capsys, "scan", "--s", "1,2", "--t", "0.1,0.2")
        rows = [line.split(",")[:2] for line in out.strip().split("\n")[1:]]
        assert [(float(s), float(t)) for s, t in rows] == [
            (1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]

    def test_huge_order_prints_finite_profile(self, capsys):
        code, out, _ = run(capsys, "scan", "--s", "1e8", "--t", "0.0005")
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[2])
        assert 1.0 - 0.0005 <= value <= 1.0 + 0.0005

    def test_family_column_is_lambda_ratio(self, capsys):
        # series range, closed form, scaled form and a huge order
        code, out, _ = run(capsys, "scan", "--s=-3,0.5,2,1e8",
                           "--t", "0,1e-9,0.0005,0.3,0.999999")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            s, t, family = map(float, line.split(",")[:3])
            assert family == lambda_ratio(s, t), (s, t)

    def test_malformed_range_exit_2(self, capsys):
        code, _, err = run(capsys, "scan", "--s", "nope", "--t", "0:1:5")
        assert code == 2
        assert "malformed" in err


class TestSeries:
    def test_known_rows(self, capsys):
        code, out, _ = run(capsys, "series", "--n-max", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,c_n_convolution,c_n_closed,d_n,agree"
        rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert float(rows[2][1]) == pytest.approx(-1.0 / 90.0, rel=1e-15)
        assert float(rows[2][2]) == pytest.approx(-1.0 / 90.0, rel=1e-15)
        assert float(rows[1][1]) == 0.0 and float(rows[1][3]) == 0.0
        assert all(row[4] == "True" for row in rows.values())
        assert all(float(row[1]) <= 0 and float(row[3]) <= 0 for row in rows.values())

    @pytest.mark.parametrize("n_max", [SERIES_N_MAX + 1, 10**8])
    def test_n_max_above_the_bound_is_refused_before_any_work(self, capsys, monkeypatch,
                                                              n_max):
        def never(*args):
            raise AssertionError("series_table ran")

        monkeypatch.setattr(_series, "series_table", never)
        code, out, err = run(capsys, "series", "--n-max", str(n_max))
        assert code == 2 and out == ""
        assert err == f"error: --n-max must be at most {SERIES_N_MAX}, got {n_max}\n"


class TestThresholds:
    def test_unknown_target_exit_2(self, capsys):
        code = main(["thresholds", "--targets", "Q"])
        assert code == 2

    def test_report_shape(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--targets", "A,I",
                           "--tol", "1e-8")
        assert code == 0
        payload = json.loads(out)
        results = payload["results"]
        assert payload["partial"] is False
        assert abs(results["A.upper"]["critical_s"] - 2.0) <= 1e-6
        entry = results["I.lower"]
        assert 1.03 < entry["critical_s"] < 1.04
        assert abs(entry["critical_s"] - 1.0376) <= 5e-4
        assert entry["tau_root"] == pytest.approx(entry["critical_s"], abs=1e-6)
        # the limit-defect root lies 1.34e-8 below the sharp order
        assert entry["tau_root_delta"] == pytest.approx(1.34e-8, rel=1e-2)
        assert set(entry) == {"target", "side", "bracket", "critical_s", "witness_t",
                              "witness_one_minus_t", "iterations", "tau_root",
                              "tau_root_delta"}

    def test_wrong_stated_order_gives_a_partial_report(self, capsys, monkeypatch):
        # lambda_3 <= A fails, so the A.upper entry carries the BracketError
        theorem = tuple(row._replace(upper=3.0) if row.mean.value == "A" else row
                        for row in inequalities._THEOREM)
        monkeypatch.setattr(inequalities, "_THEOREM", theorem)
        with pytest.raises(inequalities.BracketError) as error:
            inequalities.solve_threshold("A", "upper")
        code, out, _ = run(capsys, "thresholds", "--targets", "A")
        assert code == 1
        payload = json.loads(out)
        assert payload["partial"] is True
        results = payload["results"]
        assert results["A.upper"] == {"target": "A", "side": "upper", "failed": True,
                                      "error": str(error.value)}
        assert results["A.lower"]["critical_s"] == 2.0
        assert [(w["target"], w["side"]) for w in payload["witnesses"]] == [("A", "lower")]


class TestVerify:
    def test_part_pass_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--part", "7", "--grid", "60")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["passed"] is True
        assert payload["results"]["violations"] == []
        assert all(w["found"] for w in payload["witnesses"])

    def test_violation_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--part", "6", "--s", "3",
                           "--t", "0.1,0.5")
        assert code == 1
        payload = json.loads(out)
        assert payload["results"]["passed"] is False
        assert payload["results"]["violations"]

    def test_tightest_claims_under_results(self, capsys):
        code, out, _ = run(capsys, "verify", "--part", "4", "--grid", "50")
        assert code == 0
        tightest = json.loads(out)["results"]["tightest"]
        assert [(entry["claim"], entry["s"]) for entry in tightest] == [
            ("G <= lambda", -0.5), ("lambda <= L", 0.0)]
        assert all(set(entry) == {"claim", "s", "t", "one_minus_t", "margin"}
                   for entry in tightest)
        # an explicit order grid checks every claim at every order, and
        # reports no end-order tightness
        code, out, _ = run(capsys, "verify", "--part", "4", "--grid", "50", "--s=-0.25")
        assert code == 0
        assert "tightest" not in json.loads(out)["results"]

    def test_part_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--part", "1", "--s=-3:3:10",
                           "--t", "0.01:0.99:50")
        assert code == 0

    @pytest.mark.parametrize("part", range(1, 9))
    def test_default_report_is_strict_json(self, capsys, part):
        code, out, _ = run(capsys, "verify", "--part", str(part))
        assert code == 0
        payload = json.loads(out, parse_constant=_refuse_constant)
        if part == 8:  # its witnesses have no finite endpoint order
            assert [w["endpoint_s"] for w in payload["witnesses"]] == [None] * 3


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_compare_at_a_subnormal_order(capsys):
    # the order-s closed form underflowed to 0/0 here
    code, out, _ = run(capsys, "compare", "--s", "5e-324", "210586854588.0", "302586423450.0")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
    assert 210586854588.0 < float(rows["lambda[4.94066e-324]"]) < 302586423450.0


# sha256 of stdout for fixed invocations: the deterministic outputs stay
# byte-identical unless a change means to alter them
OUTPUT_SHA256 = {
    "thresholds": "13badecb6286f610f9d0bd0f2a54abe01413e6f96fb6c22176d57ce5a7978769",
    "thresholds --targets A": "e05eb397040fd34bb11dd6dd24a67b1565e993b07805274a6aa01422edff43c8",
    "thresholds --targets I": "7612a759b88f96179cca6c5a8b10f69fe3002c7a80a13e04411919a6dc870fdf",
    "series --n-max 60": "ad48bfa6f2601f60251c70fc012f6c87a490fb2dd6d274e8b9d27338167be19f",
    "verify --part 1": "6f43ae591a8264fc72833c095d9679349e6a988ebb39d9b7778bb9f0b075eca5",
    "verify --part 2": "d856feb2e2d006e7d065d457b0d43b0b23d9a4fbd65ebb67ae86e2beb27a2103",
    "verify --part 3": "0d5e7b4c465e1b4501e270e360c962f004fa2056ff63d1ab2569003828260169",
    "verify --part 4": "4b4787f46e686edd9e5167b0bf13ed4877368325e0ecd8d59101bff3800b449e",
    "verify --part 5": "e7fc84d37010777079d89a19a7547513f6390a16ad9b735f22e2c0c1ff0b225e",
    "verify --part 6": "c8bae346f57083fdf5496dcf9bd164913bbd5da30c16121a0090bf5aab0973aa",
    "verify --part 7": "c609cdf32a84a40551258dd124bf346827ae86d878711e94bde23676eacac1d6",
    "verify --part 8": "d34e4c0b3230cdc8ccda68300240f3682af94daddfc383f0c5ddbdbaaa8b8a93",
    "verify --part 7 --grid 500":
        "762405f588d1fff22f1479a759aa7a1736a82b277f60b4beb5ad5d67262429ea",
    "compare 0.25 7.5 --s=-1.5":
        "c1747539c5971da144932a19f9f7d4bcc9323b50b647cba4fe4f22e8526ba46f",
    "compare 5e-324 1.5e-323 --s=0.5":
        "d0dd9754e83ba22b7e500f75a8fc2d166f152a2d5a649eb656d319252b49b96a",
    # a finite value at the float maximum (it printed inf)
    "compare --s=3.703342055554923e+16 -- 1e300 1.7976931348623157e308":
        "30d51291b0d3995ae0d68182ef01eedef7a05aa6809744eac2b2ea87bc72e7bf",
    "scan --s=-3:4:8 --t=0.001:0.99:9":
        "89c85675649403ecfac3ce0f5cb5214a17e5e4a9446511ace4f2a8731e1811cc",
    "moments --dist uniform --seed 5 --draws 2000":
        "6cb050db3ada490a2b6fecc7de9d71fd1f3c2d7577ca47f8f8fa4a892e3c59e0",
}


@pytest.mark.parametrize("command", OUTPUT_SHA256)
def test_output_is_byte_identical(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[command]


class TestVerifyGrid:
    @pytest.mark.parametrize("grid", ["-5", "0", "1"])
    def test_grid_below_two_is_a_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--part", "3", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--grid" in err

    @pytest.mark.parametrize("flag", [("--t", "0.1:0.9:3"), ("--grid", "5")], ids=" ".join)
    def test_part_8_refuses_a_coordinate_grid(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--part", "8", *flag)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag[0] in err

    def test_two_point_grid_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "--part", "1", "--grid", "2")
        assert code == 0
        assert json.loads(out)["results"]["checks"] == 2 * 49


    def test_grid_uses_the_default_grid_endpoints(self, capsys):
        code, out, _ = run(capsys, "verify", "--part", "6", "--s", "3", "--grid", "2000",
                           "--format", "csv")
        assert code == 1
        t_column = [float(line.split(",")[2]) for line in out.strip().split("\n")[1:]]
        assert t_column == [v.t for v in verify_part(6, [3.0]).violations]


# A minimal valid invocation of each subcommand, and the output/tuning flags it reads.
SUBCOMMANDS = {
    "compare": (("compare", "1", "2"), {"--format", "--out"}),
    "scan": (("scan", "--s", "1", "--t", "0.5"), {"--format", "--out"}),
    "thresholds": (("thresholds", "--targets", "A"), {"--out", "--tol"}),
    "series": (("series",), {"--format", "--out"}),
    "verify": (("verify", "--part", "7"), {"--format", "--out", "--grid"}),
    "moments": (("moments", "--dist", "constant"), {"--format", "--out", "--seed"}),
}
FLAG_VALUES = {"--format": "csv", "--out": "table.txt", "--tol": "1e-8", "--grid": "10",
               "--seed": "3"}
UNREAD_FLAGS = [(*argv, flag, FLAG_VALUES[flag])
                for argv, reads in SUBCOMMANDS.values()
                for flag in sorted(set(FLAG_VALUES) - reads)]


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        *UNREAD_FLAGS,
        ("thresholds", "--format", "csv"),
        ("verify", "--part", "6", "--t", "0.5", "--grid", "10"),
    ], ids=" ".join)
    def test_unread_flag_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error:" in captured.err


class TestVersion:
    def test_version_flag(self, capsys):
        import jensenmeans

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"jensenmeans {jensenmeans.__version__}\n"
        assert jensenmeans.__version__ == "0.1.0"


class TestMoments:
    def test_two_point_analytic(self, capsys):
        code, out, _ = run(capsys, "moments", "--dist", "two-point",
                           "--points", "0,1")
        assert code == 0
        payload = json.loads(out)
        results = payload["results"]
        assert results["lower"] == pytest.approx(0.125)
        assert results["upper"] == pytest.approx(0.875)
        assert results["third_moment"] == pytest.approx(0.5)
        assert results["holds"] is True

    def test_probs_are_reported_as_normalized(self, capsys):
        code, out, _ = run(capsys, "moments", "--dist", "discrete", "--points", "1,2",
                           "--probs", "0.5,0.6")
        assert code == 0
        results = json.loads(out)["results"]
        probs = results["source"]["probs"]
        assert probs == [0.5 / 1.1, 0.6 / 1.1]
        assert results["report"]["mean"] == math.fsum([probs[0], 2 * probs[1]])
        assert results["report"]["mean"] == pytest.approx(1.7 / 1.1, rel=1e-15)

    def test_constant_equality(self, capsys):
        code, out, _ = run(capsys, "moments", "--dist", "constant",
                           "--value", "2.0")
        payload = json.loads(out)
        assert payload["results"]["lower"] == payload["results"]["upper"] == 8.0
        assert payload["results"]["holds"] is True

    def test_uniform_seeded_deterministic(self, capsys):
        args = ("moments", "--dist", "uniform", "--lo", "0", "--hi", "1",
                "--draws", "20000", "--seed", "42")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["results"]["holds"] is True
        # a different seed changes the draw
        _, out3, _ = run(capsys, "moments", "--dist", "uniform", "--lo", "0",
                         "--hi", "1", "--draws", "20000", "--seed", "43")
        assert out3 != out1

    def test_uniform_between_equal_zeros(self, capsys):
        code, out, _ = run(capsys, "moments", "--dist", "uniform", "--lo", "0.0",
                           "--hi", "-0.0", "--draws", "3")
        assert code == 0
        assert json.loads(out)["results"]["report"]["support_max"] == 0.0

    @pytest.mark.parametrize("draws", [DRAWS_MAX + 1, 10**12])
    def test_draws_above_the_cap_are_refused_before_any_draw(self, capsys, monkeypatch,
                                                             draws):
        def never(*args):
            raise AssertionError("the generator ran")

        monkeypatch.setattr(_pcg64, "uniform", never)
        code, out, err = run(capsys, "moments", "--dist", "uniform", "--draws", str(draws))
        assert code == 2 and out == ""
        assert err == f"error: --draws must be an integer in 1..{DRAWS_MAX}, got {draws}\n"

    def test_missing_points_exit_2(self, capsys):
        code, _, err = run(capsys, "moments", "--dist", "discrete")
        assert code == 2
        assert "points" in err

    @pytest.mark.parametrize("argv", [
        ("--dist", "discrete", "--points", "1,x"),
        ("--dist", "discrete", "--points", "1,2", "--probs", "0.5,y"),
        ("--dist", "uniform", "--draws", "-1"),
        # 1e-30 / 1e300 underflows to 0: the report would keep an atom of weight 0
        ("--dist", "discrete", "--points", "1,2", "--probs", "1e300,1e-30"),
    ])
    def test_malformed_input_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "moments", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestOutput:
    def test_out_file_lf_endings(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "compare", "1", "2", "--out", str(target))
        assert code == 0 and out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").startswith("kind,value\n")

    def test_csv_17_significant_digits(self, capsys):
        _, out, _ = run(capsys, "compare", "1", "2")
        rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert rows["L"] == "1.4426950408889634"
        assert float(rows["L"]) == 1.4426950408889634

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--part", "11"])
        assert exc.value.code == 2


class TestOutOfRangeInput:
    @pytest.mark.parametrize("argv", [
        ("moments", "--dist", "discrete", "--points", "1,inf"),
        ("moments", "--dist", "discrete", "--points", "1e200,2e200"),
        ("moments", "--dist", "constant", "--value", "1e200"),
        ("moments", "--dist", "uniform", "--hi", "inf"),
        ("moments", "--dist", "uniform", "--lo", "2", "--hi", "1"),
        ("moments", "--dist", "uniform", "--seed", "-1"),
        ("thresholds", "--targets", "A", "--tol", "nan"),
        ("thresholds", "--targets", "A", "--tol", "inf"),
        ("compare", "1", "2", "--s", "1e200"),
        ("scan", "--s", "0:1:0", "--t", "0.5"),
        ("scan", "--s", ",", "--t", "0.5"),
    ])
    def test_exit_2_with_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


# The CLI contract over arbitrary numbers: exit 0 (or verify's 1, a failed
# check) with finite output, or exit 2 with an error line; never a traceback,
# never a non-finite token printed.
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.nan, math.inf, -math.inf,
               1e300, -1e300, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308,
               1e150, 1e200, -1e8, 0.999999]
NUMBERS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
RANGES = st.one_of(
    NUMBERS.map(repr),
    st.lists(NUMBERS, min_size=1, max_size=3).map(lambda v: ",".join(map(repr, v))),
    st.tuples(NUMBERS, NUMBERS, st.integers(1, 4)).map(lambda v: f"{v[0]!r}:{v[1]!r}:{v[2]}"),
)
FORMATS = st.sampled_from(["csv", "json"])
NON_FINITE = re.compile(r"\b(?:NaN|Infinity|nan|inf)\b")
FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def check_contract(argv, codes=(0, 2)):
    """`codes` are the exit codes allowed; every one but 2 must print finite
    output, and 2 an error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in codes, (argv, code, err.getvalue())
    if code != 2:
        assert not NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
    else:
        assert "error: " in err.getvalue(), argv


class TestContractFuzz:
    @FUZZ
    @given(NUMBERS, NUMBERS, st.lists(NUMBERS, max_size=2), FORMATS)
    def test_compare(self, a, b, orders, fmt):
        check_contract(["compare", *[f"--s={s!r}" for s in orders], "--format", fmt,
                        "--", repr(a), repr(b)])

    @FUZZ
    @given(RANGES, RANGES, FORMATS)
    def test_scan(self, s, t, fmt):
        check_contract(["scan", f"--s={s}", f"--t={t}", "--format", fmt])

    @FUZZ
    @given(st.integers(-3, 12), FORMATS)
    def test_series(self, n_max, fmt):
        check_contract(["series", f"--n-max={n_max}", "--format", fmt])

    @FUZZ
    @given(st.sampled_from(["uniform", "two-point", "discrete", "constant"]), NUMBERS, NUMBERS,
           st.lists(NUMBERS, min_size=1, max_size=3),
           st.one_of(st.none(), st.lists(NUMBERS, min_size=1, max_size=3)),
           st.integers(-2, 20), FORMATS)
    def test_moments(self, dist, lo, hi, points, probs, draws, fmt):
        argv = ["moments", "--dist", dist, f"--lo={lo!r}", f"--hi={hi!r}",
                f"--value={lo!r}", f"--points={','.join(map(repr, points))}",
                f"--draws={draws}", "--format", fmt]
        if probs is not None:
            argv.append(f"--probs={','.join(map(repr, probs))}")
        check_contract(argv)

    @settings(FUZZ, max_examples=100)
    @given(st.integers(-1, 10), st.one_of(st.none(), RANGES),
           st.one_of(st.none(), RANGES.map(lambda t: f"--t={t}"), st.integers(-3, 60).map(
               lambda n: f"--grid={n}")), FORMATS)
    def test_verify(self, part, s, coordinates, fmt):
        argv = ["verify", f"--part={part}", "--format", fmt]
        if coordinates is not None:
            argv.append(coordinates)
        if s is not None:
            argv.append(f"--s={s}")
        check_contract(argv, codes=(0, 1, 2))

    # every positive finite tolerance yields the full catalog, so never exit 1;
    # about 2 s, most of it in the examples that print a catalog
    @settings(FUZZ, max_examples=150)
    @given(st.lists(st.sampled_from(["H", "G", "L", "I", "A", "S", "h", " a ", "",
                                     "Q", "lambda", "1", "H.upper"]), max_size=3),
           NUMBERS)
    def test_thresholds(self, targets, tol):
        check_contract(["thresholds", f"--targets={','.join(targets)}", f"--tol={tol!r}"])
