"""tools/ab.py's summary of parent and change benchmark records."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
SPEC = importlib.util.spec_from_file_location("_ab_tool", PATH)
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

BOUNDS = {"cli_p90_ms": {"name": "cli_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
          "pair_evals_per_s": {"name": "pair_evals_per_s", "unit": "1/s", "better": "higher",
                               "bound": 0.25}}


def record(p90, evals, p50=100.0, raw_p50=50.0, hashes=None):
    return {"metrics": {"cli_p90_ms": {"value": p90}, "pair_evals_per_s": {"value": evals},
                        "cli_p50_ms": {"value": p50}},
            "operations": {"attempted": 21, "failed": 0}, "problems": [],
            "hashes": hashes or {"cli[0]": "h"},
            "detail": {"cli.sub_p50_ms": {"moments": p50, "series": p50 - 10.0},
                       "raw.cli_ms": {"p50": raw_p50, "p90": raw_p50 * 1.3}}}


def pairs(n, parent_p90, change_p90):
    return [{"parent": record(parent_p90 + i % 3, 600.0), "change": record(change_p90, 605.0 - i),
             "parent_floor_ms": 40.0, "change_floor_ms": 40.0} for i in range(n)]


def test_summary_counts_wins_by_the_metric_direction():
    summary = ab.summarize(pairs(10, 160.0, 140.0), BOUNDS)
    p90, evals = summary["metrics"]["cli_p90_ms"], summary["metrics"]["pair_evals_per_s"]
    assert p90["change_wins"] == 10 and p90["parent_median"] == 161.0
    assert p90["parent_iqr"] == 1.75 and p90["within_bound"]
    # higher is better: 605 - i beats 600 for i < 5; the tie at i = 5 counts for neither
    assert evals["change_wins"] == 5 and evals["relative_worsening_of_median"] < 0
    assert summary["hash_differences"] == []


def test_hash_differences_name_the_output():
    runs = pairs(2, 160.0, 140.0)
    runs[1]["change"]["hashes"] = {"cli[0]": "other"}
    assert ab.summarize(runs, BOUNDS)["hash_differences"] == ["cli[0]"]


@pytest.mark.parametrize("n, parent, change, met", [
    (10, 160.0, 140.0, True),
    (9, 160.0, 140.0, False),    # fewer than ten pairs
    (10, 160.0, 160.5, False),   # six wins of ten
    (10, 160.0, 159.5, False),   # ten wins, but 1.5 below the median: inside the IQR
])
def test_claim_needs_ten_pairs_nine_wins_and_a_gap_past_the_iqr(n, parent, change, met):
    metric = ab.summarize(pairs(n, parent, change), BOUNDS)["metrics"]["cli_p90_ms"]
    assert ab.claim_result(metric)["met"] is met


def test_floor_is_scaled_by_the_runs_own_calibration():
    floor = ab.cli_floor(pairs(3, 160.0, 140.0))
    # cli_p50_ms 100 over a raw p50 of 50: twice the raw floor
    assert floor["python_c_pass_ms_median"] == {"parent": 80.0, "change": 80.0}
    assert floor["sub_p50_ms_median"]["change"] == {"moments": 100.0, "series": 90.0}
