import copy
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay.py"
spec = importlib.util.spec_from_file_location("replay", TOOL)
replay = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay)

FIELDS = ["epoch", "inner_iter", "q_inner_val", "q_inner_jac", "q_outer_grad",
          "objective", "gap", "grad_map_sq", "composite_grad_sq"]


def fingerprints():
    def call(name, solver, x, rows):
        return {"call": name, "solver": solver, "n_iters": 2, "queries": [8, 8, 4],
                "diverged": None, "x_sha": str(x), "x_final": x, "rows": rows}

    rows = [[0, 0, 0, 0, 0, 2.0, float("nan"), 1.0, 1.0],
            [0, 2, 8, 8, 4, 1.5, float("nan"), 0.5, 0.25]]
    return {"fields": FIELDS, "calls": [
        call("a #0 scpg_baseline", "scpg_baseline", [1.0, -2.0], copy.deepcopy(rows)),
        call("a #1 vrsc_pg", "vrsc_pg", [0.5, 4.0], copy.deepcopy(rows)),
    ]}


def test_identical_fingerprints_are_bitwise_equal():
    report = replay.diff(fingerprints(), fingerprints(), 0.0)
    assert report["within_bound"] and report["first_difference"] is None
    assert report["largest"]["rel"] == 0.0  # NaN gaps match NaN gaps


def test_names_first_difference_and_largest_change():
    a, b = fingerprints(), fingerprints()
    b["calls"][1]["rows"][1][5] = 1.5 + 2.0**-52
    b["calls"][1]["x_final"] = [0.5, 4.0 + 2.0**-50]  # one unit in the last place
    b["calls"][1]["x_sha"] = "moved"
    report = replay.diff(a, b, 0.0)
    assert not report["within_bound"]
    assert report["first_difference"]["call"] == "a #1 vrsc_pg"
    assert report["first_difference"]["field"] == "x_final"
    assert report["largest"]["field"] == "x_final"
    assert report["largest"]["rel"] == 2.0**-52  # relative to max |x|
    assert max(report["per_field"]["scpg_baseline"].values()) == 0.0
    assert max(report["per_field"]["vrsc_pg"].values()) == report["largest"]["rel"]
    assert replay.diff(a, b, 1e-13)["within_bound"]


def test_counts_must_match_exactly():
    for mutate in (lambda c: c["queries"].__setitem__(0, 9),
                   lambda c: c["rows"][1].__setitem__(1, 3),
                   lambda c: c["rows"].pop()):
        b = fingerprints()
        mutate(b["calls"][0])
        report = replay.diff(fingerprints(), b, 1.0)
        assert report["structure"].startswith("a #0 scpg_baseline")
        assert not report["within_bound"]


def test_gap_change_reported_against_the_objective():
    # a gap of 1e-8 that moves by 1e-20 changes by 1e-12 of itself, and by
    # 1e-20 / 1.5 of its row's objective; the exit decision reads only the former
    a, b = fingerprints(), fingerprints()
    for doc in (a, b):
        doc["calls"][1]["rows"][1][6] = 1e-8
    b["calls"][1]["rows"][1][6] = 1e-8 + 1e-20
    report = replay.diff(a, b, 1e-13)
    assert report["gap_per_objective"] == {"scpg_baseline": 0.0,
                                           "vrsc_pg": abs(b["calls"][1]["rows"][1][6] - 1e-8) / 1.5}
    assert report["largest"]["field"] == "rows[1].gap"
    assert not report["within_bound"]
    assert replay.diff(a, b, 1e-11)["within_bound"]


def test_squared_norm_change_reported_against_the_call():
    # a grad_map_sq of 1e-20 that moves by 1e-25 changes by 1e-5 of itself,
    # and by 1e-25 of the call's largest grad_map_sq, 1.0 in rows[0]
    a, b = fingerprints(), fingerprints()
    for doc in (a, b):
        doc["calls"][1]["rows"][1][7] = 1e-20
    b["calls"][1]["rows"][1][7] = 1e-20 + 1e-25
    report = replay.diff(a, b, 0.0)
    assert report["per_field"]["vrsc_pg"]["grad_map_sq"] == abs(b["calls"][1]["rows"][1][7]
                                                                - 1e-20)
    assert report["largest"]["field"] == "rows[1].grad_map_sq"
    assert not report["within_bound"]
    assert replay.diff(a, b, 1e-24)["within_bound"]


def test_a_value_that_turns_nan_is_an_infinite_change():
    # NaN compares false with everything, so a plain max or > would drop it
    def gap(call, row, value):
        call["rows"][row][6] = value

    for a_gap, b_gap in ((0.5, float("nan")), (float("nan"), 0.5)):
        a, b = fingerprints(), fingerprints()
        gap(a["calls"][1], 1, a_gap)
        gap(b["calls"][1], 1, b_gap)
        report = replay.diff(a, b, 0.0)
        assert not report["within_bound"]
        assert report["largest"] == {"rel": float("inf"), "call": "a #1 vrsc_pg",
                                     "field": "rows[1].gap"}
        assert report["per_field"]["vrsc_pg"]["gap"] == float("inf")
        assert report["gap_per_objective"]["vrsc_pg"] == float("inf")
    a, b = fingerprints(), fingerprints()
    a["calls"][0]["x_final"] = [float("nan"), -2.0]
    b["calls"][0]["x_final"] = [float("nan"), -2.0 + 2.0**-51]
    b["calls"][0]["x_sha"] = "moved"
    report = replay.diff(a, b, 1.0)
    assert report["largest"]["rel"] == float("inf") and not report["within_bound"]


def test_a_zero_whose_sign_flips_is_the_least_change():
    # 0.0 == -0.0, so only the sign bit or the sha shows the change
    a, b = fingerprints(), fingerprints()
    a["calls"][0]["x_final"] = [0.0, -2.0]
    b["calls"][0]["x_final"] = [-0.0, -2.0]
    b["calls"][0]["x_sha"] = "moved"
    report = replay.diff(a, b, 0.0)
    assert not report["within_bound"]
    assert report["first_difference"]["field"] == "x_final"
    assert report["largest"] == {"rel": replay.LEAST_CHANGE, "call": "a #0 scpg_baseline",
                                 "field": "x_final"}
    assert replay.diff(a, b, 1e-300)["within_bound"]
    a, b = fingerprints(), fingerprints()
    a["calls"][1]["rows"][0][8] = 0.0
    b["calls"][1]["rows"][0][8] = -0.0
    report = replay.diff(a, b, 0.0)
    assert not report["within_bound"]
    assert report["first_difference"] == {"call": "a #1 vrsc_pg", "field": "rows[0].composite_grad_sq",
                                          "a": 0.0, "b": -0.0}
    assert max(report["per_field"]["scpg_baseline"].values()) == 0.0
    assert max(report["per_field"]["vrsc_pg"].values()) == replay.LEAST_CHANGE


def test_largest_change_per_field_and_solver():
    # x_final and each float trace field apart, so that a bound stated per
    # field can be read off; the exit decision still reads the overall largest
    a, b = fingerprints(), fingerprints()
    b["calls"][1]["x_final"] = [0.5, 4.0 + 2.0**-50]
    b["calls"][1]["x_sha"] = "moved"
    b["calls"][1]["rows"][0][5] = 2.0 + 2.0**-51  # objective
    b["calls"][1]["rows"][1][8] = 0.25 * (1 + 2.0**-40)  # composite_grad_sq
    report = replay.diff(a, b, 1e-13)
    assert report["per_field"] == {
        "scpg_baseline": dict.fromkeys(
            ["x_final", "objective", "gap", "grad_map_sq", "composite_grad_sq"], 0.0),
        # a squared norm against the call's largest, 1.0 in rows[0]
        "vrsc_pg": {"x_final": 2.0**-52, "objective": 2.0**-52, "gap": 0.0,
                    "grad_map_sq": 0.0, "composite_grad_sq": 0.25 * 2.0**-40},
    }
    assert report["largest"]["field"] == "rows[1].composite_grad_sq"
    assert not report["within_bound"]
    assert replay.diff(a, b, 1e-12)["within_bound"]
