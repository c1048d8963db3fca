import json
import sys
import warnings

import numpy as np
import pytest

from composolve import cli, solvers, verification
from composolve.metrics import CSV_COLUMNS
from composolve.numerics import RngStream
from composolve.problems import (
    LassoProblem,
    PolicyEvalProblem,
    PortfolioProblem,
    gen_linquad,
    save_problem,
)
from composolve.regularizers import L1Penalty
from composolve.solvers import prox_full_gradient


def small_config(tmp_path, solvers=None, budget=3000):
    return {
        "problem": {"kind": "linquad", "n1": 8, "n2": 6, "M": 5, "N": 4,
                    "seed": 3},
        "regularizer": {"kind": "l1", "lambda": 1e-3},
        "seeds": [0, 1],
        "budget": {"max_queries": budget},
        "trace_stride": 5,
        "reference": {"eta": 0.1, "iters": 50_000, "tol": 1e-13},
        "output_dir": str(tmp_path / "out"),
        "solvers": solvers if solvers is not None else [
            {"name": "vrsc_pg", "label": "vr", "eta": 0.05, "m": 10,
             "S_epochs": 50, "A": 3, "B": 3, "b1": 3},
        ],
    }


def replays_identically(config, out_a, out_b):
    """cmd_run twice: the same x_star, and every trace CSV equal modulo wall_ms."""
    s1, s2 = cli.cmd_run(config, out_a), cli.cmd_run(config, out_b)
    return s1["x_star"] == s2["x_star"] and all(
        verification.same_rows_modulo_wall(cli.read_trace_csv(out_a / e["trace"]),
                                           cli.read_trace_csv(out_b / e["trace"]))
        for e in s1["runs"]
    )


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestLoadConfig:
    def test_valid_config_loads(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path))
        cfg = cli.load_config(path)
        assert cfg["problem"]["kind"] == "linquad"

    def test_schema_rejects_bad_solver_name(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = small_config(tmp_path)
        cfg["solvers"][0]["name"] = "gradient_descent_deluxe"
        path = write_config(tmp_path, cfg)
        with pytest.raises(jsonschema.ValidationError):
            cli.load_config(path)

    def test_schema_rejects_missing_seeds(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = small_config(tmp_path)
        del cfg["seeds"]
        path = write_config(tmp_path, cfg)
        with pytest.raises(jsonschema.ValidationError):
            cli.load_config(path)

    def test_schema_solver_names_are_the_table_names(self):
        schema = json.loads(cli._SCHEMA_PATH.read_text(encoding="utf-8"))
        names = schema["properties"]["solvers"]["items"]["properties"]["name"]["enum"]
        assert sorted(names) == sorted(cli._SOLVERS)

    def test_without_jsonschema_warns_and_loads(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "jsonschema", None)
        path = write_config(tmp_path, small_config(tmp_path))
        with pytest.warns(UserWarning, match="not validated: .*jsonschema"):
            cfg = cli.load_config(path)
        assert cfg["problem"]["kind"] == "linquad"

    def test_without_schema_file_warns_and_loads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_SCHEMA_PATH", tmp_path / "missing.json")
        path = write_config(tmp_path, small_config(tmp_path))
        with pytest.warns(UserWarning, match="not validated: .*missing.json"):
            cfg = cli.load_config(path)
        assert cfg["problem"]["kind"] == "linquad"


class TestBuildProblem:
    def test_portfolio(self):
        p = cli.build_problem({"kind": "portfolio", "n": 12, "N": 4,
                               "kappa_cov": 10.0, "seed": 1})
        assert isinstance(p, PortfolioProblem) and (p.n1, p.dim_x) == (12, 4)

    def test_policy_eval(self):
        p = cli.build_problem({"kind": "policy_eval", "S": 6, "gamma": 0.9,
                               "seed": 2})
        assert isinstance(p, PolicyEvalProblem) and p.dim_x == 6

    def test_lasso(self):
        p = cli.build_problem({"kind": "lasso", "n": 10, "N": 4, "seed": 0})
        assert isinstance(p, LassoProblem)

    def test_from_stored_file(self, tmp_path):
        prob = gen_linquad(4, 3, 3, 2, RngStream(9))
        path = tmp_path / "p.json"
        save_problem(prob, path)
        loaded = cli.build_problem({"path": str(path)})
        x = RngStream(1).normal(size=2)
        assert loaded.objective_f(x) == prob.objective_f(x)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cli.build_problem({"kind": "matrix_completion"})

    def test_same_seed_same_data(self):
        spec = {"kind": "portfolio", "n": 8, "N": 3, "seed": 7}
        a = cli.build_problem(spec)
        b = cli.build_problem(spec)
        assert np.array_equal(a.rewards, b.rewards)


class TestTraceCsv:
    def run_small(self, tmp_path):
        cfg = small_config(tmp_path)
        return cli.cmd_run(cfg, tmp_path / "out"), tmp_path / "out"

    def test_round_trip(self, tmp_path):
        _, out = self.run_small(tmp_path)
        rows = cli.read_trace_csv(out / "vr_seed0.csv")
        assert rows and set(rows[0]) == set(CSV_COLUMNS)

    def test_header_drift_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,inner_iter,objective\n0,0,1.0\n")
        with pytest.raises(ValueError):
            cli.read_trace_csv(bad)

    def test_floats_survive_round_trip(self, tmp_path):
        _, out = self.run_small(tmp_path)
        rows = cli.read_trace_csv(out / "vr_seed0.csv")
        raw = (out / "vr_seed0.csv").read_text().splitlines()[1].split(",")
        assert rows[0]["objective"] == float(raw[6])


class TestCmdGen:
    def test_idempotent_bytes(self, tmp_path):
        cfg = small_config(tmp_path)
        p1 = cli.cmd_gen(cfg, tmp_path / "a")
        p2 = cli.cmd_gen(cfg, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_problem_reusable(self, tmp_path):
        cfg = small_config(tmp_path)
        path = cli.cmd_gen(cfg, tmp_path / "a")
        prob = cli.build_problem({"path": str(path)})
        assert prob.n1 == 8 and prob.n2 == 6


class TestCmdRun:
    def test_outputs_and_summary(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        summary = cli.cmd_run(cfg, out)
        assert (out / "summary.json").exists()
        assert len(summary["runs"]) == 2
        for entry in summary["runs"]:
            assert (out / entry["trace"]).exists()
            assert not entry["diverged"]
        assert summary["x_star_verified"]

    def test_budget_respected(self, tmp_path):
        cfg = small_config(tmp_path, budget=1500)
        summary = cli.cmd_run(cfg, tmp_path / "out")
        # at most one inner iteration of overshoot: 2(A + B + b1) = 18
        for entry in summary["runs"]:
            assert entry["total_queries"] <= 1500 + 18

    def test_wall_budget_respected(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg["budget"] = {"max_wall_s": 1e-9}
        out = tmp_path / "out"
        summary = cli.cmd_run(cfg, out)
        assert len(summary["runs"]) == 2
        for entry in summary["runs"]:
            assert entry["total_queries"] == 0
            assert len(cli.read_trace_csv(out / entry["trace"])) == 1

    def test_empty_solver_list_still_writes_summary(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[])
        out = tmp_path / "out"
        summary = cli.cmd_run(cfg, out)
        assert summary["runs"] == []
        assert (out / "summary.json").exists()
        assert not list(out.glob("*.csv"))

    def test_replay_identical_modulo_wall(self, tmp_path):
        assert replays_identically(small_config(tmp_path), tmp_path / "o1", tmp_path / "o2")

    def test_divergent_run_recorded_not_raised(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[
            {"name": "vrsc_pg", "label": "boom", "eta": 1e8, "m": 20,
             "S_epochs": 5, "A": 2, "B": 2, "b1": 2},
        ])
        summary = cli.cmd_run(cfg, tmp_path / "out")
        assert all(e["diverged"] for e in summary["runs"])
        for e in summary["runs"]:  # the spend of the step that diverged too
            last = cli.read_trace_csv(tmp_path / "out" / e["trace"])[-1]
            assert e["total_queries"] >= (last["q_inner_val"] + last["q_inner_jac"]
                                          + last["q_outer_grad"]) > 0

    def test_tune_selects_converging_step(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[
            {"name": "vrsc_pg", "label": "vr", "eta": "tune", "m": 10,
             "S_epochs": 50, "A": 3, "B": 3, "b1": 3,
             "eta_grid": [10.0, 0.1, 1e-4]},
        ], budget=4000)
        summary = cli.cmd_run(cfg, tmp_path / "out")
        assert summary["runs"][0]["eta"] == 0.1

    def test_tune_raises_when_every_step_diverges(self, tmp_path):
        cfg = small_config(tmp_path, solvers=[
            {"name": "vrsc_pg", "label": "vr", "eta": "tune", "m": 20,
             "S_epochs": 5, "A": 2, "B": 2, "b1": 2, "eta_grid": [1e8, 1e9]},
        ])
        with pytest.raises(RuntimeError) as err:
            cli.cmd_run(cfg, tmp_path / "out")
        assert type(err.value) is RuntimeError
        assert str(err.value) == "every step size in the grid diverged for vrsc_pg"

    @pytest.mark.parametrize("extra, trial_budget", [({"tune_queries": 500}, 500), ({}, 600)],
                             ids=["tune_queries", "fifth_of_budget"])
    def test_tune_trial_budget(self, extra, trial_budget, monkeypatch):
        prob, reg = gen_linquad(8, 6, 5, 4, RngStream(3)), L1Penalty(1e-3)
        x_star = prox_full_gradient(prob, reg, 0.1, 50_000, tol=1e-13).x_final
        spec = {"name": "vrsc_pg", "m": 10, "S_epochs": 50, "A": 3, "B": 3, "b1": 3,
                "eta_grid": [0.1, 0.01], **extra}
        spent, vrsc_pg = [], solvers.vrsc_pg

        def spy(*args, budget_queries, **kwargs):
            res = vrsc_pg(*args, budget_queries=budget_queries, **kwargs)
            spent.append((budget_queries, res.counter.total))
            return res

        monkeypatch.setattr(solvers, "vrsc_pg", spy)
        cli.tune_step_size(spec, prob, reg, 0, {"max_queries": 3000}, x_star, 5)
        assert len(spent) == 2
        for budget, total in spent:  # at most one step, 2(A + B + b1), over
            assert budget == trial_budget and total <= trial_budget + 18

    def test_tune_without_reference_optimum_rejected(self):
        # every gap is NaN without x_star, so no trial could ever be chosen
        prob = gen_linquad(8, 6, 5, 4, RngStream(3))
        spec = {"name": "prox_full_gradient", "eta": "tune", "iters": 5,
                "eta_grid": [0.1, 0.01]}
        with pytest.raises(ValueError, match="needs a reference optimum"):
            cli.tune_step_size(spec, prob, L1Penalty(1e-3), 0, {}, None, 5)


class TestCmdPlot:
    def make_traces(self, tmp_path):
        cfg = small_config(tmp_path)
        cli.cmd_run(cfg, tmp_path / "out")
        return sorted((tmp_path / "out").glob("*.csv"))

    def test_one_polyline_per_csv(self, tmp_path):
        csvs = self.make_traces(tmp_path)
        out = tmp_path / "plot.svg"
        cli.cmd_plot([str(p) for p in csvs], out)
        svg = out.read_text()
        assert svg.count("<polyline") == len(csvs)
        assert svg.startswith("<svg") or svg.startswith("<?xml")

    def test_deterministic_bytes_on_queries_axis(self, tmp_path):
        csvs = [str(p) for p in self.make_traces(tmp_path)]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli.cmd_plot(csvs, a)
        cli.cmd_plot(csvs, b)
        assert a.read_bytes() == b.read_bytes()

    def test_wall_axis_and_gradnorm(self, tmp_path):
        csvs = [str(p) for p in self.make_traces(tmp_path)]
        out = tmp_path / "w.svg"
        cli.cmd_plot(csvs, out, x_axis="wall", y_field="gradnorm")
        assert "wall time (ms)" in out.read_text()

    def test_nonpositive_values_clipped_with_warning(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["0,0,1.0,10,0,0,1.0,0.0,1e-3,1e-3",
                "0,1,2.0,20,0,0,0.5,-1e-12,1e-4,1e-4"]
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match="clipped"):
            cli.cmd_plot([str(path)], tmp_path / "c.svg")

    def test_no_inputs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.cmd_plot([], tmp_path / "x.svg")


class TestCheckCommand:
    @pytest.mark.parametrize("check", verification.ALL_CHECKS, ids=lambda fn: fn.__name__)
    def test_builtin_check_passes(self, check):
        name, ok, detail = check()
        assert type(ok) is bool and ok, f"{name}: {detail}"

    def test_detects_broken_prox(self, monkeypatch):
        # thresholding at lam instead of eta*lam: classic scaling slip
        def bad_prox(self, x, eta):
            return np.sign(x) * np.maximum(np.abs(x) - self.lam, 0.0)

        monkeypatch.setattr(L1Penalty, "prox", bad_prox)
        assert any(not ok for _, ok, _ in verification.run_all())

    def test_detects_query_miscount(self, monkeypatch):
        from composolve.oracle import QueryCounter

        orig = QueryCounter.add

        def off_by_one(self, inner_value=0, inner_jacobian=0, outer_gradient=0):
            orig(self, inner_value + (inner_value > 0), inner_jacobian,
                 outer_gradient)

        monkeypatch.setattr(QueryCounter, "add", off_by_one)
        assert any(not ok for _, ok, _ in verification.run_all())

    def test_detects_doubled_jacobian_batch_charge(self, monkeypatch):
        from composolve.oracle import CountedCompositionProblem

        def charged_twice(self, js, x):
            self.counter.add(inner_jacobian=2 * len(js))
            return self._problem.inner_jacobian_batch(js, x)

        # no solver step calls it, so the counting check is what sees it
        monkeypatch.setattr(CountedCompositionProblem, "inner_jacobian_batch", charged_twice)
        assert not verification.check_counting_transparency()[1]


class TestMainEntry:
    def test_gen_run_plot_pipeline(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert cli.main(["gen", "--config", str(path)]) == 0
        assert cli.main(["run", "--config", str(path)]) == 0
        out_dir = tmp_path / "out"
        svg = tmp_path / "fig.svg"
        csvs = sorted(str(p) for p in out_dir.glob("*.csv"))
        assert cli.main(["plot", *csvs, "--out", str(svg)]) == 0
        assert svg.exists()

    def test_check_exit_code(self):
        assert cli.main(["check"]) == 0
