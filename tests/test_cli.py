import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

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


# A malformed case: (edit of small_config, error, message pattern, solver-level).
# Config-level cases fail before the reference solve and write nothing; a
# solver's own parameter fails in that solver, after the reference solve,
# and writes no CSV for it while the good solver before it runs.
_DELETE = object()


def _edit(*path, value=_DELETE):
    def apply(cfg):
        *parents, leaf = path
        node = cfg
        for key in parents:
            node = node[key]
        if value is _DELETE:
            del node[leaf]
        else:
            node[leaf] = value
        return cfg

    return apply


def _problem(kind, **changes):
    base = {"portfolio": {"kind": "portfolio", "n": 12, "N": 4},
            "policy_eval": {"kind": "policy_eval", "S": 6},
            "linquad": {"kind": "linquad", "n1": 8, "n2": 6, "M": 5, "N": 4},
            "lasso": {"kind": "lasso", "n": 10, "N": 4}}[kind]
    return _edit("problem", value={**base, "seed": 3, **changes})


_LASSO_GOOD = {"name": "prox_full_gradient", "label": "vr", "eta": 0.5, "iters": 50}


def _bad_solver(name, **params):
    """The config's good solver, then a solver labelled "bad" with params."""
    defaults = {"vrsc_pg": {"eta": 0.05, "m": 10, "S_epochs": 5, "A": 3, "B": 3, "b1": 3},
                "scpg": {"alpha0": 0.05},
                "prox_svrg": {"eta": 0.5, "m": 10, "S_epochs": 3},
                "prox_full_gradient": {"eta": 0.1, "iters": 50}}[name]
    bad = {"name": name, "label": "bad", **defaults, **params}

    def apply(cfg):
        if name == "prox_svrg":
            cfg = _problem("lasso")(cfg)
            cfg["solvers"] = [_LASSO_GOOD]
        cfg["solvers"].append(bad)
        return cfg

    return apply


def _case(edit, error, match, case_id, solver_level=False):
    return pytest.param(edit, error, match, solver_level, id=case_id)


MALFORMED = [
    _case(lambda cfg: [cfg], TypeError, "^config must", "config_not_object"),
    _case(_edit("problem"), TypeError, "^problem must", "problem_missing"),
    _case(_edit("seeds"), TypeError, "^seeds must", "seeds_missing"),
    # the problem block
    _case(_edit("problem", value={"path": 5}), TypeError, "^path must", "path_not_string"),
    _case(_edit("problem", "kind", value="matrix_completion"), ValueError,
          "kind: 'matrix_completion'", "kind_unknown"),
    _case(_edit("problem", "seed", value=-1), ValueError, "^seed must", "problem_seed_negative"),
    _case(_edit("problem", "seed", value=1.5), TypeError, "^seed must", "problem_seed_not_int"),
    _case(_problem("portfolio", n=0), ValueError, "^n must", "n_zero"),
    _case(_problem("portfolio", N=0), ValueError, "^N must", "N_zero"),
    _case(_problem("portfolio", kappa_cov=0.5), ValueError, "^kappa_cov must", "kappa_cov_below_1"),
    _case(_problem("policy_eval", S=1), ValueError, "^n_states must", "S_below_2"),
    _case(_problem("policy_eval", num_actions=0), ValueError, "^num_actions must",
          "num_actions_zero"),
    _case(_problem("policy_eval", gamma=1.0), ValueError, "^gamma must", "gamma_one"),
    _case(_problem("linquad", n1=0), ValueError, "^n1 must", "n1_zero"),
    _case(_problem("linquad", n2=0), ValueError, "^n2 must", "n2_zero"),
    _case(_problem("linquad", M=0), ValueError, "^M must", "M_zero"),
    _case(_problem("linquad", n1=2.5), TypeError, "^n1 must", "n1_not_int"),
    _case(_problem("linquad", spread=-0.1), ValueError, "^spread must", "spread_negative"),
    _case(_problem("lasso", sparsity=1.5), ValueError, "^sparsity must", "sparsity_above_1"),
    _case(_problem("lasso", noise=-1.0), ValueError, "^noise must", "noise_negative"),
    # the regularizer block
    _case(_edit("regularizer", value="l1"), TypeError, "^regularizer must",
          "regularizer_not_object"),
    _case(_edit("regularizer", "kind"), ValueError, "kind: None", "regularizer_kind_missing"),
    _case(_edit("regularizer", "kind", value="l2"), ValueError, "kind: 'l2'",
          "regularizer_kind_unknown"),
    _case(_edit("regularizer", "lambda", value=-1.0), ValueError, "^lam must", "lambda_negative"),
    # the solver blocks: what cmd_run reads
    _case(_edit("solvers", value={}), TypeError, "^solvers must", "solvers_not_array"),
    _case(_edit("solvers", value=["vrsc_pg"]), TypeError, "^solver must", "solver_not_object"),
    _case(_edit("solvers", 0, "name"), ValueError, "name: None", "solver_name_missing"),
    _case(_edit("solvers", 0, "name", value="gradient_descent_deluxe"), ValueError,
          "name: 'gradient_descent_deluxe'", "solver_name_unknown"),
    _case(_edit("solvers", 0, "label", value=5), TypeError, "^label must", "label_not_string"),
    _case(_edit("solvers", 0, "label", value="runs/vr"), ValueError,
          "^label must not contain a path separator, got 'runs/vr'", "label_with_slash"),
    _case(_edit("solvers", 0, "label", value="runs\\vr"), ValueError,
          "^label must not contain a path separator", "label_with_backslash"),
    _case(lambda cfg: _edit("solvers", value=[
              {k: v for k, v in cfg["solvers"][0].items() if k != "label"}] * 2)(cfg),
          ValueError, "^labels must be distinct, got 'vrsc_pg' twice", "labels_repeated"),
    _case(lambda cfg: _edit("solvers", value=[
              {k: v for k, v in cfg["solvers"][0].items() if k != "label"},
              {"name": "scpg", "label": "vrsc_pg", "alpha0": 0.05}])(cfg),
          ValueError, "^labels must be distinct, got 'vrsc_pg' twice", "label_repeats_default"),
    _case(_edit("solvers", 0, "eta", value="fast"), TypeError, "^eta must",
          "eta_neither_number_nor_tune"),
    _case(_edit("solvers", 0, "eta", value=0.0), ValueError, "^eta must", "eta_zero"),
    _case(_edit("solvers", 0, "eta"), TypeError, "^eta must", "eta_missing"),
    _case(_edit("solvers", 0, "eta_grid", value=[]), ValueError, "^eta_grid must",
          "eta_grid_empty"),
    _case(_edit("solvers", 0, "eta_grid", value=["a"]), TypeError, "^eta_grid entry must",
          "eta_grid_not_numbers"),
    _case(_edit("solvers", 0, "tune_queries", value=0), ValueError, "^tune_queries must",
          "tune_queries_zero"),
    # the problem family
    _case(_edit("solvers", value=[{"name": "prox_svrg", "eta": 0.5, "m": 10, "S_epochs": 3}]),
          ValueError, "prox_svrg cannot run on a LinQuadProblem", "prox_svrg_on_composition"),
    # a solver's own parameters: rejected in the solver, before a query
    *(_case(_bad_solver("vrsc_pg", **{key: 0}), ValueError, f"^{key} must", f"vrsc_pg_{key}_zero",
            True) for key in ("m", "S_epochs", "A", "B", "b1")),
    _case(_bad_solver("vrsc_pg", m=2.5), TypeError, "^m must", "vrsc_pg_m_not_int", True),
    _case(_bad_solver("scpg", beta0=0.0), ValueError, "^beta0 must", "scpg_beta0_zero", True),
    _case(_bad_solver("scpg", exp_alpha=1.5), ValueError, "^exp_alpha must",
          "scpg_exp_alpha_above_1", True),
    _case(_bad_solver("scpg", exp_beta=0.0), ValueError, "^exp_beta must",
          "scpg_exp_beta_zero", True),
    _case(_bad_solver("scpg", iters=0), ValueError, "^iters must", "scpg_iters_zero", True),
    _case(_bad_solver("prox_svrg", m=0), ValueError, "^m must", "prox_svrg_m_zero", True),
    _case(_bad_solver("prox_svrg", S_epochs=0), ValueError, "^S_epochs must",
          "prox_svrg_S_epochs_zero", True),
    _case(_bad_solver("prox_full_gradient", iters=0), ValueError, "^iters must",
          "prox_full_gradient_iters_zero", True),
    _case(_bad_solver("prox_full_gradient", tol=-1.0), ValueError, "^tol must",
          "prox_full_gradient_tol_negative", True),
    # seeds, budget, trace stride
    _case(_edit("seeds", value=[]), ValueError, "^seeds must", "seeds_empty"),
    _case(_edit("seeds", value="0"), TypeError, "^seeds must", "seeds_not_array"),
    _case(_edit("seeds", value=[0, 1.5]), TypeError, "^seed must", "seed_not_int"),
    _case(_edit("seeds", value=[True]), TypeError, "^seed must", "seed_bool"),
    _case(_edit("seeds", value=[-1]), ValueError, "^seed must", "seed_negative"),
    _case(_edit("seeds", value=[0, 1, 0]), ValueError, "^seeds must be distinct, got 0 twice",
          "seeds_repeated"),
    _case(_edit("budget", value=5), TypeError, "^budget must", "budget_not_object"),
    _case(_edit("budget", "max_queries", value=0), ValueError, "^budget_queries must",
          "max_queries_zero"),
    _case(_edit("budget", "max_queries", value=1.5), TypeError, "^budget_queries must",
          "max_queries_not_int"),
    _case(_edit("budget", "max_wall_s", value=0), ValueError, "^budget_wall_s must",
          "max_wall_s_zero"),
    _case(_edit("trace_stride", value=0), ValueError, "^trace_stride must", "trace_stride_zero"),
    _case(_edit("trace_stride", value=1.5), TypeError, "^trace_stride must",
          "trace_stride_not_int"),
    # the reference block
    _case(_edit("reference", value=[]), TypeError, "^reference must", "reference_not_object"),
    _case(_edit("reference", "eta", value=0.0), ValueError, "^eta must", "reference_eta_zero"),
    _case(_edit("reference", "iters", value=0), ValueError, "^iters must", "reference_iters_zero"),
    _case(_edit("reference", "tol", value=-1.0), ValueError, "^tol must", "reference_tol_negative"),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("edit, error, match, solver_level", MALFORMED)
    def test_rejected_naming_the_value(self, edit, error, match, solver_level, tmp_path):
        cfg = edit(small_config(tmp_path))
        out = tmp_path / "out"
        with pytest.raises(error, match=match):
            cli.cmd_run(cfg, out)
        if solver_level:
            assert list(out.glob("vr_seed*.csv")) and not list(out.glob("bad_seed*.csv"))
        else:
            assert not out.exists()

    def test_lasso_runs_every_solver(self, tmp_path):
        # a finite sum is a composition: the compositional solvers run on it too
        cfg = _problem("lasso")(small_config(tmp_path, solvers=[
            {"name": "prox_svrg", "eta": 0.5, "m": 10, "S_epochs": 3},
            {"name": "prox_full_gradient", "eta": "tune", "iters": 50},
            {"name": "vrsc_pg", "eta": 0.5, "m": 10, "S_epochs": 3, "A": 1, "B": 1, "b1": 1},
            {"name": "scpg", "alpha0": 0.1, "iters": 50},
        ]))
        summary = cli.cmd_run(cfg, tmp_path / "out")
        solved = [e["solver"] for e in summary["runs"]]
        assert solved == [name for name in ("prox_svrg", "prox_full_gradient", "vrsc_pg",
                                            "scpg") for _ in range(2)]
        assert not any(e["diverged"] for e in summary["runs"])

    def test_output_dir_not_string_rejected(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg["output_dir"] = 5
        with pytest.raises(TypeError, match="^output_dir must"):
            cli.main(["run", "--config", str(write_config(tmp_path, cfg))])


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

    def test_truncated_row_rejected(self, tmp_path):
        _, out = self.run_small(tmp_path)
        lines = (out / "vr_seed0.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]  # drops composite_grad_sq
        bad = tmp_path / "truncated.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row with 9 fields under a header of 10"):
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

    def test_start_at_optimum_warns(self, tmp_path):
        # at S = 400 the mean gradient at 0 lies below the L1 weight, so x* = 0
        cfg = {"problem": {"kind": "policy_eval", "S": 400, "gamma": 0.95, "seed": 1},
               "regularizer": {"kind": "l1", "lambda": 1e-3}, "seeds": [0]}
        with pytest.warns(UserWarning, match="reference optimum is the start point"):
            summary = cli.cmd_run(cfg, tmp_path / "out")
        assert summary["x_star_verified"] and not any(summary["x_star"])

    def test_start_away_from_optimum_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = cli.cmd_run(small_config(tmp_path, solvers=[]), tmp_path / "out")
        assert summary["x_star_verified"] and any(summary["x_star"])

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

    @pytest.mark.parametrize("reference, lipschitz, source", [
        ({"eta": 100.0}, None, r"100 \(from reference\.eta\)"),
        ({}, 1e-3, r"1000 \(from the Lipschitz estimate\)"),
    ], ids=["reference_eta", "lipschitz_estimate"])
    def test_diverged_reference_solve_named(self, reference, lipschitz, source, tmp_path,
                                            monkeypatch):
        cfg = small_config(tmp_path)
        cfg["reference"] = {"iters": 1000, **reference}
        if lipschitz is not None:
            monkeypatch.setattr(cli, "estimate_lipschitz", lambda problem: lipschitz)
        with pytest.raises(RuntimeError, match="^the reference solve diverged at step size "
                                               + source):
            cli.cmd_run(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

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

    def test_tune_raises_when_no_trial_takes_a_step(self, tmp_path):
        # a trial of 50 // 5 = 10 queries is below one snapshot, n1 + 2 n2 = 20
        cfg = small_config(tmp_path, solvers=[
            {"name": "vrsc_pg", "label": "vr", "eta": "tune", "m": 10,
             "S_epochs": 50, "A": 3, "B": 3, "b1": 3},
        ], budget=50)
        with pytest.raises(RuntimeError, match="^no trial of the step-size sweep for "
                                               "vrsc_pg took a step"):
            cli.cmd_run(cfg, tmp_path / "out")
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_failed_sweep_leaves_no_output_directory(self, tmp_path):
        # the fixed-step solver comes first, so its seed runs would have
        # written their CSVs had the second solver's sweep run after them
        cfg = small_config(tmp_path, solvers=[
            {"name": "vrsc_pg", "label": "fixed", "eta": 0.05, "m": 10,
             "S_epochs": 50, "A": 3, "B": 3, "b1": 3},
            {"name": "vrsc_pg", "label": "tuned", "eta": "tune", "m": 10,
             "S_epochs": 50, "A": 3, "B": 3, "b1": 3},
        ], budget=50)
        with pytest.raises(RuntimeError, match="^no trial of the step-size sweep"):
            cli.cmd_run(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, budget_queries, trial_budget",
                             [({"tune_queries": 500}, 3000, 500), ({}, 3000, 600),
                              ({"tune_queries": 100}, None, 100)],
                             ids=["tune_queries", "fifth_of_budget", "tune_queries_no_budget"])
    def test_tune_trial_budget(self, extra, budget_queries, trial_budget, monkeypatch):
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
        run = {"trace_stride": 5, "budget_queries": budget_queries, "budget_wall_s": None}
        cli.tune_step_size(spec, prob, reg, 0, x_star, run)
        assert len(spent) == 2
        for budget, total in spent:  # at most one step, 2(A + B + b1), over
            assert budget == trial_budget and total <= trial_budget + 18

    def test_tune_without_reference_optimum_rejected(self):
        # every gap is NaN without x_star, so no trial could ever be chosen
        prob = gen_linquad(8, 6, 5, 4, RngStream(3))
        spec = {"name": "prox_full_gradient", "eta": "tune", "iters": 5,
                "eta_grid": [0.1, 0.01]}
        with pytest.raises(ValueError, match="needs a reference optimum"):
            cli.tune_step_size(spec, prob, L1Penalty(1e-3), 0, None, {"trace_stride": 5})


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

    def test_series_name_escaped(self, tmp_path):
        # the legend shows the CSV stem, a config label, which may hold &, < and >
        path = tmp_path / "vr<a&b>_seed0.csv"
        rows = ["0,0,1.0,10,0,0,1.0,1e-2,1e-3,1e-3", "0,1,2.0,20,0,0,0.5,1e-4,1e-4,1e-4"]
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "names.svg"
        cli.cmd_plot([str(path)], out)
        texts = [t.text for t in ET.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert "vr<a&b>_seed0" in texts

    def test_no_inputs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.cmd_plot([], tmp_path / "x.svg")

    def test_nan_gap_rejected_naming_file_and_column(self, tmp_path):
        # recorded without a reference optimum: every row's gap is NaN
        res = prox_full_gradient(gen_linquad(6, 5, 4, 3, RngStream(4)), L1Penalty(1e-3),
                                 0.1, 4)
        path, out = tmp_path / "nogap.csv", tmp_path / "nogap.svg"
        cli.write_trace_csv(path, res.trace)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"column gap of {path}"):
                cli.cmd_plot([str(path)], out)
        assert not out.exists()
        cli.cmd_plot([str(path)], out, y_field="gradnorm")
        assert out.read_text().count("<polyline") == 1


def passes():
    """A check that passes, so that the tests of `composolve check` itself run
    no built-in check a second time."""
    return "passes", True, "stub"


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
        assert not verification.check_prox_properties()[1]

    def test_detects_query_miscount(self, monkeypatch):
        from composolve.oracle import QueryCounter

        orig = QueryCounter.add

        def off_by_one(self, inner_value=0, inner_jacobian=0, outer_gradient=0):
            orig(self, inner_value + (inner_value > 0), inner_jacobian,
                 outer_gradient)

        monkeypatch.setattr(QueryCounter, "add", off_by_one)
        assert not verification.check_query_exactness()[1]

    def test_detects_doubled_jacobian_batch_charge(self, monkeypatch):
        from composolve.oracle import CountedCompositionProblem

        def charged_twice(self, js, x):
            self.counter.add(inner_jacobian=2 * len(js))
            return self._problem.inner_jacobian_batch(js, x)

        # no solver step calls it, so the counting check is what sees it
        monkeypatch.setattr(CountedCompositionProblem, "inner_jacobian_batch", charged_twice)
        assert not verification.check_counting_transparency()[1]

    def test_check_that_raises_fails_alone(self, monkeypatch, capsys):
        # the exception is one FAIL row, and the checks after it still run
        def raises():
            raise ValueError("shapes (3,) and (4,4) not aligned")

        monkeypatch.setattr(verification, "ALL_CHECKS", (passes, raises, passes))
        assert cli.main(["check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("]")[0] for line in lines[:3]] == ["[PASS", "[FAIL", "[PASS"]
        assert lines[1] == ("[FAIL] raises: raised ValueError: shapes (3,) and (4,4) "
                            "not aligned")
        assert lines[3] == "2/3 checks passed"


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

    def test_check_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(verification, "ALL_CHECKS", (passes, passes))
        assert cli.main(["check"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2/2 checks passed"

    def test_module_form_prints_usage(self):
        # python -m composolve runs the console script's main, from the
        # package these tests import
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        res = subprocess.run([sys.executable, "-m", "composolve", "--help"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("usage: composolve ")
