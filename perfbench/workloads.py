"""The three benchmark workloads.

Each workload builds its problem instance once (`setup`, timed as
`setup_s`) and then runs rounds until the measuring time is used up. A
round is one end-to-end experiment as a user would run it, writing its
CSV traces and a JSON summary to the benchmark's scratch directory. The
program receives only the generated inputs: problems, regularizers and
config dicts built here, never a config file.

The problem instance of each workload is fixed; the workload seed picks
the solver seeds. Measured on the desk portfolio, three reward draws
needed 48k-55k, 68k-70k and 49k-54k queries to reach the 1e-6 gap, so
drawing the instance from the seed would make `time_to_gap_s` spread by
about 40% between seeds, far beyond its bound. Solver seeds come from a
pool of `POOL` seeds, so that every seed run has recorded invariants
(queries to the gap, iterations, final objective) in expected.json.
"""

import json
import random

from composolve import cli, problems, solvers
from composolve.numerics import RngStream
from composolve.regularizers import ZeroPenalty, make_regularizer

POOL = 16


def seed_order(workload_seed):
    """The pool seeds in the order this workload seed visits them."""
    order = list(range(POOL))
    random.Random(int(workload_seed)).shuffle(order)
    return order


def _write_outputs(out_dir, runs):
    """CSV trace per seed run plus a summary, as `composolve run` writes them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for label, seed, res in runs:
        path = out_dir / f"{label}_seed{seed}.csv"
        cli.write_trace_csv(path, res.trace)
        summary.append({"label": label, "seed": seed, "n_iters": res.n_iters,
                        "total_queries": res.counter.total, "trace": path.name})
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"runs": summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")


class PortfolioDesk:
    """The desk portfolio experiment through `cli.cmd_run`.

    n=200, N=50, L1 1e-3, tuned vrsc_pg and scpg, trace stride 20 and five
    seeds, as in configs/portfolio_desk.json; the query budget is cut so
    that one round takes several seconds, not a minute and a half.
    """

    name = "portfolio_desk"
    gap_threshold = 1e-6
    seeds_per_round = 5
    seed_runs_per_round = 10
    kernel = "mixed"  # calibration kernel
    problem_spec = {"kind": "portfolio", "n": 200, "N": 50, "kappa_cov": 2, "seed": 1}
    reg_spec = {"kind": "l1", "lambda": 1e-3}
    reference = {"iters": 200_000, "tol": 1e-12}
    budget = {"max_queries": 64_000}

    def setup(self):
        prob = cli.build_problem(self.problem_spec)
        reg = make_regularizer(self.reg_spec["kind"], self.reg_spec["lambda"])
        cli.compute_reference(prob, reg, self.reference)
        return None

    def config(self, seeds):
        return {
            "problem": dict(self.problem_spec),
            "regularizer": dict(self.reg_spec),
            "solvers": [
                {"name": "vrsc_pg", "eta": "tune", "m": 200, "S_epochs": 10**6,
                 "A": 5, "B": 5, "b1": 5},
                {"name": "scpg", "alpha0": "tune", "beta0": 1.0,
                 "exp_alpha": 0.75, "exp_beta": 0.5, "iters": 10**9},
            ],
            "seeds": list(seeds),
            "budget": dict(self.budget),
            "trace_stride": 20,
            "reference": dict(self.reference),
        }

    def round(self, state, seeds, out_dir):
        summary = cli.cmd_run(self.config(seeds), out_dir)
        tuned = {}
        for entry in summary["runs"]:
            key = "alpha0" if entry["solver"] == "scpg" else "eta"
            tuned[entry["solver"]] = entry[key]
        return {"tuned": tuned, "x_star_verified": summary["x_star_verified"]}


class PolicyEvalS400:
    """Policy evaluation at the full-config size S=400, solvers called directly.

    The solver settings are those of configs/policy_eval_full.json: vrsc_pg
    with m=800 and A=B=b1=5, scpg with its decay exponents, and the step
    sizes that the config's grid sweep picks (vrsc_pg eta=1, scpg
    alpha0=1e-3). Both runs share one budget of one vrsc_pg epoch (25200
    queries), so the snapshot stays at its shipped share of an epoch.

    Zero penalty: with the configs' L1 weight 1e-3 the optimum at S=400 is
    x*=0 (the zero start), because the gradient at 0 is below the weight
    in every entry. Without the penalty the optimum is the exact value
    function, a closed form, so the gap needs no reference solve.
    """

    name = "policy_eval_s400"
    gap_threshold = 0.2487
    seeds_per_round = 1
    seed_runs_per_round = 2
    kernel = "dense"  # calibration kernel
    budget_queries = 25_200  # one epoch: n1 + 2 n2 + m (2A + 2B + 2 b1)

    def setup(self):
        p, r = problems.gen_mdp(400, 10, RngStream(1))
        prob = problems.PolicyEvalProblem(p, r, 0.95)
        return {"prob": prob, "reg": ZeroPenalty(), "x_star": prob.exact_value_function()}

    def round(self, state, seeds, out_dir):
        prob, reg, x_star = state["prob"], state["reg"], state["x_star"]
        (seed,) = seeds
        cfg = solvers.VrscpgConfig(eta=1.0, m=800, S_epochs=400, A=5, B=5, b1=5, seed=seed)
        res_v = solvers.vrsc_pg(prob, reg, cfg, x_star=x_star, trace_stride=50,
                                budget_queries=self.budget_queries)
        res_s = solvers.scpg_baseline(
            prob, reg, alpha0=1e-3, beta0=1.0, exp_alpha=0.75, exp_beta=0.5,
            iters=10**9, seed=seed, x_star=x_star, trace_stride=500,
            budget_queries=self.budget_queries,
        )
        _write_outputs(out_dir, [("vrsc_pg", seed, res_v), ("scpg", seed, res_s)])
        return {}


class LinQuadDenseTrace:
    """Dense affine-quadratic composition (n1 != n2) and a lasso, trace stride 1.

    Zero penalty everywhere, so both optima are closed forms.
    """

    name = "linquad_dense_trace"
    gap_threshold = 1e-8
    seeds_per_round = 1
    seed_runs_per_round = 3
    kernel = "mixed"  # calibration kernel

    def setup(self):
        prob = problems.gen_linquad(64, 96, 12, 8, RngStream(1))
        lasso = problems.gen_lasso(256, 24, RngStream(2))
        return {
            "prob": prob,
            "x_star": prob.unregularized_optimum(),
            "eta_full": 1.0 / prob.constants().L_f,
            "lasso": lasso,
            "x_lasso": lasso.least_squares_solution(),
            "reg": ZeroPenalty(),
        }

    def round(self, state, seeds, out_dir):
        prob, reg = state["prob"], state["reg"]
        (seed,) = seeds
        cfg = solvers.VrscpgConfig(eta=0.1, m=100, S_epochs=6, A=5, B=5, b1=5, seed=seed)
        res_v = solvers.vrsc_pg(prob, reg, cfg, x_star=state["x_star"], trace_stride=1)
        res_f = solvers.prox_full_gradient(
            prob, reg, eta=state["eta_full"], iters=200, x_star=state["x_star"], trace_stride=1,
        )
        res_s = solvers.prox_svrg(
            state["lasso"], reg, eta=0.3, m=256, S_epochs=4, seed=seed,
            x_star=state["x_lasso"], trace_stride=1,
        )
        _write_outputs(out_dir, [("vrsc_pg", seed, res_v), ("prox_full_gradient", seed, res_f),
                                 ("prox_svrg", seed, res_s)])
        return {}


WORKLOADS = {w.name: w for w in (PortfolioDesk(), PolicyEvalS400(), LinQuadDenseTrace())}
