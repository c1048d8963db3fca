"""End-to-end acceptance gate.

Each test prints a single pass/fail line for its criterion. Heavy runs are
desk-scale: small enough for CI, large enough that the qualitative claims
(variance reduction, query-ordering, rate trends) are non-trivial.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from composolve import cli
from composolve.metrics import queries_to_threshold
from composolve.numerics import RngStream, sample_with_replacement
from composolve.problems import (
    PolicyEvalProblem,
    PortfolioProblem,
    gen_gaussian_rewards,
    gen_lasso,
    gen_linquad,
    gen_mdp,
)
from composolve.regularizers import L1Penalty, ZeroPenalty
from composolve.solvers import (
    ProblemConstants,
    VrscpgConfig,
    compute_snapshot,
    estimate_inner_jacobian,
    estimate_inner_value,
    prox_full_gradient,
    prox_svrg,
    scpg_baseline,
    suggest_params_general,
    suggest_params_strongly_convex,
    theorem1_rho,
    vrsc_pg,
)
from test_cli import replays_identically
from test_solvers import TanhInnerProblem


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] acceptance {num:02d} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_02_estimator_unbiasedness():
    """Monte-Carlo means of both inner estimators match the full quantities.

    10^5 index resamples per (point, estimator), drawn as 2*10^4 batches of
    five; the tolerance is four standard errors of the batch means. The
    inner-value estimate runs on the portfolio and policy evaluation, the
    Jacobian estimate on tanh inner maps: their Jacobians depend on x, where
    on an affine class J_j(x_tilde) - J_j(x) vanishes and every entry of the
    estimate would have zero variance.
    """
    n_batches, batch = 20_000, 5
    worst_z = 0.0
    for prob, seed, estimator, full in (
        (PortfolioProblem(gen_gaussian_rewards(20, 5, 2.0, RngStream(4))), 5,
         estimate_inner_value, "full_inner_value"),
        (PolicyEvalProblem(*gen_mdp(8, 4, RngStream(6)), gamma=0.9), 7,
         estimate_inner_value, "full_inner_value"),
        (TanhInnerProblem(), 8, estimate_inner_jacobian, "full_inner_jacobian"),
    ):
        rng = RngStream(seed)
        for _ in range(5):
            x_tilde = rng.normal(size=prob.dim_x)
            x = x_tilde + rng.normal(size=prob.dim_x)
            snap = compute_snapshot(prob, x_tilde)
            truth = getattr(prob, full)(x)
            acc = np.zeros_like(truth)
            acc_sq = np.zeros_like(truth)
            for _ in range(n_batches):
                est = estimator(
                    snap, prob, x,
                    sample_with_replacement(rng, prob.n2, batch),
                )
                acc += est
                acc_sq += est * est
            mean = acc / n_batches
            var = np.maximum(acc_sq / n_batches - mean**2, 0.0)
            se = np.sqrt(var / n_batches)
            z = np.abs(mean - truth) / np.maximum(se, 1e-300)
            # zero-variance components carry no z-score; allow summation
            # rounding only, far below any genuine bias
            exact = se == 0.0
            assert np.all(np.abs(mean[exact] - truth[exact]) <= 1e-9)
            if estimator is estimate_inner_jacobian:
                assert not np.any(exact)
            if np.any(~exact):
                worst_z = max(worst_z, float(z[~exact].max()))
    report(2, "estimator unbiasedness", worst_z <= 4.0,
           f"worst z-score {worst_z:.2f}")


def test_05_prox_correctness():
    """Soft thresholding against a 1-D minimization oracle."""
    rng = RngStream(11)
    worst = 0.0
    for _ in range(1000):
        lam = 0.01 + 2 * rng.uniform()
        eta = 0.01 + 2 * rng.uniform()
        v = 4 * rng.normal()
        got = L1Penalty(lam).prox(np.array([v]), eta)[0]
        res = minimize_scalar(
            lambda t: lam * abs(t) + (t - v) ** 2 / (2 * eta),
            bounds=(-20, 20), method="bounded", options={"xatol": 1e-10},
        )
        worst = max(worst, abs(got - res.x))
    report(5, "soft-threshold vs 1-D minimization oracle", worst <= 1e-6,
           f"worst prox error {worst:.1e}")


def test_06_closed_form_recovery():
    # (a) variance-reduced finite-sum solver vs a long ISTA run on lasso
    fsp = gen_lasso(40, 8, RngStream(12))
    reg = L1Penalty(1e-2)
    ista = prox_full_gradient(fsp, reg, 1.0, 300_000, tol=1e-14)
    svrg = prox_svrg(fsp, reg, eta=0.5, m=80, S_epochs=250, seed=0,
                     trace_stride=10**9)
    err_a = float(np.linalg.norm(svrg.x_final - ista.x_final))

    # (b) compositional solver recovers the linear-solve value function
    p, r = gen_mdp(50, 10, RngStream(0))
    mdp = PolicyEvalProblem(p, r, 0.95)
    cfg = VrscpgConfig(eta=10.0, m=100, S_epochs=250, A=25, B=25, b1=25,
                       seed=0)
    res = vrsc_pg(mdp, ZeroPenalty(), cfg, trace_stride=10**9)
    err_b = float(np.max(np.abs(res.x_final - mdp.exact_value_function())))

    # (c) deterministic reference solver vs the normal-equations optimum
    lq = gen_linquad(20, 15, 8, 6, RngStream(13))
    pg = prox_full_gradient(lq, ZeroPenalty(), 0.1, 300_000, tol=1e-14)
    err_c = float(np.linalg.norm(pg.x_final - lq.unregularized_optimum()))

    ok = err_a <= 1e-8 and err_b <= 1e-6 and err_c <= 1e-8
    report(6, "closed-form recovery (lasso, policy-eval, quadratic)", ok,
           f"errors {err_a:.1e} / {err_b:.1e} / {err_c:.1e}")


def test_08_linear_convergence_strongly_convex():
    prob = gen_linquad(100, 100, 40, 30, RngStream(11), spread=0.3)
    reg = L1Penalty(1e-3)
    ref = prox_full_gradient(prob, reg, 0.2, 400_000, tol=1e-14,
                             trace_stride=10**9)
    slopes, r2s, final_gaps = [], [], []
    for seed in range(5):
        cfg = VrscpgConfig(eta=0.2, m=50, S_epochs=40, A=10, B=10, b1=10,
                           seed=seed)
        res = vrsc_pg(prob, reg, cfg, x_star=ref.x_final, trace_stride=50)
        gaps = np.array([max(r.gap, 1e-300) for r in res.trace])
        final_gaps.append(float(gaps.min()))
        logs = np.log10(gaps)
        keep = logs > -12  # drop records at the numerical floor
        t = np.arange(len(logs))[keep]
        y = logs[keep]
        slope, intercept = np.polyfit(t, y, 1)
        fit = slope * t + intercept
        r2 = 1 - ((y - fit) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        slopes.append(slope)
        r2s.append(r2)
    ok = (
        np.median(slopes) < 0
        and np.median(r2s) >= 0.9
        and np.median(final_gaps) <= 1e-8
    )
    report(8, "geometric objective-gap decay per epoch", ok,
           f"median slope {np.median(slopes):.2f}, "
           f"R2 {np.median(r2s):.3f}, gap {np.median(final_gaps):.1e}")


def test_09_contraction_factor_unit_constants():
    c = ProblemConstants(mu=1, L_f=1, L_F=1, L_G=1, B_F=1, B_G=1)
    eta, m, a, b = suggest_params_strongly_convex(c)
    rho = theorem1_rho(eta, m, a, b, c)
    report(9, "suggested schedule attains contraction factor 2/3",
           rho <= 2 / 3 + 1e-9, f"rho = {rho:.4f}")


def test_10_portfolio_query_ordering():
    """Tuned variance-reduced solver beats the decaying-step baseline.

    Each solver's step size is tuned per problem on seed 0 with a fifth of
    the query budget; comparisons run seeds 0-4 at the full budget, so the
    tuning seed is one of the five compared.
    """
    budget = 400_000
    threshold = 1e-6
    reg = L1Penalty(1e-3)
    wins_ok = True
    vrsc_medians = {}
    scpg_gap_medians = {}
    for kappa in (2.0, 10.0):
        prob = PortfolioProblem(
            gen_gaussian_rewards(200, 50, kappa, RngStream(0))
        )
        L = cli.estimate_lipschitz(prob)
        ref = prox_full_gradient(prob, reg, 1.0 / L, 300_000, tol=1e-13,
                                 trace_stride=10**9)
        x_star = ref.x_final
        eta = cli.tune_step_size(
            {"name": "vrsc_pg", "m": 200, "S_epochs": 10**6, "A": 5, "B": 5,
             "b1": 5}, prob, reg, 0, x_star,
            {"trace_stride": 20, "budget_queries": budget},
        )
        alpha0 = cli.tune_step_size(
            {"name": "scpg"}, prob, reg, 0, x_star,
            {"trace_stride": 200, "budget_queries": budget},
        )
        v_queries, s_gaps, wins = [], [], 0
        for seed in range(5):
            cfg = VrscpgConfig(eta=eta, m=200, S_epochs=10**6, A=5, B=5,
                               b1=5, seed=seed)
            res_v = vrsc_pg(prob, reg, cfg, x_star=x_star, trace_stride=20,
                            budget_queries=budget)
            res_s = scpg_baseline(
                prob, reg, alpha0=alpha0, beta0=1.0, exp_alpha=0.75,
                exp_beta=0.5, iters=10**9, seed=seed, x_star=x_star,
                trace_stride=200, budget_queries=budget,
            )
            q_v = queries_to_threshold(res_v.trace, threshold)
            q_s = queries_to_threshold(res_s.trace, threshold)
            wins += q_v is not None and (q_s is None or q_v < q_s)
            v_queries.append(q_v if q_v is not None else budget + 1)
            s_gaps.append(min(r.gap for r in res_s.trace))
        wins_ok &= wins >= 4
        vrsc_medians[kappa] = float(np.median(v_queries))
        scpg_gap_medians[kappa] = float(np.median(s_gaps))
    # harder covariance costs both solvers: more queries to the target for
    # the variance-reduced solver, a worse budget-limited gap (hence more
    # queries to any common accuracy) for the baseline
    harder_slower = (
        vrsc_medians[10.0] > vrsc_medians[2.0]
        and scpg_gap_medians[10.0] > scpg_gap_medians[2.0]
    )
    report(10, "portfolio query-ordering reproduction",
           wins_ok and harder_slower,
           f"vrsc medians {vrsc_medians[2.0]:.0f}/{vrsc_medians[10.0]:.0f}, "
           f"scpg gaps {scpg_gap_medians[2.0]:.1e}/{scpg_gap_medians[10.0]:.1e}")


def test_11_general_rate_trend():
    prob = gen_linquad(100, 100, 40, 30, RngStream(11), spread=0.3)
    reg = L1Penalty(1e-3)
    c = prob.constants(radius=10.0)
    eta, m, b1, a_min, b_min = suggest_params_general(prob.n1, prob.n2, c)
    A, B = max(a_min, 1), max(b_min, 1)
    epoch_cost = prob.n1 + 2 * prob.n2 + m * (2 * A + 2 * B + 2 * b1)
    T = 6 * epoch_cost
    ratios = []
    for seed in range(5):
        cfg = VrscpgConfig(eta=eta, m=m, S_epochs=12, A=A, B=B, b1=b1,
                           seed=seed)
        res = vrsc_pg(prob, reg, cfg, trace_stride=1)
        gm_T = min(r.grad_map_sq for r in res.trace if r.queries <= T)
        gm_2T = min(r.grad_map_sq for r in res.trace if r.queries <= 2 * T)
        ratios.append(gm_2T / gm_T)
    med = float(np.median(ratios))
    report(11, "doubling the budget shrinks the best gradient mapping",
           med <= 0.75, f"median ratio {med:.3f}")


def test_12_run_determinism(tmp_path):
    config = {
        "problem": {"kind": "portfolio", "n": 30, "N": 8, "kappa_cov": 2.0,
                    "seed": 5},
        "regularizer": {"kind": "l1", "lambda": 1e-3},
        "seeds": [0, 1],
        "budget": {"max_queries": 20_000},
        "trace_stride": 10,
        "reference": {"iters": 100_000, "tol": 1e-13},
        "solvers": [
            {"name": "vrsc_pg", "label": "vr", "eta": 0.05, "m": 30,
             "S_epochs": 10**6, "A": 5, "B": 5, "b1": 5},
            {"name": "scpg", "label": "base", "alpha0": 0.1},
        ],
    }
    report(12, "repeated runs byte-identical modulo wall time",
           replays_identically(config, tmp_path / "a", tmp_path / "b"))
