import warnings

import numpy as np
import pytest

from composolve.numerics import RngStream, l2_norm_sq, sample_with_replacement
from composolve.problems import (
    CompositionProblem,
    gen_lasso,
    gen_linquad,
    gen_mdp,
    gen_gaussian_rewards,
    PolicyEvalProblem,
    PortfolioProblem,
)
from composolve.regularizers import L1Penalty, ZeroPenalty
from composolve import solvers
from composolve.solvers import (
    DivergedError,
    InvalidConfigError,
    ProblemConstants,
    VrscpgConfig,
    compute_snapshot,
    estimate_gradient_vt,
    estimate_inner_jacobian,
    estimate_inner_value,
    gradient_mapping,
    prox_full_gradient,
    prox_svrg,
    scpg_baseline,
    suggest_params_general,
    suggest_params_strongly_convex,
    theorem1_rho,
    theorem3_condition_holds,
    vrsc_pg,
)


def linquad(seed=1, n1=10, n2=10, dim_y=6, dim_x=5, spread=0.5):
    return gen_linquad(n1, n2, dim_y, dim_x, RngStream(seed), spread=spread)


def policy_eval(seed=2, n_states=8):
    p, r = gen_mdp(n_states, 3, RngStream(seed))
    return PolicyEvalProblem(p, r, 0.9)


class QuarticOuterProblem(CompositionProblem):
    """Affine inner maps with quartic outer losses F_i(y) = 0.25 ||y - b_i||^4.

    The outer gradients are nonlinear in y, which is what makes the
    snapshot-corrected composite-gradient estimate biased.
    """

    def __init__(self, seed=0, n1=6, n2=6, dim_y=4, dim_x=3, spread=1.5):
        rng = RngStream(seed)
        base = gen_linquad(n1, n2, dim_y, dim_x, rng, spread=spread)
        self.q_mats = base.q_mats
        self.c_vecs = base.c_vecs
        self.b_vecs = base.b_vecs
        self.n1, self.n2 = n1, n2
        self.dim_x, self.dim_y = dim_x, dim_y

    def inner_value_batch(self, js, x):
        return self.q_mats[js] @ x + self.c_vecs[js]

    def inner_jacobian_batch(self, js, x):
        return self.q_mats[js].copy()

    def outer_value_batch(self, is_, y):
        d = y - self.b_vecs[is_]
        return 0.25 * ((d * d).sum(axis=1)) ** 2

    def outer_gradient_batch(self, is_, y):
        d = y - self.b_vecs[is_]
        return (d * d).sum(axis=1)[:, None] * d


class TestEstimators:
    def test_inner_value_cancels_at_snapshot(self):
        prob = linquad()
        x = RngStream(3).normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x)
        idx = sample_with_replacement(RngStream(4), prob.n2, 5)
        assert np.array_equal(estimate_inner_value(snap, prob, x, idx), snap.G_s)

    def test_inner_value_single_index_formula(self):
        prob = linquad()
        rng = RngStream(5)
        x_tilde = rng.normal(size=prob.dim_x)
        x = rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        js = np.array([3])
        expect = (snap.G_s - prob.inner_value_batch(js, x_tilde)[0]
                  + prob.inner_value_batch(js, x)[0])
        got = estimate_inner_value(snap, prob, x, js)
        assert np.allclose(got, expect, atol=1e-14)

    def test_inner_value_empirically_unbiased(self):
        prob = policy_eval()
        rng = RngStream(6)
        x_tilde = rng.normal(size=prob.dim_x)
        x = rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        truth = prob.full_inner_value(x)
        n_rep, size = 10_000, 3
        acc = np.zeros(prob.dim_y)
        acc_sq = np.zeros(prob.dim_y)
        for _ in range(n_rep):
            est = estimate_inner_value(
                snap, prob, x, sample_with_replacement(rng, prob.n2, size)
            )
            acc += est
            acc_sq += est * est
        mean = acc / n_rep
        se = np.sqrt(np.maximum(acc_sq / n_rep - mean**2, 0.0) / n_rep)
        assert np.all(np.abs(mean - truth) <= 4 * se + 1e-12)

    def test_inner_jacobian_cancels_at_snapshot(self):
        prob = policy_eval()
        x = RngStream(7).normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x)
        idx = sample_with_replacement(RngStream(8), prob.n2, 4)
        assert np.array_equal(estimate_inner_jacobian(snap, prob, x, idx), snap.J_s)

    def test_inner_jacobian_exact_for_affine_maps(self):
        prob = PortfolioProblem(gen_gaussian_rewards(10, 4, 2.0, RngStream(9)))
        rng = RngStream(10)
        snap = compute_snapshot(prob, rng.normal(size=prob.dim_x))
        x = rng.normal(size=prob.dim_x)
        idx = sample_with_replacement(rng, prob.n2, 3)
        assert np.allclose(
            estimate_inner_jacobian(snap, prob, x, idx), snap.J_s, atol=1e-14
        )

    def test_inner_jacobian_empirically_unbiased(self):
        prob = policy_eval(n_states=5)
        rng = RngStream(11)
        x_tilde = rng.normal(size=prob.dim_x)
        x = rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        truth = prob.full_inner_jacobian(x)
        n_rep, size = 5_000, 2
        acc = np.zeros((prob.dim_y, prob.dim_x))
        acc_sq = np.zeros_like(acc)
        for _ in range(n_rep):
            est = estimate_inner_jacobian(
                snap, prob, x, sample_with_replacement(rng, prob.n2, size)
            )
            acc += est
            acc_sq += est * est
        mean = acc / n_rep
        se = np.sqrt(np.maximum(acc_sq / n_rep - mean**2, 0.0) / n_rep)
        assert np.all(np.abs(mean - truth) <= 4 * se + 1e-12)

    def test_gradient_estimate_cancels_at_snapshot(self):
        prob = linquad()
        x = RngStream(12).normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x)
        for trial in range(5):
            idx = sample_with_replacement(RngStream(trial), prob.n1, 4)
            v = estimate_gradient_vt(snap, prob, snap.G_s, snap.J_s, idx)
            assert np.max(np.abs(v - snap.grad_f_s)) <= 1e-12

    def test_gradient_estimate_full_batch_exact(self):
        prob = linquad()
        rng = RngStream(13)
        x_tilde = rng.normal(size=prob.dim_x)
        x = rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        g = prob.full_inner_value(x)
        j = prob.full_inner_jacobian(x)
        v = estimate_gradient_vt(snap, prob, g, j, np.arange(prob.n1))
        assert np.allclose(v, prob.full_gradient(x), atol=1e-12)

    def test_gradient_estimate_biased_with_nonlinear_outer(self):
        # quadratic outer losses have linear gradients, which makes the
        # estimate unbiased; a quartic outer exposes the bias
        prob = QuarticOuterProblem()
        rng = RngStream(14)
        x_tilde = rng.normal(size=prob.dim_x)
        x = x_tilde + 2.0 * rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        truth = prob.full_gradient(x)
        n_rep = 4_000
        acc = np.zeros(prob.dim_x)
        acc_sq = np.zeros(prob.dim_x)
        for _ in range(n_rep):
            g_hat = estimate_inner_value(
                snap, prob, x, sample_with_replacement(rng, prob.n2, 1)
            )
            j_hat = estimate_inner_jacobian(
                snap, prob, x, sample_with_replacement(rng, prob.n2, 1)
            )
            v = estimate_gradient_vt(
                snap, prob, g_hat, j_hat, sample_with_replacement(rng, prob.n1, 1)
            )
            acc += v
            acc_sq += v * v
        mean = acc / n_rep
        se = np.sqrt(np.maximum(acc_sq / n_rep - mean**2, 0.0) / n_rep)
        z = np.abs(mean - truth) / np.maximum(se, 1e-300)
        assert z.max() > 5.0

    def test_empty_index_sets_rejected(self):
        prob = linquad()
        x = np.zeros(prob.dim_x)
        snap = compute_snapshot(prob, x)
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError):
            estimate_inner_value(snap, prob, x, empty)
        with pytest.raises(ValueError):
            estimate_inner_jacobian(snap, prob, x, empty)
        with pytest.raises(ValueError):
            estimate_gradient_vt(snap, prob, snap.G_s, snap.J_s, empty)

    def test_variance_shrinks_near_snapshot(self):
        prob = linquad(spread=1.0)
        rng = RngStream(15)
        x_tilde = rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        direction = rng.normal(size=prob.dim_x)
        direction /= np.linalg.norm(direction)
        variances = []
        for dist in (0.1, 1.0, 3.0):
            x = x_tilde + dist * direction
            draws = np.empty((100, prob.dim_x))
            for k in range(100):
                g_hat = estimate_inner_value(
                    snap, prob, x, sample_with_replacement(rng, prob.n2, 2)
                )
                j_hat = estimate_inner_jacobian(
                    snap, prob, x, sample_with_replacement(rng, prob.n2, 2)
                )
                draws[k] = estimate_gradient_vt(
                    snap, prob, g_hat, j_hat,
                    sample_with_replacement(rng, prob.n1, 2),
                )
            variances.append(float(draws.var(axis=0).sum()))
        assert variances[0] < variances[1] < variances[2]


class TestVrscPg:
    def test_fixed_point_stays_put(self):
        prob = linquad()
        x_star = prob.unregularized_optimum()
        cfg = VrscpgConfig(eta=0.05, m=5, S_epochs=5, A=4, B=4, b1=4, seed=0)
        res = vrsc_pg(prob, ZeroPenalty(), cfg, x0=x_star)
        assert np.linalg.norm(res.x_final - x_star) <= 1e-10

    @pytest.mark.parametrize("batches", ["full", "single"])
    def test_full_batch_matches_prox_gradient_stepwise(self, batches):
        # m = 1 takes every step at its own snapshot, where the estimates
        # equal the full-batch values exactly, whatever the batch sizes
        prob = linquad()
        reg = L1Penalty(1e-3)
        eta = 0.08
        a, b, b1 = (prob.n2, prob.n2, prob.n1) if batches == "full" else (1, 1, 1)
        cfg = VrscpgConfig(eta=eta, m=1, S_epochs=25, A=a, B=b, b1=b1, seed=0)
        res = vrsc_pg(prob, reg, cfg)
        ref = prox_full_gradient(prob, reg, eta, 25)
        for mine, theirs in zip(res.trace[1:], ref.trace[1:]):
            assert abs(mine.objective - theirs.objective) <= 1e-12
        assert np.array_equal(res.x_final, ref.x_final)

    def test_converges_on_portfolio_settings(self):
        prob = PortfolioProblem(gen_gaussian_rewards(60, 10, 2.0, RngStream(16)))
        reg = L1Penalty(1e-3)
        ref = prox_full_gradient(prob, reg, 0.05, 50_000, tol=1e-13)
        cfg = VrscpgConfig(eta=0.05, m=60, S_epochs=30, A=5, B=5, b1=5, seed=0)
        res = vrsc_pg(prob, reg, cfg, x_star=ref.x_final, trace_stride=60)
        gaps = [r.gap for r in res.trace]
        assert gaps[-1] < 1e-6 and gaps[-1] < gaps[0]

    def test_determinism_bitwise(self):
        prob = linquad()
        cfg = VrscpgConfig(eta=0.05, m=8, S_epochs=4, A=3, B=3, b1=3, seed=21)
        r1 = vrsc_pg(prob, L1Penalty(1e-2), cfg)
        r2 = vrsc_pg(prob, L1Penalty(1e-2), cfg)
        assert np.array_equal(r1.x_final, r2.x_final)
        assert [r.objective for r in r1.trace] == [r.objective for r in r2.trace]

    def test_divergence_raises_with_trace(self):
        prob = linquad()
        cfg = VrscpgConfig(eta=1e6, m=50, S_epochs=10, A=2, B=2, b1=2, seed=0)
        with pytest.raises(DivergedError) as err:
            vrsc_pg(prob, ZeroPenalty(), cfg)
        assert len(err.value.trace) >= 1

    def test_geometric_decrease_with_l1(self):
        prob = linquad(spread=0.2)
        reg = L1Penalty(1e-2)
        ref = prox_full_gradient(prob, reg, 0.1, 100_000, tol=1e-14)
        slopes = []
        for seed in range(5):
            cfg = VrscpgConfig(eta=0.1, m=20, S_epochs=25, A=8, B=8, b1=8,
                               seed=seed)
            res = vrsc_pg(prob, reg, cfg, x_star=ref.x_final, trace_stride=20)
            per_epoch = [r for r in res.trace if r.inner_iter in (0, 20)]
            logs = np.log10([max(r.gap, 1e-300) for r in per_epoch])
            logs = logs[logs > -11]
            t = np.arange(len(logs))
            slope, intercept = np.polyfit(t, logs, 1)
            fit = slope * t + intercept
            ss_res = float(((logs - fit) ** 2).sum())
            ss_tot = float(((logs - logs.mean()) ** 2).sum())
            slopes.append((slope, 1 - ss_res / ss_tot))
        med_slope = np.median([s for s, _ in slopes])
        med_r2 = np.median([r for _, r in slopes])
        assert med_slope < 0 and med_r2 >= 0.9


class TestScpgBaseline:
    def test_single_inner_component_tracks_exactly(self):
        # with n2 = 1 and beta = 1 the auxiliary variable equals G(x_t)
        prob = linquad(n2=1)
        rng = RngStream(22)
        x = rng.normal(size=prob.dim_x)
        # manual first step with beta_0 = 1
        y1 = prob.full_inner_value(x)
        i_rng = RngStream(0)
        _ = sample_with_replacement(i_rng, prob.n2, 1)
        i = sample_with_replacement(i_rng, prob.n1, 1)
        jac = prob.inner_jacobian_batch(np.array([0]), x)[0]
        grad = jac.T @ prob.outer_gradient_batch(i, y1)[0]
        run = scpg_baseline(
            prob, ZeroPenalty(), alpha0=0.05, beta0=1.0, exp_alpha=0.75,
            exp_beta=0.5, iters=1, seed=0, x0=x,
        )
        assert np.allclose(run.x_final, x - 0.05 * grad, atol=1e-14)

    def test_query_counts_by_kind(self):
        prob = linquad()
        res = scpg_baseline(
            prob, L1Penalty(1e-3), alpha0=0.02, beta0=1.0,
            exp_alpha=0.75, exp_beta=0.5, iters=25, seed=1,
        )
        assert res.counter.snapshot() == (25, 25, 25)

    def test_objective_decreases(self):
        prob = PortfolioProblem(gen_gaussian_rewards(40, 8, 2.0, RngStream(23)))
        res = scpg_baseline(
            prob, L1Penalty(1e-3), alpha0=0.1, beta0=1.0,
            exp_alpha=0.75, exp_beta=0.5, iters=3000, seed=0, trace_stride=100,
        )
        assert res.trace[-1].objective < res.trace[0].objective

    def test_bad_parameters_rejected(self):
        prob = linquad()
        with pytest.raises(ValueError):
            scpg_baseline(prob, ZeroPenalty(), alpha0=-1.0, beta0=1.0,
                          exp_alpha=0.75, exp_beta=0.5, iters=1, seed=0)
        with pytest.raises(ValueError):
            scpg_baseline(prob, ZeroPenalty(), alpha0=1.0, beta0=1.0,
                          exp_alpha=1.5, exp_beta=0.5, iters=1, seed=0)


class TestProxSvrg:
    def test_single_component_reduces_to_ista(self):
        fsp = gen_lasso(1, 3, RngStream(24))
        reg = L1Penalty(1e-2)
        eta = 0.5
        res = prox_svrg(fsp, reg, eta=eta, m=1, S_epochs=30, seed=0)
        ref = prox_full_gradient(fsp, reg, eta, 30)
        assert np.allclose(res.x_final, ref.x_final, atol=1e-12)

    def test_lasso_matches_ista_solution(self):
        fsp = gen_lasso(40, 8, RngStream(25))
        reg = L1Penalty(1e-2)
        ista = prox_full_gradient(fsp, reg, 1.0, 200_000, tol=1e-13)
        res = prox_svrg(fsp, reg, eta=0.5, m=80, S_epochs=200, seed=0,
                        trace_stride=1000)
        assert np.linalg.norm(res.x_final - ista.x_final) <= 1e-8

    def test_snapshot_step_uses_full_gradient(self):
        # at x_t = x_tilde the corrected estimate equals f' exactly, so the
        # first inner step of each epoch is a deterministic prox step
        fsp = gen_lasso(10, 4, RngStream(26))
        reg = L1Penalty(1e-3)
        eta = 0.4
        res = prox_svrg(fsp, reg, eta=eta, m=1, S_epochs=1, seed=3)
        expect = reg.prox(-eta * fsp.full_gradient(np.zeros(4)), eta)
        assert np.allclose(res.x_final, expect, atol=1e-14)


class TestProxFullGradient:
    def test_linquad_reaches_closed_form(self):
        prob = linquad()
        res = prox_full_gradient(prob, ZeroPenalty(), 0.1, 100_000, tol=1e-12)
        assert np.linalg.norm(res.x_final - prob.unregularized_optimum()) <= 1e-8

    def test_fixed_point_returns_immediately(self):
        prob = linquad()
        x_star = prob.unregularized_optimum()
        res = prox_full_gradient(prob, ZeroPenalty(), 0.1, 100, tol=1e-9,
                                 x0=x_star)
        assert res.n_iters == 1

    def test_policy_eval_recovers_value_function(self):
        prob = policy_eval()
        res = prox_full_gradient(prob, ZeroPenalty(), 2.0, 200_000, tol=1e-13)
        v_star = prob.exact_value_function()
        assert np.max(np.abs(res.x_final - v_star)) <= 1e-6


BUDGETED_RUNS = {
    "vrsc_pg": lambda **budget: vrsc_pg(
        linquad(), L1Penalty(1e-3),
        VrscpgConfig(eta=0.05, m=5, S_epochs=3, A=2, B=2, b1=2), **budget,
    ),
    "scpg": lambda **budget: scpg_baseline(
        linquad(), L1Penalty(1e-3), alpha0=0.05, beta0=1.0, exp_alpha=0.75,
        exp_beta=0.5, iters=20, seed=0, **budget,
    ),
    "prox_svrg": lambda **budget: prox_svrg(
        gen_lasso(40, 8, RngStream(25)), L1Penalty(1e-3), eta=0.5, m=10,
        S_epochs=3, seed=0, **budget,
    ),
    "prox_full_gradient": lambda **budget: prox_full_gradient(
        linquad(), L1Penalty(1e-3), 0.1, 20, **budget,
    ),
}


class TestBudgets:
    @pytest.mark.parametrize("name", sorted(BUDGETED_RUNS))
    def test_spent_wall_budget_spends_no_queries(self, name):
        res = BUDGETED_RUNS[name](budget_wall_s=1e-9)
        assert res.n_iters == 0
        assert res.counter.snapshot() == (0, 0, 0)
        assert len(res.trace) == 1

    def test_snapshot_paid_only_if_a_step_can_follow(self):
        prob = linquad(n1=10, n2=12)
        cfg = VrscpgConfig(eta=0.05, m=5, S_epochs=3, A=2, B=2, b1=2)
        snapshot = prob.n1 + 2 * prob.n2
        res = vrsc_pg(prob, ZeroPenalty(), cfg, budget_queries=snapshot)
        assert res.counter.total == 0 and res.n_iters == 0
        # one query more buys the snapshot and exactly one step
        res = vrsc_pg(prob, ZeroPenalty(), cfg, budget_queries=snapshot + 1)
        assert res.n_iters == 1
        assert res.counter.total == snapshot + 2 * (cfg.A + cfg.B + cfg.b1)


class TestDivergence:
    def test_objective_overflow_ends_run_without_warnings(self):
        # eta = 4 / L triples the top-eigenvector part of the iterate per
        # step, so the quadratic objective overflows long before the iterate
        prob = linquad()
        eta = 4.0 / np.linalg.eigvalsh(prob.hessian())[-1]
        budget = 10_000 * (prob.n1 + 2 * prob.n2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedError) as err:
                prox_full_gradient(prob, ZeroPenalty(), eta, 10_000,
                                   budget_queries=budget)
        assert np.all(np.isfinite(err.value.x_last))
        trace = err.value.trace
        assert len(trace) > 1 and all(np.isfinite(r.objective) for r in trace)
        assert trace[-1].queries < budget // 10


class TestGradientMapping:
    def test_zero_penalty_equals_gradient(self):
        prob = linquad()
        x = RngStream(27).normal(size=prob.dim_x)
        gm = gradient_mapping(prob, ZeroPenalty(), x, 0.3)
        assert np.allclose(gm, prob.full_gradient(x), atol=1e-14)

    def test_vanishes_at_regularized_optimum(self):
        prob = linquad()
        reg = L1Penalty(1e-2)
        ref = prox_full_gradient(prob, reg, 0.1, 200_000, tol=1e-14)
        gm = gradient_mapping(prob, reg, ref.x_final, 0.1)
        assert np.linalg.norm(gm) <= 1e-7

    def test_one_dimensional_hand_case(self):
        from composolve.problems import LinQuadProblem

        prob = LinQuadProblem(
            np.ones((1, 1, 1)), np.zeros((1, 1)), np.zeros((1, 1))
        )
        # f(x) = x^2/2, lambda = 1, eta = 1, x = 0.5: prox(0.5 - 0.5) = 0
        gm = gradient_mapping(prob, L1Penalty(1.0), np.array([0.5]), 1.0)
        assert gm[0] == pytest.approx(0.5)


class TestParameterHelpers:
    def unit(self):
        return ProblemConstants(mu=1, L_f=1, L_F=1, L_G=1, B_F=1, B_G=1)

    def test_strongly_convex_unit_constants(self):
        eta, m, a, b = suggest_params_strongly_convex(self.unit())
        assert eta == pytest.approx(1 / 96)
        assert (m, a, b) == (1552, 2048, 2048)

    def test_doubling_mu_quarters_batches(self):
        c2 = ProblemConstants(mu=2, L_f=2, L_F=1, L_G=1, B_F=1, B_G=1)
        _, _, a1, b1 = suggest_params_strongly_convex(self.unit())
        _, _, a2, b2 = suggest_params_strongly_convex(c2)
        assert a2 == a1 // 4 and b2 == b1 // 4

    def test_suggestion_yields_contraction(self):
        prob = linquad(spread=0.2)
        c = prob.constants(radius=5.0)
        eta, m, a, b = suggest_params_strongly_convex(c)
        assert theorem1_rho(eta, m, a, b, c) < 1.0

    def test_unit_constant_rate_bound(self):
        eta, m, a, b = suggest_params_strongly_convex(self.unit())
        assert theorem1_rho(eta, m, a, b, self.unit()) <= 2 / 3 + 1e-9

    def test_rho_explodes_as_eta_vanishes(self):
        c = self.unit()
        small = theorem1_rho(1e-9, 100, 2048, 2048, c)
        smaller = theorem1_rho(1e-12, 100, 2048, 2048, c)
        assert smaller > small > 1.0

    def test_rho_invalid_configuration_raises(self):
        with pytest.raises(InvalidConfigError):
            theorem1_rho(1.0, 10, 1, 1, self.unit())

    def test_rho_matches_independent_transcription(self):
        rng = RngStream(28)
        for _ in range(20):
            c = ProblemConstants(
                mu=1 + rng.uniform(), L_f=2 + rng.uniform(),
                L_F=0.5 + rng.uniform(), L_G=0.5 + rng.uniform(),
                B_F=0.5 + rng.uniform(), B_G=0.5 + rng.uniform(),
            )
            eta = 1e-4 + 1e-3 * rng.uniform()
            m = int(rng.integers(50)) + 10
            a = int(rng.integers(30_000)) + 20_000
            b = int(rng.integers(30_000)) + 20_000
            # independent re-transcription, grouped differently
            s = (c.B_F * c.B_F * c.L_G * c.L_G) / b
            s += (c.B_G**4) * (c.L_F**2) / a
            inner = 6 * eta * c.L_f + (eta / 2 + 4 / c.mu) * (32 / c.mu) * s
            expect = (2 / c.mu + 2 * eta * inner * (m + 1)) / (
                2 * eta * (7 / 8 - inner) * m
            )
            assert theorem1_rho(eta, m, a, b, c) == pytest.approx(expect, rel=1e-12)

    def test_general_schedule_values(self):
        c = self.unit()
        assert suggest_params_general(500, 500, c) == (0.25, 10, 100, 800, 800)
        assert suggest_params_general(4, 4, c)[1] == 2

    def test_general_schedule_satisfies_condition(self):
        c = self.unit()
        eta, m, b1, a_min, b_min = suggest_params_general(500, 500, c)
        assert theorem3_condition_holds(eta, m, a_min, b_min, b1, c)

    def test_condition_fails_for_huge_eta(self):
        c = self.unit()
        assert not theorem3_condition_holds(1000.0, 10, 800, 800, 100, c)

    def test_condition_boundary_is_inclusive(self):
        # the unit-constant suggested schedule sits exactly on the boundary
        c = self.unit()
        assert theorem3_condition_holds(0.25, 10, 800, 800, 100, c)

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            ProblemConstants(mu=1, L_f=0.5, L_F=1, L_G=1, B_F=1, B_G=1)
        with pytest.raises(ValueError):
            ProblemConstants(mu=0, L_f=1, L_F=1, L_G=1, B_F=1, B_G=1)
