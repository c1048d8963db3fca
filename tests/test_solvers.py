import warnings
from dataclasses import replace

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
from composolve.metrics import (
    TraceRecorder,
    composite_grad_sq,
    gradient_mapping,
    objective_H,
)
from composolve.oracle import (
    QueryCounter,
    counted,
    full_gradient_cost,
    scpg_cost,
    vrsc_pg_cost,
)
from composolve.regularizers import L1Penalty, ZeroPenalty
from composolve import solvers, verification
from composolve.solvers import (
    DivergedError,
    InvalidConfigError,
    ProblemConstants,
    VrscpgConfig,
    compute_snapshot,
    estimate_gradient_vt,
    estimate_inner_jacobian,
    estimate_inner_value,
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


class TanhInnerProblem(CompositionProblem):
    """Nonlinear inner maps G_j(x) = tanh(Q_j x) + c_j, quadratic outer losses.

    The inner Jacobians depend on x, so the snapshot correction
    J_j(x_tilde) - J_j(x) of the Jacobian estimate is nonzero away from the
    snapshot; every shipped class has affine inner maps, where it vanishes.
    """

    def __init__(self, seed=0, n1=6, n2=7, dim_y=5, dim_x=4, spread=1.0):
        base = gen_linquad(n1, n2, dim_y, dim_x, RngStream(seed), spread=spread)
        self.q_mats = base.q_mats
        self.c_vecs = base.c_vecs
        self.b_vecs = base.b_vecs
        self.n1, self.n2 = n1, n2
        self.dim_x, self.dim_y = dim_x, dim_y

    def _sech_sq(self, js, x):
        return 1.0 - np.tanh(self.q_mats[js] @ x) ** 2

    def inner_value_batch(self, js, x):
        return np.tanh(self.q_mats[js] @ x) + self.c_vecs[js]

    def inner_jacobian_batch(self, js, x):
        return self._sech_sq(js, x)[:, :, None] * self.q_mats[js]

    def inner_vjp_batch(self, js, x, u):
        return ((u * self._sech_sq(js, x))[:, None, :] @ self.q_mats[js])[:, 0]

    def outer_value_batch(self, is_, y):
        d = y - self.b_vecs[is_]
        return 0.5 * (d * d).sum(axis=1)

    def outer_gradient_batch(self, is_, y):
        return y - self.b_vecs[is_]


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

    def test_generic_correction_sums_in_index_order(self):
        # the paired difference of the generic default is one axis-0 sum in
        # index order, the arithmetic that keeps portfolio and linquad runs
        # bitwise as they were
        prob = linquad()
        rng = RngStream(7)
        x_tilde, x = rng.normal(size=prob.dim_x), rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        js = np.array([3, 0, 3, 5, 1, 2, 4])
        diffs = prob.inner_value_batch(js, x_tilde) - prob.inner_value_batch(js, x)
        total = diffs[0]
        for row in diffs[1:]:
            total = total + row
        assert np.array_equal(estimate_inner_value(snap, prob, x, js),
                              snap.G_s - total / len(js))

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
        # tanh inner maps: a dense J_s, and per-index Jacobians that depend on x
        prob = TanhInnerProblem()
        x = RngStream(7).normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x)
        idx = sample_with_replacement(RngStream(8), prob.n2, 4)
        assert np.array_equal(estimate_inner_jacobian(snap, prob, x, idx), snap.J_s)

    def test_inner_jacobian_exact_for_affine_maps(self):
        # the generic view's snapshot holds the dense mean Jacobian
        prob = verification._generic_view(
            PortfolioProblem(gen_gaussian_rewards(10, 4, 2.0, RngStream(9))))
        rng = RngStream(10)
        snap = compute_snapshot(prob, rng.normal(size=prob.dim_x))
        x = rng.normal(size=prob.dim_x)
        idx = sample_with_replacement(rng, prob.n2, 3)
        assert np.allclose(
            estimate_inner_jacobian(snap, prob, x, idx), snap.J_s, atol=1e-14
        )

    def test_dense_reference_needs_dense_snapshot_jacobian(self):
        # the portfolio's snapshot holds r_bar, shape (N,), which would
        # broadcast silently against the (M, N) correction
        prob = PortfolioProblem(gen_gaussian_rewards(10, 4, 2.0, RngStream(9)))
        x = np.zeros(prob.dim_x)
        snap = compute_snapshot(prob, x)
        with pytest.raises(ValueError, match="dense J_s"):
            estimate_inner_jacobian(snap, prob, x, np.array([0, 1]))

    def test_inner_jacobian_empirically_unbiased(self):
        # tanh inner maps: their Jacobians depend on x, so the estimate has
        # variance in every entry, where an affine class's has none
        prob = TanhInnerProblem()
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
        assert np.all(se > 0)
        assert np.all(np.abs(mean - truth) <= 4 * se + 1e-12)

    def test_gradient_estimate_cancels_at_snapshot(self):
        prob = policy_eval()
        x = RngStream(12).normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x)
        for trial in range(5):
            rng = RngStream(trial)
            b = sample_with_replacement(rng, prob.n2, 3)
            i = sample_with_replacement(rng, prob.n1, 4)
            v = estimate_gradient_vt(snap, prob, x, snap.G_s, b, i)
            assert np.array_equal(v, snap.grad_f_s)

    def test_gradient_estimate_full_batch_exact(self):
        prob = linquad()
        rng = RngStream(13)
        x_tilde = rng.normal(size=prob.dim_x)
        x = rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        g = prob.full_inner_value(x)
        v = estimate_gradient_vt(
            snap, prob, x, g, np.arange(prob.n2), np.arange(prob.n1)
        )
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
            b_idx = sample_with_replacement(rng, prob.n2, 1)
            v = estimate_gradient_vt(
                snap, prob, x, g_hat, b_idx, sample_with_replacement(rng, prob.n1, 1)
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
            estimate_gradient_vt(snap, prob, x, snap.G_s, np.array([0]), empty)
        with pytest.raises(ValueError):
            estimate_gradient_vt(snap, prob, x, snap.G_s, empty, np.array([0]))

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
                b_idx = sample_with_replacement(rng, prob.n2, 2)
                draws[k] = estimate_gradient_vt(
                    snap, prob, x, g_hat, b_idx,
                    sample_with_replacement(rng, prob.n1, 2),
                )
            variances.append(float(draws.var(axis=0).sum()))
        assert variances[0] < variances[1] < variances[2]


class TestNonlinearInnerCorrection:
    """The transpose-Jacobian estimate against the dense Jacobian estimate."""

    def test_vjp_form_equals_dense_form(self):
        prob = TanhInnerProblem()
        rng = RngStream(41)
        x_tilde = rng.normal(size=prob.dim_x)
        x = x_tilde + rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        for _ in range(20):
            a_idx = sample_with_replacement(rng, prob.n2, 3)
            b_idx = sample_with_replacement(rng, prob.n2, 3)
            i_idx = sample_with_replacement(rng, prob.n1, 3)
            g_hat = estimate_inner_value(snap, prob, x, a_idx)
            j_hat = estimate_inner_jacobian(snap, prob, x, b_idx)
            # the Jacobian correction is really exercised
            assert np.max(np.abs(j_hat - snap.J_s)) > 1e-3
            u = prob.outer_gradient_batch(i_idx, g_hat).mean(axis=0)
            u_s = prob.outer_gradient_batch(i_idx, snap.G_s).mean(axis=0)
            dense = j_hat.T @ u - snap.J_s.T @ u_s + snap.grad_f_s
            v = estimate_gradient_vt(snap, prob, x, g_hat, b_idx, i_idx)
            assert np.max(np.abs(v - dense)) <= 1e-12

    def test_correction_is_the_mean_jacobian_difference(self):
        # with g_hat = G_s, u = u_s, and with grad f(x_tilde) zeroed in the
        # snapshot, the estimate is minus the Jacobian correction alone
        prob = TanhInnerProblem()
        rng = RngStream(25)
        for _ in range(5):
            x_tilde, x = rng.normal(size=prob.dim_x), rng.normal(size=prob.dim_x)
            snap = replace(compute_snapshot(prob, x_tilde), grad_f_s=np.zeros(prob.dim_x))
            b_idx = sample_with_replacement(rng, prob.n2, 5)
            i_idx = sample_with_replacement(rng, prob.n1, 4)
            u = prob.outer_gradient_batch(i_idx, snap.G_s).sum(axis=0) / len(i_idx)
            got = -estimate_gradient_vt(snap, prob, x, snap.G_s, b_idx, i_idx)
            jac_diff = (prob.inner_jacobian_batch(b_idx, x_tilde)
                        - prob.inner_jacobian_batch(b_idx, x)).mean(axis=0)
            assert np.max(np.abs(got)) > 1e-3
            assert np.max(np.abs(got - u @ jac_diff)) <= 1e-13 * np.max(np.abs(got))

    def test_correction_vanishes_at_snapshot(self):
        prob = TanhInnerProblem()
        rng = RngStream(42)
        x_tilde = rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, x_tilde)
        for _ in range(5):
            g_hat = snap.G_s + rng.normal(size=prob.dim_y)
            b_idx = sample_with_replacement(rng, prob.n2, 4)
            i_idx = sample_with_replacement(rng, prob.n1, 4)
            u = prob.outer_gradient_batch(i_idx, g_hat).mean(axis=0)
            u_s = prob.outer_gradient_batch(i_idx, snap.G_s).mean(axis=0)
            uncorrected = snap.J_s.T @ (u - u_s) + snap.grad_f_s
            v = estimate_gradient_vt(snap, prob, x_tilde, g_hat, b_idx, i_idx)
            assert np.array_equal(v, uncorrected)


class TestNoDenseJacobian:
    """vrsc_pg and scpg use only J^T u: no per-index Jacobian is built."""

    @pytest.mark.parametrize("kind", ["policy_eval", "portfolio"])
    def test_runs_without_inner_jacobian_batch(self, kind, monkeypatch):
        prob = (policy_eval() if kind == "policy_eval" else
                PortfolioProblem(gen_gaussian_rewards(20, 5, 2.0, RngStream(43))))

        def refuse(self, js, x):
            raise AssertionError("a dense inner Jacobian was built")

        monkeypatch.setattr(type(prob), "inner_jacobian_batch", refuse)
        reg = L1Penalty(1e-3)
        m, a, b, b1, epochs = 7, 2, 3, 4, 3
        cfg = VrscpgConfig(eta=0.05, m=m, S_epochs=epochs, A=a, B=b, b1=b1, seed=0)
        res = vrsc_pg(prob, reg, cfg, trace_stride=5)
        n1, n2 = prob.n1, prob.n2
        assert res.counter.snapshot() == (
            epochs * (n2 + 2 * m * a), epochs * (n2 + 2 * m * b),
            epochs * (n1 + 2 * m * b1),
        )
        assert res.counter.total == vrsc_pg_cost(n1, n2, m, a, b, b1, epochs)
        res = scpg_baseline(prob, reg, alpha0=0.05, beta0=1.0, exp_alpha=0.75,
                            exp_beta=0.5, iters=25, seed=1, trace_stride=5)
        assert res.counter.snapshot() == (25, 25, 25)
        assert res.counter.total == scpg_cost(25)


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
        assert len(res.trace) == len(ref.trace)
        for mine, theirs in zip(res.trace, ref.trace):
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vrsc_pg_on_the_identity_inner_map_is_prox_svrg(self, seed):
        # a finite sum is the composition whose one inner map is the identity;
        # there vrsc_pg with A = B = b1 = 1 takes Proximal SVRG's steps, from
        # the same draws, since a population of one takes no word of the stream,
        # and bitwise, since both steps are the same comp_gradient_diff_mean
        # subtracted from the same full gradient
        fsp, reg = gen_lasso(40, 8, RngStream(12)), L1Penalty(1e-2)
        cfg = VrscpgConfig(eta=0.3, m=20, S_epochs=5, A=1, B=1, b1=1, seed=seed)
        vr = vrsc_pg(fsp, reg, cfg)
        svrg = prox_svrg(fsp, reg, eta=0.3, m=20, S_epochs=5, seed=seed)
        assert vr.n_iters == svrg.n_iters == 100
        assert np.array_equal(vr.x_final, svrg.x_final)
        assert [r.objective for r in vr.trace] == [r.objective for r in svrg.trace]
        # vrsc_pg also pays for the identity: 1 + 1 + n per snapshot, 2 + 2 + 2 per step
        assert vr.counter.snapshot() == (205, 205, 400)
        assert svrg.counter.snapshot() == (0, 0, 400)

    def test_composition_rejected(self):
        with pytest.raises(TypeError, match="^prox_svrg needs a FiniteSumProblem, got "
                                            "LinQuadProblem"):
            prox_svrg(linquad(), L1Penalty(1e-3), eta=0.5, m=10, S_epochs=3, seed=0)


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

    @pytest.mark.parametrize("name", sorted(BUDGETED_RUNS))
    def test_zero_step_run_returns_a_copy_of_x0(self, name):
        run = BUDGETED_RUNS[name]
        x0 = np.linspace(-1.0, 1.0, run(budget_wall_s=1e-9).x_final.size)
        res = run(x0=x0, budget_wall_s=1e-9)
        assert res.n_iters == 0 and np.array_equal(res.x_final, x0)
        assert not np.shares_memory(res.x_final, x0)

    @pytest.mark.parametrize("name", sorted(BUDGETED_RUNS))
    def test_misspelt_run_option_rejected(self, name):
        with pytest.raises(TypeError, match="_drive.*budget_query"):
            BUDGETED_RUNS[name](budget_query=10)

    @pytest.mark.parametrize("name", sorted(BUDGETED_RUNS))
    @pytest.mark.parametrize("option, value, error", [
        ("trace_stride", 0, ValueError),
        ("trace_stride", 1.5, TypeError),
        ("budget_queries", 0, ValueError),
        ("budget_wall_s", 0, ValueError),
    ])
    def test_run_option_outside_its_domain_rejected(self, name, option, value, error):
        with pytest.raises(error, match=f"^{option} must"):
            BUDGETED_RUNS[name](**{option: value})

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

    def test_last_row_describes_final_iterate(self):
        prob, reg = linquad(), L1Penalty(1e-3)
        cfg = VrscpgConfig(eta=0.05, m=5, S_epochs=3, A=2, B=2, b1=2)
        res = vrsc_pg(prob, reg, cfg, trace_stride=4, budget_queries=100)
        assert res.n_iters % 4 != 0  # the budget ends between strides
        assert res.trace[-1].objective == objective_H(prob, reg, res.x_final)
        assert res.trace[-1].queries == res.counter.total


class TestRunPoints:
    """A start point or reference optimum of the wrong length fails with the
    problem's own message before any query, on every composition class."""

    @pytest.mark.parametrize("point", ["x0", "x_star"])
    @pytest.mark.parametrize("prob", verification._compositions(), ids=lambda p: p.kind)
    def test_wrong_length_rejected_before_any_query(self, prob, point, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a query was charged")

        monkeypatch.setattr(QueryCounter, "add", refuse)
        reg, cfg = L1Penalty(1e-3), VrscpgConfig(eta=0.05, m=3, S_epochs=2, A=2, B=2, b1=2)
        for run in (lambda **kw: vrsc_pg(prob, reg, cfg, **kw),
                    lambda **kw: prox_full_gradient(prob, reg, 0.05, 3, **kw)):
            for n in (prob.dim_x - 1, prob.dim_x + 1):
                with pytest.raises(ValueError, match=f"^x must have length {prob.dim_x},"):
                    run(**{point: np.zeros(n)})


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

    @pytest.mark.parametrize("stride", [1, 3])
    def test_overflowing_start_ends_run_at_start_row(self, stride):
        # the start row's objective overflows, so no query is paid
        prob = gen_linquad(10, 8, 6, 5, RngStream(2))
        cfg = VrscpgConfig(eta=0.05, m=5, S_epochs=3, A=2, B=2, b1=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedError) as err:
                vrsc_pg(prob, ZeroPenalty(), cfg, x0=np.full(prob.dim_x, 1e200),
                        trace_stride=stride)
        assert err.value.trace == []
        assert err.value.queries == (0, 0, 0) and err.value.total_queries == 0

    @pytest.mark.parametrize("stride, site", [
        (1, "objective is not finite"),  # the recorder's raise
        (10**9, "non-finite iterate"),  # the loop's, between recorded rows
    ])
    def test_diverged_run_carries_its_queries(self, stride, site):
        prob = linquad()
        cfg = VrscpgConfig(eta=1e6, m=50, S_epochs=10, A=2, B=2, b1=2, seed=0)
        with pytest.raises(DivergedError, match=site) as err:
            vrsc_pg(prob, ZeroPenalty(), cfg, trace_stride=stride)
        queries = err.value.queries
        # one snapshot and every step up to the one that diverged
        t = (queries[0] - prob.n2) // (2 * cfg.A)
        assert queries == (prob.n2 + 2 * cfg.A * t, prob.n2 + 2 * cfg.B * t,
                           prob.n1 + 2 * cfg.b1 * t)
        assert err.value.total_queries >= sum(queries) > err.value.trace[-1].queries


def stub_steps(iterates):
    """A `_drive` steps generator that spends one inner-value query per step and
    yields the given iterates in turn."""

    def steps(cp, x, room):
        for t, x in enumerate(iterates):
            cp.inner_value_batch(np.array([0]), x)
            yield 0, t + 1, x

    return steps


class TestFinalRow:
    """The run's last forced record evaluates the pending rows and adds a row
    only for an iterate that the stride skipped."""

    @pytest.mark.parametrize("stride", [1, 3, 4, 20])
    def test_one_row_per_recorded_iterate(self, stride):
        prob = linquad()
        iterates = [RngStream(50 + t).normal(size=prob.dim_x) for t in range(12)]
        res = solvers._drive(prob, ZeroPenalty(), 0.1, stub_steps(iterates),
                             trace_stride=stride)
        steps = [0, *range(stride, 13, stride)]
        if steps[-1] != 12:
            steps.append(12)
        assert [r.inner_iter for r in res.trace] == steps
        assert res.x_final is iterates[-1]
        assert res.trace[-1].objective == objective_H(prob, ZeroPenalty(), res.x_final)

    def test_zero_step_run_has_the_start_row_only(self):
        prob = linquad()
        x0 = RngStream(51).normal(size=prob.dim_x)
        res = solvers._drive(prob, L1Penalty(0.05), 0.1, stub_steps([]), x0=x0)
        assert res.n_iters == 0 and np.array_equal(res.x_final, x0)
        assert [(r.epoch, r.inner_iter, r.queries) for r in res.trace] == [(0, 0, 0)]
        assert res.trace[0].objective == objective_H(prob, L1Penalty(0.05), x0)


class TestFiniteCheck:
    """The loop's one-call check on each iterate, between recorded rows."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("pos", [0, 2, 4], ids=["first", "middle", "last"])
    def test_non_finite_entry_ends_the_run(self, bad, pos):
        prob = linquad()
        rng = RngStream(40)
        finite = [rng.normal(size=prob.dim_x) for _ in range(3)]
        x_bad = rng.normal(size=prob.dim_x)
        x_bad[pos] = bad
        # stride 2 records the start row and the second step's row
        with pytest.raises(DivergedError, match="non-finite iterate") as err:
            solvers._drive(prob, ZeroPenalty(), 0.1, stub_steps([*finite, x_bad]),
                           trace_stride=2)
        assert err.value.queries == (4, 0, 0) and err.value.total_queries == 4
        assert [(r.inner_iter, r.q_inner_val) for r in err.value.trace] == [(0, 0), (2, 2)]
        assert err.value.x_last is x_bad

    def test_pending_diverged_row_raises_before_a_non_finite_iterate(self):
        # stride 1 keeps the overflowing row pending; the non-finite iterate
        # two steps later evaluates it first, so the run ends with its error
        prob = linquad()
        finite = RngStream(41).normal(size=prob.dim_x)
        x_huge, x_nan = np.full(prob.dim_x, 1e200), np.full(prob.dim_x, np.nan)
        with pytest.raises(DivergedError, match="objective is not finite") as err:
            solvers._drive(prob, ZeroPenalty(), 0.1,
                           stub_steps([finite, x_huge, finite.copy(), x_nan]))
        assert err.value.x_last is x_huge
        # the row's own triple, and the four steps the run spent in total
        assert err.value.queries == (2, 0, 0) and err.value.total_queries == 4
        assert [(r.inner_iter, r.q_inner_val) for r in err.value.trace] == [(0, 0), (1, 1)]

    def test_huge_finite_entries_pass(self):
        # 1e300 * 0 is 0: the iterate passes the loop's check; a trace row at it
        # would overflow the objective, so the stride skips it
        prob = linquad()
        x_huge = np.array([1e300, -1e300, 0.0, 1e300, -1e300])
        x_last = np.full(prob.dim_x, 0.5)
        res = solvers._drive(prob, ZeroPenalty(), 0.1, stub_steps([x_huge, x_last]),
                             trace_stride=10**9)
        assert res.n_iters == 2 and res.x_final is x_last
        assert res.counter.snapshot() == (2, 0, 0)


# -- the per-step draws that the block draws replace, as test-only references --


def per_step_vrsc_pg(problem, reg, cfg, **kw):
    def steps(cp, x, room):
        rng = RngStream(cfg.seed)
        for s in range(cfg.S_epochs):
            if not room(full_gradient_cost(problem.n1, problem.n2)):
                return
            snap = compute_snapshot(cp, x)
            for t in range(cfg.m):
                if not room():
                    return
                a_idx = sample_with_replacement(rng, problem.n2, cfg.A)
                b_idx = sample_with_replacement(rng, problem.n2, cfg.B)
                i_idx = sample_with_replacement(rng, problem.n1, cfg.b1)
                v_t = cp.variance_reduced_step(snap, a_idx, b_idx, i_idx, x)
                x = reg.prox(x - cfg.eta * v_t, cfg.eta)
                yield s, t + 1, x

    return solvers._drive(problem, reg, cfg.eta, steps, **kw)


def per_step_scpg(problem, reg, alpha0, beta0, exp_alpha, exp_beta, iters, seed, **kw):
    def steps(cp, x, room):
        rng = RngStream(seed)
        y = np.zeros(problem.dim_y)
        for t in range(iters):
            if not room():
                return
            alpha_t = alpha0 / (1.0 + t) ** exp_alpha
            beta_t = min(beta0 / (1.0 + t) ** exp_beta, 1.0)
            j = sample_with_replacement(rng, problem.n2, 1)
            y = (1.0 - beta_t) * y + beta_t * cp.inner_value_batch(j, x)[0]
            i = sample_with_replacement(rng, problem.n1, 1)
            grad_i = cp.outer_gradient_batch(i, y)[0]
            x = reg.prox(x - alpha_t * cp.inner_vjp_batch(j, x, grad_i)[0], alpha_t)
            yield 0, t + 1, x

    return solvers._drive(problem, reg, alpha0, steps, **kw)


def per_step_prox_svrg(fsp, reg, eta, m, S_epochs, seed, **kw):
    def steps(cp, x, room):
        rng = RngStream(seed)
        for s in range(S_epochs):
            if not room(fsp.n):
                return
            x_tilde = x
            f_prime = cp.mean_outer_gradient(x_tilde)
            for t in range(m):
                if not room():
                    return
                i = sample_with_replacement(rng, fsp.n, 1)
                v_t = f_prime - cp.comp_gradient_diff_mean(i, x_tilde, x)
                x = reg.prox(x - eta * v_t, eta)
                yield s, t + 1, x

    return solvers._drive(fsp, reg, eta, steps, **kw)


def replay(run):
    """What a run must replay bitwise: the iterate, the rows but their clocks,
    the iteration count and the query triple; a diverged run, its last
    finite iterate and rows."""
    try:
        res = run()
    except DivergedError as err:
        return ("diverged", err.x_last.tobytes(),
                [repr(replace(r, wall_ms=0.0)) for r in err.trace])
    return (res.x_final.tobytes(), [repr(replace(r, wall_ms=0.0)) for r in res.trace],
            res.n_iters, res.counter.snapshot())


_LQ = dict(n1=7, n2=11, dim_y=6, dim_x=5)  # n1 != n2
_VR = dict(m=9, S_epochs=40, A=2, B=3, b1=4, seed=5)
# name -> (call, block-draw solver, per-step reference, steps taken); each
# budget stops its run mid-epoch: a step starts while the total is under it
BLOCK_DRAW_RUNS = {
    # snapshots of 29 queries, steps of 18: the 5th step of the 2nd epoch
    "vrsc_pg": (
        lambda run: run(linquad(**_LQ), L1Penalty(1e-3), VrscpgConfig(eta=0.05, **_VR),
                        trace_stride=4, budget_queries=2 * 29 + 13 * 18 + 1),
        vrsc_pg, per_step_vrsc_pg, 14),
    "vrsc_pg_diverging": (
        lambda run: run(linquad(**_LQ), ZeroPenalty(), VrscpgConfig(eta=50.0, **_VR)),
        vrsc_pg, per_step_vrsc_pg, None),
    "scpg": (
        lambda run: run(linquad(**_LQ), L1Penalty(1e-3), 0.05, 1.0, 0.75, 0.5, 10**9, 3,
                        trace_stride=5, budget_queries=3 * 47 + 2),
        scpg_baseline, per_step_scpg, 48),
    # snapshots of 15 queries, steps of 2: the 8th step of the 3rd epoch
    "prox_svrg": (
        lambda run: run(gen_lasso(15, 4, RngStream(25)), L1Penalty(1e-3), 0.5, 12, 5, 4,
                        trace_stride=3, budget_queries=3 * 15 + 2 * 12 * 2 + 7 * 2 + 1),
        prox_svrg, per_step_prox_svrg, 32),
}


class TestBlockDraws:
    """Indices drawn a block of steps at a time replay the per-step draws."""

    # the default block holds every step of these epochs; a block of 20
    # indices holds 2 vrsc_pg steps or 10 scpg steps, so those refill inside
    # an epoch; either way every budget ends mid-block
    @pytest.mark.parametrize("block", [solvers._BLOCK_INDICES, 20])
    @pytest.mark.parametrize("name", sorted(BLOCK_DRAW_RUNS))
    def test_replays_per_step_draws(self, name, block, monkeypatch):
        monkeypatch.setattr(solvers, "_BLOCK_INDICES", block)
        call, blocked, per_step, iters = BLOCK_DRAW_RUNS[name]
        expect = replay(lambda: call(per_step))
        assert replay(lambda: call(blocked)) == expect
        assert expect[0] == "diverged" if iters is None else expect[2] == iters

    def test_one_stream_call_per_epoch(self, monkeypatch):
        calls = []

        def counting(rng, n, k):
            calls.append(k)
            return sample_with_replacement(rng, n, k)

        monkeypatch.setattr(solvers, "sample_with_replacement", counting)
        cfg = VrscpgConfig(eta=0.05, m=30, S_epochs=3, A=2, B=2, b1=2)
        res = vrsc_pg(linquad(**_LQ), ZeroPenalty(), cfg)
        assert res.n_iters == 90 and calls == [30, 30, 30]

    def test_block_bounded_for_huge_epochs(self):
        # one index array for the epoch would hold m (A + B + b1) = 1.5e10 entries
        prob = linquad(**_LQ)
        cfg = VrscpgConfig(eta=0.05, m=10**9, S_epochs=1, A=5, B=5, b1=5)
        res = vrsc_pg(prob, ZeroPenalty(), cfg, budget_queries=29 + 30 * 40)
        assert res.n_iters == 40 and res.counter.total == 29 + 30 * 40


# every problem kind, plus the generic chunked Jacobian loop (n2 = 70 > 64)
ONE_PASS_PROBLEMS = {
    "portfolio": lambda: PortfolioProblem(gen_gaussian_rewards(12, 4, 2.0, RngStream(30))),
    "policy_eval": policy_eval,
    "linquad": lambda: linquad(n1=7, n2=9),
    "lasso": lambda: gen_lasso(20, 5, RngStream(31)),
    "quartic": lambda: QuarticOuterProblem(n2=70),
}


class TestOnePass:
    """Trace rows, the snapshot and the public measures agree bitwise."""

    def point(self, prob):
        x = RngStream(32).normal(size=prob.dim_x)
        x[1] = 0.0  # the L1 subgradient clamps here
        return x

    @pytest.mark.parametrize("kind", sorted(ONE_PASS_PROBLEMS))
    def test_row_equals_public_measures(self, kind):
        prob = ONE_PASS_PROBLEMS[kind]()
        reg, eta = L1Penalty(0.05), 0.3
        x = self.point(prob)
        _, counter = counted(prob)
        rec = TraceRecorder(prob, reg, eta, counter)
        rec.record(0, 0, x, force=True)  # a lone row, evaluated at its call
        row = rec.rows[0]
        assert row.objective == objective_H(prob, reg, x)
        assert row.grad_map_sq == l2_norm_sq(gradient_mapping(prob, reg, x, eta))
        assert row.composite_grad_sq == composite_grad_sq(prob, reg, x)

    @pytest.mark.parametrize("kind", sorted(ONE_PASS_PROBLEMS))
    def test_block_rows_equal_public_measures(self, kind):
        # every row of one stacked pass, each against the one-point measures
        prob = ONE_PASS_PROBLEMS[kind]()
        reg, eta = L1Penalty(0.05), 0.3
        points = [self.point(prob) + t for t in (0.0, 0.5, -2.0)]
        _, counter = counted(prob)
        rec = TraceRecorder(prob, reg, eta, counter)
        for t, x in enumerate(points):
            rec.record(0, t, x, force=t == len(points) - 1)
        assert len(rec.rows) == len(points)
        for row, x in zip(rec.rows, points):
            assert row.objective == objective_H(prob, reg, x)
            assert row.grad_map_sq == l2_norm_sq(gradient_mapping(prob, reg, x, eta))
            assert row.composite_grad_sq == composite_grad_sq(prob, reg, x)

    @pytest.mark.parametrize("kind", sorted(ONE_PASS_PROBLEMS))
    def test_snapshot_gradient_is_full_gradient(self, kind):
        prob = ONE_PASS_PROBLEMS[kind]()
        x = self.point(prob)
        for handle in (prob, counted(prob)[0]):
            snap = compute_snapshot(handle, x)
            assert np.array_equal(snap.grad_f_s, prob.full_gradient(x))
            assert np.array_equal(snap.grad_f_s, handle.full_gradient(x))


class TestGradientMapping:
    def test_zero_penalty_equals_gradient(self):
        prob = linquad()
        x = RngStream(27).normal(size=prob.dim_x)
        gm = gradient_mapping(prob, ZeroPenalty(), x, 0.3)
        assert np.allclose(gm, prob.full_gradient(x), atol=1e-14)

    def test_vanishes_at_regularized_optimum(self):
        prob = linquad()
        reg = L1Penalty(1e-2)
        ref = prox_full_gradient(prob, reg, 0.1, 200_000, tol=1e-14, trace_stride=10**9)
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
