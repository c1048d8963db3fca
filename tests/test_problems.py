
import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from composolve.numerics import RngStream, central_difference_gradient
from composolve.oracle import counted
from composolve.problems import (
    _KINDS,
    CompositionProblem,
    FiniteSumProblem,
    LassoProblem,
    LinQuadProblem,
    PolicyEvalProblem,
    PortfolioProblem,
    gen_gaussian_rewards,
    gen_lasso,
    gen_linquad,
    gen_mdp,
    generate_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from composolve.solvers import compute_snapshot, estimate_gradient_vt, estimate_inner_value
from exact_reference import BOUND, ROUNDOFF, ExactProblem, assert_accurate, note_error
from test_solvers import TanhInnerProblem



def small_portfolio(seed=1, n=12, dim=4):
    return PortfolioProblem(gen_gaussian_rewards(n, dim, 3.0, RngStream(seed)))


def small_policy_eval(seed=2, n_states=6, gamma=0.9):
    p, r = gen_mdp(n_states, 3, RngStream(seed))
    return PolicyEvalProblem(p, r, gamma)


def small_linquad(seed=3, n1=8, n2=8, dim_y=5, dim_x=4):
    return gen_linquad(n1, n2, dim_y, dim_x, RngStream(seed))


def in_place(change):
    """A stored-document edit that change(doc) makes in place, as a function
    that returns the edited document."""
    return lambda doc: (change(doc), doc)[1]


def dense_mean_jacobian(prob, x):
    """The mean inner Jacobian at x as a dense (M, N) matrix, read off the
    class's own operator through its `mean_inner_vjp`, one unit vector per row."""
    jac = prob.full_inner_jacobian(x)
    return np.array([prob.mean_inner_vjp(jac, e) for e in np.eye(prob.dim_y)])


class TestFullBatchOperations:
    def test_full_inner_value_single_term(self):
        q = np.array([[[1.0, 2.0], [0.0, 1.0]]])
        c = np.array([[0.5, -0.5]])
        prob = LinQuadProblem(q, c, np.array([[0.0, 0.0]]))
        x = np.array([1.0, 1.0])
        assert np.allclose(prob.full_inner_value(x), q[0] @ x + c[0])

    def test_portfolio_inner_value_at_zero(self):
        prob = small_portfolio()
        assert np.array_equal(prob.full_inner_value(np.zeros(prob.dim_x)),
                              np.zeros(prob.dim_y))

    def test_portfolio_inner_value_matches_naive_loop(self):
        prob = small_portfolio()
        x = RngStream(10).normal(size=prob.dim_x)
        acc = np.zeros(prob.dim_y)
        for j in range(prob.n2):
            acc += np.concatenate([x, [prob.rewards[j] @ x]])
        assert np.allclose(prob.full_inner_value(x), acc / prob.n2,
                           rtol=1e-12, atol=1e-12)

    def test_linquad_jacobian_is_mean_q(self):
        prob = small_linquad()
        x = RngStream(11).normal(size=prob.dim_x)
        assert np.allclose(prob.full_inner_jacobian(x), prob.q_mats.mean(axis=0))

    @pytest.mark.parametrize("maker", [small_portfolio, small_policy_eval])
    def test_jacobian_matches_finite_differences(self, maker):
        prob = maker()
        x = RngStream(12).normal(size=prob.dim_x)
        jac = dense_mean_jacobian(prob, x)
        for m in range(prob.dim_y):
            fd = central_difference_gradient(
                lambda t: float(prob.full_inner_value(t)[m]), x
            )
            assert np.linalg.norm(fd - jac[m]) <= 1e-5 * max(
                1.0, np.linalg.norm(jac[m])
            )

    def test_portfolio_jacobian_structure(self):
        prob = small_portfolio()
        jac = dense_mean_jacobian(prob, np.zeros(prob.dim_x))
        assert np.array_equal(jac[: prob.dim_x], np.eye(prob.dim_x))
        assert np.allclose(jac[prob.dim_x], prob.rewards.mean(axis=0))

    def test_portfolio_jacobian_constant_in_x(self):
        prob = small_portfolio()
        rng = RngStream(13)
        j0 = prob.inner_jacobian_batch(np.arange(prob.n2), np.zeros(prob.dim_x))
        j1 = prob.inner_jacobian_batch(np.arange(prob.n2), rng.normal(size=prob.dim_x))
        assert np.array_equal(j0, j1)

    @pytest.mark.parametrize("maker", [small_portfolio, small_policy_eval, small_linquad])
    def test_constant_mean_jacobian_shared_read_only(self, maker):
        # every full pass returns the one operator array the problem owns, so
        # no caller may write into it
        prob = maker()
        jac = prob.full_inner_jacobian(np.zeros(prob.dim_x))
        assert prob.full_inner_jacobian(np.ones(prob.dim_x)) is jac
        with pytest.raises(ValueError):
            jac.flat[0] = 2.0

    def test_jacobian_override_matches_generic_loop(self):
        # fast closed-form paths must agree with the per-index definition
        for prob in (small_portfolio(), small_policy_eval(), small_linquad()):
            x = RngStream(14).normal(size=prob.dim_x)
            generic = prob.inner_jacobian_batch(np.arange(prob.n2), x).mean(axis=0)
            assert np.allclose(dense_mean_jacobian(prob, x), generic,
                               rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("maker", [small_portfolio, small_policy_eval, small_linquad])
    def test_full_gradient_matches_finite_differences(self, maker):
        prob = maker()
        rng = RngStream(15)
        for _ in range(5):
            x = rng.normal(size=prob.dim_x)
            g = prob.full_gradient(x)
            fd = central_difference_gradient(prob.objective_f, x)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_linquad_gradient_closed_form(self):
        prob = small_linquad()
        x = RngStream(16).normal(size=prob.dim_x)
        expect = prob.hessian() @ (x - prob.unregularized_optimum())
        assert np.allclose(prob.full_gradient(x), expect, atol=1e-10)

    def test_gradient_zero_at_unregularized_optimum(self):
        prob = small_linquad()
        g = prob.full_gradient(prob.unregularized_optimum())
        assert np.linalg.norm(g) <= 1e-8

    def test_linquad_minimum_from_closed_form(self):
        prob = small_linquad()
        x_star = prob.unregularized_optimum()
        rng = RngStream(17)
        for _ in range(5):
            assert prob.objective_f(x_star) <= prob.objective_f(
                x_star + 0.1 * rng.normal(size=prob.dim_x)
            ) + 1e-10

    def test_dimension_mismatch_rejected(self):
        prob = small_portfolio()
        with pytest.raises(ValueError):
            prob.full_gradient(np.zeros(prob.dim_x + 1))


def owned_data_case(kind):
    """(constructor, writable input arrays) of a small instance of kind."""
    if kind == "portfolio":
        return PortfolioProblem, [gen_gaussian_rewards(12, 4, 3.0, RngStream(1))]
    if kind == "policy_eval":
        return (lambda p, r: PolicyEvalProblem(p, r, 0.9)), list(gen_mdp(6, 3, RngStream(2)))
    if kind == "linquad":
        prob = small_linquad()
        return LinQuadProblem, [np.array(a) for a in (prob.q_mats, prob.c_vecs, prob.b_vecs)]
    lasso = gen_lasso(10, 4, RngStream(5))
    return LassoProblem, [np.array(lasso.design), np.array(lasso.targets)]


class TestOwnedData:
    """A problem keeps read-only copies of its inputs: a caller's later write
    reaches none of its outputs, and its own arrays cannot be written."""

    @pytest.mark.parametrize("kind", ["portfolio", "policy_eval", "linquad", "lasso"])
    def test_inputs_copied_and_arrays_read_only(self, kind):
        make, inputs = owned_data_case(kind)
        prob = make(*inputs)
        x = RngStream(30).normal(size=prob.dim_x)

        def outputs():
            # closed forms and the generic defaults, which read the per-index
            # evaluators
            return (prob.objective_f(x), prob.full_gradient(x),
                    CompositionProblem.objective_f(prob, x),
                    CompositionProblem.full_gradient(prob, x))

        before = outputs()
        for a in inputs:
            a *= 3.0
        for want, got in zip(before, outputs()):
            assert np.array_equal(want, got)
        owned = [a for a in vars(prob).values() if isinstance(a, np.ndarray)]
        assert len(owned) >= len(inputs)
        for a in owned:
            with pytest.raises(ValueError):
                a.flat[0] = 1.0

    def test_policy_eval_holds_no_dense_mean_jacobian(self):
        # P, S times its transpose and R's transpose, S x S each, and the S
        # expected rewards: the mean Jacobian (I; gamma P) is known by P alone
        s = 40
        prob = PolicyEvalProblem(*gen_mdp(s, 3, RngStream(7)), 0.95)
        held = sum(a.nbytes for a in vars(prob).values() if isinstance(a, np.ndarray))
        assert held == 8 * (3 * s * s + s)


# every closed-form transpose-Jacobian product: a nonlinear inner map's, and
# the identity's, u once per index
VJP_PROBLEMS = {
    "tanh_inner": TanhInnerProblem,
    "lasso": lambda: gen_lasso(10, 4, RngStream(5)),
}


class TestInnerVjp:
    @pytest.mark.parametrize("kind", sorted(VJP_PROBLEMS))
    def test_matches_dense_jacobian_product(self, kind):
        prob = VJP_PROBLEMS[kind]()
        rng = RngStream(16)
        js = np.array([3, 0, 3, 5, 1, 3]) % prob.n2  # repeated indices included
        for _ in range(5):
            x = rng.normal(size=prob.dim_x)
            u = rng.normal(size=prob.dim_y)
            got = prob.inner_vjp_batch(js, x, u)
            want = u @ prob.inner_jacobian_batch(js, x)
            assert got.shape == (len(js), prob.dim_x)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# the shipped classes, whose inner maps are affine; linquad with n1 != n2
AFFINE_PROBLEMS = {
    "portfolio": small_portfolio,
    "policy_eval": small_policy_eval,
    "linquad": partial(small_linquad, n1=7, n2=9),
    "lasso": lambda: gen_lasso(10, 4, RngStream(5)),
}


class TestJacobianCorrection:
    """The Jacobian correction mean_j (J_j(x_tilde) - J_j(x))^T u of the
    estimator is exactly zero on the shipped classes, whose inner maps are
    affine: off the snapshot, the generic gradient estimate is its other
    terms, bitwise."""

    @pytest.mark.parametrize("kind", sorted(AFFINE_PROBLEMS))
    def test_estimate_is_the_snapshot_terms_bitwise(self, kind):
        prob = AFFINE_PROBLEMS[kind]()
        rng = RngStream(24)
        for _ in range(5):
            x_tilde, x = rng.normal(size=prob.dim_x), rng.normal(size=prob.dim_x)
            snap = compute_snapshot(prob, x_tilde)
            a, b = rng.integers(prob.n2, size=4), rng.integers(prob.n2, size=6)
            i = rng.integers(prob.n1, size=5)
            g_hat = estimate_inner_value(snap, prob, x, a)
            u, u_s = (prob.outer_gradient_batch(i, y).sum(axis=0) / len(i)
                      for y in (g_hat, snap.G_s))
            want = prob.mean_inner_vjp(snap.J_s, u - u_s) + snap.grad_f_s
            got = estimate_gradient_vt(snap, prob, x, g_hat, b, i)
            assert got.shape == (prob.dim_x,) and got.tobytes() == want.tobytes()


class TestPortfolioEmbedding:
    def test_single_asset_single_period(self):
        prob = PortfolioProblem(np.array([[2.0]]))
        x = np.array([3.0])
        zero = np.array([0])
        assert np.allclose(prob.inner_value_batch(zero, x)[0], [3.0, 6.0])
        outer = prob.outer_value_batch(zero, prob.full_inner_value(x))[0]
        assert outer == pytest.approx(-6.0)
        assert prob.objective_f(x) == pytest.approx(-6.0)

    def test_two_period_matches_direct(self):
        prob = PortfolioProblem(np.array([[1.0, 2.0], [2.0, 0.5]]))
        x = np.array([0.3, -0.7])
        assert prob.objective_f(x) == pytest.approx(prob.direct_objective(x), abs=1e-12)

    def test_embedding_fidelity_random_points(self):
        prob = small_portfolio()
        rng = RngStream(20)
        for _ in range(50):
            x = rng.normal(size=prob.dim_x)
            direct = prob.direct_objective(x)
            assert prob.objective_f(x) == pytest.approx(
                direct, rel=1e-10, abs=1e-10
            )

    def test_full_scale_instantiates(self):
        rewards = gen_gaussian_rewards(2000, 200, 2.0, RngStream(0))
        prob = PortfolioProblem(rewards)
        assert (prob.n1, prob.n2, prob.dim_y) == (2000, 2000, 201)

    def test_nonpositive_reward_rejected(self):
        with pytest.raises(ValueError):
            PortfolioProblem(np.array([[1.0, -0.1]]))


def desk_portfolio():
    """The instance of configs/portfolio_desk.json."""
    return generate_problem({"kind": "portfolio", "n": 200, "N": 50, "kappa_cov": 2,
                             "seed": 1})


class TestPortfolioClosedForms:
    """The `vrsc_pg` step in closed form against the generic default."""

    @pytest.mark.parametrize("maker", [small_portfolio, desk_portfolio],
                             ids=["small", "desk"])
    @pytest.mark.parametrize("idx", [[5], [3, 0, 3, 5, 3]])  # repeats included
    def test_match_the_generic_defaults(self, maker, idx):
        # the minibatch means sum in another order than the default: within 1e-13
        prob, idx = maker(), np.array(idx)
        rng = RngStream(26)
        for _ in range(5):
            x_tilde, x = rng.normal(size=prob.dim_x), rng.normal(size=prob.dim_x)
            snap = compute_snapshot(prob, x_tilde)
            args = (snap, idx, idx[::-1][:3], idx + 1, x)
            got = prob.variance_reduced_step(*args)
            want = CompositionProblem.variance_reduced_step(prob, *args)
            assert got.shape == (prob.dim_x,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("maker", [small_portfolio, desk_portfolio],
                             ids=["small", "desk"])
    def test_inner_value_estimate_exact_at_the_snapshot(self, maker):
        # at x = x_tilde the inner-value difference is exactly zero, so u = u_s
        # and the step is the snapshot gradient
        prob = maker()
        rng = RngStream(27)
        for k in (1, 5):
            x = rng.normal(size=prob.dim_x)
            snap = compute_snapshot(prob, x)
            js, is_ = rng.integers(prob.n2, size=k), rng.integers(prob.n1, size=k)
            assert np.array_equal(prob.variance_reduced_step(snap, js, js, is_, x.copy()),
                                  snap.grad_f_s)
            assert np.array_equal(estimate_inner_value(snap, prob, x.copy(), js), snap.G_s)


def column_gather_inner_value(prob, js, x):
    """Policy evaluation's G_j batch gathered as columns of P and R: the
    reference for the transposed layout the class reads."""
    s = prob.n_states
    out = np.empty((len(js), 2 * s))
    out[:, :s] = x
    out[:, s:] = (
        s * prob.transition[:, js] * (prob.reward[:, js] + prob.gamma * x[js])
    ).T
    return out


class TestPolicyEvalLayout:
    @pytest.mark.parametrize("n_states", [8, 400])
    @pytest.mark.parametrize("js", [[5], [3, 0, 3, 5, 3]])  # repeats included
    def test_row_gathers_equal_column_gathers(self, n_states, js):
        prob = PolicyEvalProblem(*gen_mdp(n_states, 3, RngStream(2)), 0.9)
        js = np.array(js)
        rng = RngStream(20)
        for _ in range(5):
            x = rng.normal(size=prob.dim_x)
            assert np.array_equal(prob.inner_value_batch(js, x),
                                  column_gather_inner_value(prob, js, x))

    @pytest.mark.parametrize("js", [[5], [3, 0, 3, 5, 3]])
    def test_inner_value_diff_mean_near_generic(self, js):
        # the step's inner-value difference reads no R and sums in another
        # order: within 1e-13
        prob = PolicyEvalProblem(*gen_mdp(400, 3, RngStream(3)), 0.95)
        js = np.array(js)
        rng = RngStream(23)
        for _ in range(5):
            x_tilde, x = rng.normal(size=prob.dim_x), rng.normal(size=prob.dim_x)
            args = (compute_snapshot(prob, x_tilde), js, js, js[::-1], x)
            want = CompositionProblem.variance_reduced_step(prob, *args)
            got = prob.variance_reduced_step(*args)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_serialized_fields_are_the_inputs(self):
        p, r = gen_mdp(7, 3, RngStream(4))
        doc = problem_to_dict(PolicyEvalProblem(p, r, 0.9))
        assert doc["transition"] == p.ravel().tolist()
        assert doc["reward"] == r.ravel().tolist()
        assert doc["dims"] == {"S": 7}

    def test_reward_read_only(self):
        prob = small_policy_eval()
        assert np.array_equal(prob.reward, gen_mdp(6, 3, RngStream(2))[1])
        with pytest.raises(ValueError):
            prob.reward[0, 1] = 2.0


def bench_linquad():
    """The linquad instance of the benchmark, with n1 != n2."""
    return gen_linquad(64, 96, 12, 8, RngStream(1))


class TestVarianceReducedStep:
    """The closed-form steps of the portfolio, policy evaluation and linquad
    form the snapshot correction J_s^T (u - u_s) as one difference."""

    @pytest.mark.parametrize("empty", ["A", "B", "I"])
    @pytest.mark.parametrize("maker", [small_portfolio, small_policy_eval, small_linquad,
                                       lambda: gen_lasso(10, 4, RngStream(5))],
                             ids=["portfolio", "policy_eval", "linquad", "lasso"])
    def test_empty_index_set_rejected(self, maker, empty):
        # the generic default's error, from the closed forms and through the
        # counted wrapper too, which charges no query for it
        prob = maker()
        rng = RngStream(29)
        x = rng.normal(size=prob.dim_x)
        snap = compute_snapshot(prob, rng.normal(size=prob.dim_x))
        sets = {"A": rng.integers(prob.n2, size=3), "B": rng.integers(prob.n2, size=3),
                "I": rng.integers(prob.n1, size=3)}
        sets[empty] = np.array([], dtype=np.int64)
        cp, counter = counted(prob)
        for handle in (prob, cp):
            with pytest.raises(ValueError, match="index set must be nonempty"):
                handle.variance_reduced_step(snap, sets["A"], sets["B"], sets["I"], x)
        assert counter.snapshot() == (0, 0, 0)  # a rejected step is not charged


class GenericDefaults:
    """prob with each method the base class's generic default, on its evaluators."""

    def __init__(self, prob):
        self.prob = prob

    def __getattr__(self, name):
        return partial(getattr(CompositionProblem, name), self.prob)


class TestExactReference:
    """Each closed form against `exact_reference`: within its bound, and no less
    accurate than the generic default on the same arguments."""

    @pytest.mark.parametrize("kind", sorted(AFFINE_PROBLEMS))
    def test_full_batch_closed_forms(self, kind):
        # at three points: the full-batch means, the mean Jacobian at a dense v
        # (and at every unit vector, at the first point), and f and grad f at one
        # point and at a (2, 2) stack; each method against its own generic default
        prob = AFFINE_PROBLEMS[kind]()
        ref, rng, worst = ExactProblem(prob), RngStream(32), {}
        for draw in range(3):
            x, y, v = (rng.normal(size=d) for d in (prob.dim_x, prob.dim_y, prob.dim_y))
            vs = np.vstack([v, np.eye(prob.dim_y)]) if draw == 0 else [v]
            stack = rng.normal(size=(2, 2, prob.dim_x))
            one = ref.objective_and_gradient(x)
            rows = [ref.objective_and_gradient(row) for row in stack.reshape(4, -1)]
            for name, call, want in [
                ("full_inner_value", lambda p: p.full_inner_value(x), ref.full_inner_value(x)),
                ("mean_outer_gradient", lambda p: p.mean_outer_gradient(y),
                 ref.mean_outer_gradient(y)),
                ("mean_jacobian_product",
                 lambda p: [p.mean_inner_vjp(p.full_inner_jacobian(x), e) for e in vs],
                 [ref.mean_jacobian_product(e) for e in vs]),
                ("objective_f", lambda p: p.objective_f(x), one[0]),
                ("objective_and_gradient", lambda p: p.objective_and_gradient(x), one),
                ("stacked objective_and_gradient", lambda p: p.objective_and_gradient(stack),
                 (np.reshape([f for f, _ in rows], (2, 2)),
                  np.reshape([g for _, g in rows], stack.shape))),
            ]:
                for side, handle in (("closed", prob), ("generic", GenericDefaults(prob))):
                    note_error(worst.setdefault(name, {}), side, call(handle), want)
        for name, errors in worst.items():
            assert_accurate(errors, name)

    # BOUND on the desk portfolio, policy evaluation at S = 24, the benchmark's
    # linquad and a 10 x 4 lasso (each below 1.3e-15 here). The 12 x 4
    # portfolio has its own: at |A| = |I| = 1 near the snapshot its closed form
    # subtracts r_i.d and delta = r_a.d, rounded apart and agreeing to 3%, and
    # reached 1.5e-14
    @pytest.mark.parametrize("maker, bound", [
        (small_portfolio, 5e-14), (desk_portfolio, BOUND),
        (partial(small_policy_eval, n_states=24), BOUND), (bench_linquad, BOUND),
        (AFFINE_PROBLEMS["lasso"], BOUND),
    ], ids=["portfolio", "portfolio_desk", "policy_eval", "linquad", "lasso"])
    @pytest.mark.parametrize("eps", [None, 1e-2, 1e-5, 1e-8])
    def test_variance_reduced_step(self, maker, bound, eps):
        # at an independent x (eps None), and at x = x_tilde + eps * noise with
        # grad f(x_tilde) zeroed, where the step is J_s^T (u - u_s), of the order
        # of eps while u and u_s are not: the generic default loses digits
        # subtracting them (7.2e-8 on the desk portfolio at eps = 1e-8), and the
        # closed forms, built from d = x_tilde - x, do not. There they must be
        # strictly no less accurate; at an independent x, where both round about
        # as much, within ROUNDOFF of the default
        prob = maker()
        ref, rng, worst = ExactProblem(prob), RngStream(28), {}
        for k in (1, 5, 5, 5):  # the sizes of A and I; B has 3 indices
            x_tilde = rng.normal(size=prob.dim_x)
            snap = compute_snapshot(prob, x_tilde)
            if eps is None:
                x = rng.normal(size=prob.dim_x)
            else:
                snap = replace(snap, grad_f_s=np.zeros(prob.dim_x))
                x = x_tilde + eps * rng.normal(size=prob.dim_x)
            args = (snap, rng.integers(prob.n2, size=k), rng.integers(prob.n2, size=3),
                    rng.integers(prob.n1, size=k), x)
            want = ref.variance_reduced_step(*args)
            for side, handle in (("closed", prob), ("generic", GenericDefaults(prob))):
                note_error(worst, side, handle.variance_reduced_step(*args), want)
        assert_accurate(worst, bound=bound, slack=ROUNDOFF if eps is None else 0.0)

    # the classes with a closed-form scpg step: the desk's portfolio, and policy
    # evaluation at S = 3, 8 and the benchmark's 400
    TRACKING_PROBLEMS = {
        "portfolio_desk": desk_portfolio,
        "policy_eval_s3": partial(small_policy_eval, seed=29, n_states=3),
        "policy_eval_s8": partial(small_policy_eval, n_states=8),
        "policy_eval_s400": partial(small_policy_eval, seed=28, n_states=400),
    }
    J_EQ_I_BOUND = 2e-14

    @pytest.mark.parametrize("kind", sorted(TRACKING_PROBLEMS))
    def test_tracking_step(self, kind):
        # 20 steps from y = 0 at fresh x, j = i on every fourth (policy
        # evaluation's v then puts both terms on one entry). Each side's v is
        # judged at the y_new it returned, whose rounding grad F_i can amplify.
        # At j != i policy evaluation's closed form rounds as the dense default
        # does, bitwise. At j = i the default's product rounds g - gamma S P[i, i] g
        # otherwise at some sizes (S = 3 and 50, not 8 and 400), where the closed
        # form was up to twice less accurate (2.7e-15 against 1.4e-15 at S = 3):
        # the bound alone, J_EQ_I_BOUND, holds it there
        prob = self.TRACKING_PROBLEMS[kind]()
        ref, rng, worst = ExactProblem(prob), RngStream(30), {"j != i": {}, "j = i": {}}
        js, is_ = rng.integers(prob.n2, size=20), rng.integers(prob.n1, size=20)
        is_[::4] = js[::4]
        y = np.zeros(prob.dim_y)
        for t in range(20):
            args = (js[t:t + 1], is_[t:t + 1], rng.normal(size=prob.dim_x), y, (1.0 + t) ** -0.5)
            want = ref.tracking_step(*args)[0]
            got = {side: handle.tracking_step(*args)
                   for side, handle in (("closed", prob), ("generic", GenericDefaults(prob)))}
            for side, (y_new, v) in got.items():
                note_error(worst["j = i" if js[t] == is_[t] else "j != i"], side, (y_new, v),
                           (want, ref.tracking_gradient(*args[:3], y_new)))
            if prob.kind == "policy_eval" and js[t] != is_[t]:
                assert all(map(np.array_equal, got["closed"], got["generic"])), t
            y = got["closed"][0]
        assert_accurate(worst["j != i"], "j != i")
        if prob.kind == "policy_eval":
            assert worst["j = i"]["closed"] <= self.J_EQ_I_BOUND, worst
        else:
            assert_accurate(worst["j = i"], "j = i")


class TestLinQuadRow:
    @pytest.mark.parametrize("maker", [small_linquad, partial(small_linquad, n1=7, n2=9),
                                       bench_linquad], ids=["square", "small", "bench"])
    def test_row_and_objective_equal_the_generic_ones_bitwise(self, maker):
        # the outer values with b_i broadcast and Qbar^T (G - b_bar) are the
        # generic row's own element operations
        prob = maker()
        rng = RngStream(31)
        for _ in range(5):
            x = rng.normal(size=prob.dim_x)
            f, g = prob.objective_and_gradient(x)
            f_gen, g_gen = CompositionProblem.objective_and_gradient(prob, x)
            assert f == f_gen and np.array_equal(g, g_gen)
            assert prob.objective_f(x) == CompositionProblem.objective_f(prob, x) == f


class TestPolicyEvalRow:
    @pytest.mark.parametrize("n_states", [3, 8, 400])
    def test_row_and_objective_equal_the_generic_ones_bitwise(self, n_states):
        # the residual x - T(x), the mean of its squares and r + gamma (-r)^T P
        # with r = 2 (x - T(x)) / S are the generic row's own element
        # operations; each row of a (2, 3) stack is the row of its point
        prob = small_policy_eval(n_states=n_states)
        rng = RngStream(33)
        stack = rng.normal(size=(2, 3, prob.dim_x))
        f_stack, g_stack = prob.objective_and_gradient(stack)
        assert f_stack.shape == (2, 3) and g_stack.shape == stack.shape
        for x, f_row, g_row in zip(stack.reshape(6, -1), f_stack.ravel(),
                                   g_stack.reshape(6, -1)):
            f, g = prob.objective_and_gradient(x)
            f_gen, g_gen = CompositionProblem.objective_and_gradient(prob, x)
            assert f == f_gen and np.array_equal(g, g_gen)
            assert prob.objective_f(x) == f
            assert f_row == f and np.array_equal(g_row, g)


# every class, at the scale of the built-in checks and at a benchmark's
OBJECTIVE_PROBLEMS = {
    "portfolio": small_portfolio, "portfolio_desk": desk_portfolio,
    "policy_eval": small_policy_eval, "policy_eval_s400": partial(small_policy_eval,
                                                                  n_states=400),
    "linquad": small_linquad, "linquad_bench": bench_linquad,
    "lasso": lambda: gen_lasso(12, 6, RngStream(3)),
    "lasso_edge": lambda: gen_lasso(40, 8, RngStream(12)),
}


class TestObjectiveF:
    @pytest.mark.parametrize("name", sorted(OBJECTIVE_PROBLEMS))
    def test_equals_the_row_objective_bitwise(self, name):
        # a trace row's gap subtracts objective_f's H(x_star) from the row's
        # objective_and_gradient value, so the two must be one function of x,
        # at a point and as a row of a stack, at iterates with exact zeros too
        prob = OBJECTIVE_PROBLEMS[name]()
        points = RngStream(34).normal(size=(20, prob.dim_x))
        points[::2, ::3] = 0.0  # as an L1 prox leaves them
        points[1::4, 1::3] = -0.0
        points[3] = 0.0
        f_stack, _ = prob.objective_and_gradient(points)
        for x, f_row in zip(points, f_stack):
            assert prob.objective_f(x) == prob.objective_and_gradient(x)[0] == f_row


class TestPolicyEvalEmbedding:
    def test_two_state_hand_instance(self):
        p = np.array([[0.7, 0.3], [0.4, 0.6]])
        r = np.array([[1.0, 0.0], [0.5, 2.0]])
        prob = PolicyEvalProblem(p, r, 0.9)
        v = np.array([1.5, -0.5])
        bellman = (p * r).sum(axis=1) + 0.9 * p @ v
        direct = float(((v - bellman) ** 2).mean())
        assert prob.objective_f(v) == pytest.approx(direct, abs=1e-12)

    def test_embedding_fidelity_random_points(self):
        prob = small_policy_eval()
        rng = RngStream(21)
        for _ in range(50):
            v = rng.normal(size=prob.dim_x)
            assert prob.objective_f(v) == pytest.approx(
                prob.direct_objective(v), rel=1e-10, abs=1e-12
            )

    def test_inner_jacobian_batch_matches_per_index_loop(self):
        prob = small_policy_eval()
        s = prob.n_states
        js = np.array([3, 0, 3, 5, 1, 3])  # repeated indices included
        want = np.zeros((len(js), 2 * s, s))
        for k, j in enumerate(js):
            want[k, :s, :] = np.eye(s)
            want[k, s:, j] = prob.gamma * s * prob.transition[:, j]
        got = prob.inner_jacobian_batch(js, np.zeros(s))
        assert np.array_equal(got, want)

    def test_full_scale_instantiates(self):
        p, r = gen_mdp(400, 10, RngStream(0))
        prob = PolicyEvalProblem(p, r, 0.95)
        assert (prob.n1, prob.n2, prob.dim_x, prob.dim_y) == (400, 400, 400, 800)

    def test_bad_row_sums_rejected(self):
        p = np.array([[0.7, 0.2], [0.4, 0.6]])
        with pytest.raises(ValueError):
            PolicyEvalProblem(p, np.zeros((2, 2)), 0.9)

    def test_bad_gamma_rejected(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            PolicyEvalProblem(p, np.zeros((2, 2)), 1.0)


class TestGenerators:
    def test_rewards_isotropic_case(self):
        rewards = gen_gaussian_rewards(50, 6, 1.0, RngStream(1))
        assert rewards.shape == (50, 6) and np.all(rewards > 0)

    def test_covariance_condition_number(self):
        for kappa in (2.0, 10.0):
            rng = RngStream(2)
            dim = 20
            eigenvalues = np.geomspace(1.0, kappa, dim)
            raw = rng.normal(size=(dim, dim))
            q, r = np.linalg.qr(raw)
            q = q * np.sign(np.diag(r))
            cov = (q * eigenvalues) @ q.T
            w = np.linalg.eigvalsh(cov)
            assert w[-1] / w[0] == pytest.approx(kappa, abs=1e-8)

    def test_full_scale_settings_instantiate(self):
        for kappa in (2.0, 10.0):
            rewards = gen_gaussian_rewards(2000, 200, kappa, RngStream(3))
            assert rewards.shape == (2000, 200)

    def test_bad_kappa_rejected(self):
        with pytest.raises(ValueError):
            gen_gaussian_rewards(10, 3, 0.5, RngStream(0))

    def test_mdp_full_scale_settings(self):
        p, _ = gen_mdp(400, 10, RngStream(5))
        assert p.shape == (400, 400) and p.min() > 0

    def test_mdp_shift_floor(self):
        # shifted raw entries are >= 1e-5, so normalized rows keep a floor
        p, _ = gen_mdp(30, 1, RngStream(6))
        assert p.min() >= 1e-5 / (30 * (1.0 + 1e-5))


class TestLasso:
    def test_value_at_zero(self):
        prob = gen_lasso(20, 5, RngStream(7))
        vals = prob.comp_value_batch(np.arange(prob.n), np.zeros(5))
        assert np.allclose(vals, 0.5 * prob.targets**2)

    def test_gradient_matches_finite_differences(self):
        prob = gen_lasso(15, 4, RngStream(8))
        x = RngStream(9).normal(size=4)
        for i in range(5):
            idx = np.array([i])
            fd = central_difference_gradient(
                lambda t: float(prob.comp_value_batch(idx, t)[0]), x
            )
            assert np.allclose(fd, prob.comp_gradient_batch(idx, x)[0], atol=1e-6)
        fd = central_difference_gradient(prob.objective_f, x)
        assert np.allclose(fd, prob.full_gradient(x), atol=1e-6)

    def test_full_gradient_zero_at_least_squares(self):
        prob = gen_lasso(30, 5, RngStream(10))
        sol = prob.least_squares_solution()
        assert np.linalg.norm(prob.full_gradient(sol)) <= 1e-8

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LassoProblem(np.ones((3, 2)), np.ones(4))

    def test_composition_with_the_identity_inner_map(self):
        prob = gen_lasso(12, 4, RngStream(13))
        assert isinstance(prob, FiniteSumProblem) and isinstance(prob, CompositionProblem)
        assert (prob.n, prob.n1, prob.n2, prob.dim_x, prob.dim_y) == (12, 12, 1, 4, 4)
        x = RngStream(14).normal(size=4)
        js, is_ = np.zeros(3, dtype=np.int64), np.array([4, 0, 4])
        assert np.array_equal(prob.inner_value_batch(js, x), [x] * 3)
        assert np.array_equal(prob.inner_jacobian_batch(js, x), [np.eye(4)] * 3)
        assert np.array_equal(prob.inner_vjp_batch(js, x, -x), [-x] * 3)
        assert np.array_equal(prob.outer_value_batch(is_, x), prob.comp_value_batch(is_, x))
        assert np.array_equal(prob.outer_gradient_batch(is_, x),
                              prob.comp_gradient_batch(is_, x))
        g_bar, jac, grad = prob.full_pass(x)
        assert np.array_equal(g_bar, x) and jac is None
        assert np.array_equal(grad, prob.design.T @ (prob.design @ x - prob.targets) / 12)


class TestSerialization:
    @pytest.mark.parametrize(
        "maker",
        [small_portfolio, small_policy_eval, small_linquad,
         lambda: gen_lasso(10, 3, RngStream(11))],
    )
    def test_round_trip(self, maker, tmp_path):
        prob = maker()
        path = tmp_path / "prob.json"
        save_problem(prob, path)
        back = load_problem(path)
        x = RngStream(12).normal(size=prob.dim_x)
        assert back.objective_f(x) == prob.objective_f(x)

    def test_full_scale_lossless(self, tmp_path):
        rewards = gen_gaussian_rewards(2000, 200, 2.0, RngStream(13))
        prob = PortfolioProblem(rewards)
        path = tmp_path / "big.json"
        save_problem(prob, path)
        assert np.array_equal(load_problem(path).rewards, rewards)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            problem_from_dict({"kind": "mystery", "dims": {}})

    @pytest.mark.parametrize("edit, error, match", [
        (in_place(lambda d: d.pop("kind")), ValueError, "^unknown problem kind: None"),
        (in_place(lambda d: d.pop("b_vecs")), ValueError,
         "^stored linquad problem has no field 'b_vecs'"),
        (in_place(lambda d: d["dims"].pop("n1")), TypeError,
         "^dims.n1 must be an integer, got None"),
        (in_place(lambda d: d["b_vecs"].pop()), ValueError,
         r"^b_vecs must hold n1 \* M = 12 numbers, got 11"),
        (in_place(lambda d: d["dims"].update(M=1.5)), TypeError,
         "^dims.M must be an integer, got 1.5"),
        (in_place(lambda d: d.pop("dims")), TypeError, "^dims must be an object, got None"),
        (in_place(lambda d: d.update(b_vecs=["a"])), ValueError,
         "^b_vecs must be a flat list of numbers: could not convert"),
        (in_place(lambda d: d.update(b_vecs=[[1.0, [2.0]]])), ValueError,
         "^b_vecs must be a flat list of numbers: .*inhomogeneous"),
        (in_place(lambda d: d.update(b_vecs=np.reshape(d["b_vecs"], (4, 3)).tolist())),
         ValueError, r"^b_vecs must be a flat list of numbers, got shape \(4, 3\)"),
        (lambda d: [d], TypeError, "^a stored problem must be a JSON object, got list"),
    ], ids=["kind_missing", "field_missing", "dim_missing", "data_short", "dim_not_int",
            "dims_missing", "data_not_numbers", "data_ragged", "data_nested",
            "not_an_object"])
    def test_malformed_document_names_what_is_wrong(self, edit, error, match, tmp_path):
        doc = problem_to_dict(gen_linquad(4, 3, 3, 2, RngStream(9)))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(edit(doc)))
        with pytest.raises(error, match=match):
            load_problem(path)

    def test_dict_fields(self):
        doc = problem_to_dict(small_policy_eval())
        assert doc["kind"] == "policy_eval" and "gamma" in doc


class TestKindTable:
    DIMS = {
        "portfolio": {"n": 6, "N": 3},
        "policy_eval": {"S": 4},
        "linquad": {"n1": 5, "n2": 4, "M": 3, "N": 2},
        "lasso": {"n": 7, "N": 3},
    }

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_every_kind_round_trips(self, kind, tmp_path):
        prob = generate_problem({"kind": kind, "seed": 3, **self.DIMS[kind]})
        assert type(prob) is _KINDS[kind][0] and prob.kind == kind
        path = tmp_path / "prob.json"
        save_problem(prob, path)
        back = load_problem(path)
        assert type(back) is type(prob)
        assert problem_to_dict(back) == problem_to_dict(prob)
        save_problem(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def valid_fields(kind):
    """Fields every check of `kind`'s constructor accepts, in constructor order."""
    rng = RngStream(30)
    return {
        "portfolio": {"rewards": 1.0 + rng.uniform(size=(4, 3))},
        "policy_eval": {"transition": np.full((3, 3), 1 / 3),
                        "reward": rng.uniform(size=(3, 3)), "gamma": 0.9},
        "linquad": {"q_mats": rng.normal(size=(2, 3, 2)), "c_vecs": rng.normal(size=(2, 3)),
                    "b_vecs": rng.normal(size=(4, 3))},
        "lasso": {"design": rng.normal(size=(5, 3)), "targets": rng.normal(size=5)},
    }[kind]


def with_nan(shape):
    a = np.ones(shape)
    a.flat[-1] = np.nan
    return a


# (kind, field, value, what the error says after the field's name); the
# portfolio's one field shares no axis
BAD_FIELDS = {
    "empty_axis": [
        ("portfolio", "rewards", np.ones((0, 3)), r"has shape \(0, 3\): axis n must be >= 1"),
        ("policy_eval", "transition", np.ones((0, 0)), "axis S must be >= 1"),
        ("linquad", "q_mats", np.ones((2, 3, 0)), "axis N must be >= 1"),
        ("linquad", "b_vecs", np.ones((0, 3)), "axis n1 must be >= 1"),
        ("lasso", "design", np.ones((0, 3)), "axis n must be >= 1"),
    ],
    "shared_axis_disagrees": [
        ("policy_eval", "transition", np.full((3, 4), 0.25), "axis S must be 3$"),
        ("policy_eval", "reward", np.ones((3, 4)), "axis S must be 3$"),
        ("linquad", "c_vecs", np.ones((3, 3)), "axis n2 must be 2$"),
        ("linquad", "b_vecs", np.ones((4, 2)), "axis M must be 3$"),
        ("lasso", "targets", np.ones(4), "axis n must be 5$"),
    ],
    "wrong_axis_count": [
        ("portfolio", "rewards", np.ones(3), r"its axes must be \(n, N\)"),
        ("policy_eval", "reward", np.ones((3, 3, 1)), r"its axes must be \(S, S\)"),
        ("linquad", "q_mats", np.ones((3, 2)), r"its axes must be \(n2, M, N\)"),
        ("lasso", "targets", np.ones((5, 1)), r"its axes must be \(n\)"),
    ],
    "nan_entry": [
        ("portfolio", "rewards", with_nan((4, 3)), "contains non-finite entries"),
        ("policy_eval", "transition", with_nan((3, 3)), "contains non-finite entries"),
        ("linquad", "c_vecs", with_nan((2, 3)), "contains non-finite entries"),
        ("lasso", "targets", with_nan(5), "contains non-finite entries"),
    ],
}


class TestFieldSchema:
    """Every constructor checks its arrays against its class's `fields`."""

    @pytest.mark.parametrize("kind, field, value, match", [
        pytest.param(*case, id=f"{name}-{case[0]}-{case[1]}")
        for name, cases in BAD_FIELDS.items() for case in cases])
    def test_bad_field_rejected_by_name(self, kind, field, value, match):
        cls = _KINDS[kind][0]
        cls(*valid_fields(kind).values())
        args = {**valid_fields(kind), field: value}
        with pytest.raises(ValueError, match=f"^{field} .*{match}"):
            cls(*args.values())

    def test_ragged_field_rejected_by_name(self):
        with pytest.raises(ValueError, match="^design must be an array of numbers: "):
            LassoProblem([[1.0, 2.0], [3.0]], [1.0, 2.0])

    def test_stored_empty_axis_rejected_by_the_constructor(self):
        doc = problem_to_dict(gen_lasso(4, 2, RngStream(31)))
        doc.update(design=[], targets=[], dims={"n": 0, "N": 2})
        with pytest.raises(ValueError, match="^design has shape \\(0, 2\\): axis n must be >= 1"):
            problem_from_dict(doc)
