import json
from pathlib import Path

import numpy as np
import pytest

from composolve.numerics import RngStream, central_difference_gradient
from composolve.problems import (
    _KINDS,
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

SCHEMA = Path(__file__).resolve().parents[1] / "schema" / "experiment_config.schema.json"


def small_portfolio(seed=1, n=12, dim=4):
    return PortfolioProblem(gen_gaussian_rewards(n, dim, 3.0, RngStream(seed)))


def small_policy_eval(seed=2, n_states=6, gamma=0.9):
    p, r = gen_mdp(n_states, 3, RngStream(seed))
    return PolicyEvalProblem(p, r, gamma)


def small_linquad(seed=3, n1=8, n2=8, dim_y=5, dim_x=4):
    return gen_linquad(n1, n2, dim_y, dim_x, RngStream(seed))


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
        jac = prob.full_inner_jacobian(x)
        for m in range(prob.dim_y):
            fd = central_difference_gradient(
                lambda t: float(prob.full_inner_value(t)[m]), x
            )
            assert np.linalg.norm(fd - jac[m]) <= 1e-5 * max(
                1.0, np.linalg.norm(jac[m])
            )

    def test_portfolio_jacobian_structure(self):
        prob = small_portfolio()
        jac = prob.full_inner_jacobian(np.zeros(prob.dim_x))
        assert np.array_equal(jac[: prob.dim_x], np.eye(prob.dim_x))
        assert np.allclose(jac[prob.dim_x], prob.rewards.mean(axis=0))

    def test_portfolio_jacobian_constant_in_x(self):
        prob = small_portfolio()
        rng = RngStream(13)
        j0 = prob.inner_jacobian_batch(np.arange(prob.n2), np.zeros(prob.dim_x))
        j1 = prob.inner_jacobian_batch(np.arange(prob.n2), rng.normal(size=prob.dim_x))
        assert np.array_equal(j0, j1)

    def test_jacobian_override_matches_generic_loop(self):
        # fast closed-form paths must agree with the per-index definition
        for prob in (small_portfolio(), small_policy_eval(), small_linquad()):
            x = RngStream(14).normal(size=prob.dim_x)
            generic = prob.inner_jacobian_batch(np.arange(prob.n2), x).mean(axis=0)
            assert np.allclose(prob.full_inner_jacobian(x), generic,
                               rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize(
        "maker", [small_portfolio, small_policy_eval, small_linquad]
    )
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


class TestPolicyEvalEmbedding:
    def test_two_state_hand_instance(self):
        p = np.array([[0.7, 0.3], [0.4, 0.6]])
        r = np.array([[1.0, 0.0], [0.5, 2.0]])
        prob = PolicyEvalProblem(p, r, 0.9)
        v = np.array([1.5, -0.5])
        bellman = (p * r).sum(axis=1) + 0.9 * p @ v
        direct = float(((v - bellman) ** 2).mean())
        assert prob.objective_f(v) == pytest.approx(direct, abs=1e-12)

    def test_zero_residual_at_exact_value_function(self):
        prob = small_policy_eval()
        assert prob.objective_f(prob.exact_value_function()) <= 1e-9

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

    def test_mdp_rows_and_positivity(self):
        p, r = gen_mdp(25, 4, RngStream(4))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
        assert p.min() > 0
        assert r.min() >= 0 and r.max() <= 1

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

    def test_full_gradient_zero_at_least_squares(self):
        prob = gen_lasso(30, 5, RngStream(10))
        sol = prob.least_squares_solution()
        assert np.linalg.norm(prob.full_gradient(sol)) <= 1e-8

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LassoProblem(np.ones((3, 2)), np.ones(4))


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

    def test_schema_kinds_are_the_table_kinds(self):
        schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
        kinds = schema["properties"]["problem"]["properties"]["kind"]["enum"]
        assert sorted(kinds) == sorted(_KINDS)

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
