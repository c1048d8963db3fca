import numpy as np
import pytest

from composolve.numerics import RngStream
from composolve.oracle import (
    counted,
    full_gradient_cost,
    prox_full_gradient_cost,
    prox_svrg_cost,
    scpg_cost,
    vrsc_pg_cost,
)
from composolve.problems import (
    PolicyEvalProblem,
    PortfolioProblem,
    gen_gaussian_rewards,
    gen_lasso,
    gen_linquad,
    gen_mdp,
)
from composolve.regularizers import L1Penalty, ZeroPenalty
from composolve import solvers


@pytest.fixture
def prob():
    return gen_linquad(9, 7, 5, 4, RngStream(1))


class TestCounter:
    def test_single_inner_value(self, prob):
        cp, counter = counted(prob)
        cp.inner_value_batch(np.array([2]), np.zeros(prob.dim_x))
        assert counter.snapshot() == (1, 0, 0)

    def test_full_gradient_counts(self, prob):
        cp, counter = counted(prob)
        cp.full_gradient(np.zeros(prob.dim_x))
        assert counter.snapshot() == (prob.n2, prob.n2, prob.n1)
        assert counter.total == full_gradient_cost(prob.n1, prob.n2)

    def test_outer_values_uncounted(self, prob):
        cp, counter = counted(prob)
        cp.objective_f(np.zeros(prob.dim_x))
        # inner values are charged for G(x); outer values are not
        assert counter.snapshot() == (prob.n2, 0, 0)

    def test_one_inner_iteration_counts(self, prob):
        cp, counter = counted(prob)
        snap = solvers.compute_snapshot(prob, np.zeros(prob.dim_x))
        rng = RngStream(2)
        x = rng.normal(size=prob.dim_x)
        a, b, b1 = 4, 3, 5
        args = (snap, rng.integers(prob.n2, size=a), rng.integers(prob.n2, size=b),
                rng.integers(prob.n1, size=b1), x)
        assert np.array_equal(cp.variance_reduced_step(*args),
                              prob.variance_reduced_step(*args))
        assert counter.snapshot() == (2 * a, 2 * b, 2 * b1)

    def test_rejected_tracking_step_is_not_charged(self, prob):
        # the step is charged once its hook returns: an empty js makes no query
        cp, counter = counted(prob)
        with pytest.raises(IndexError):
            cp.tracking_step(np.array([], dtype=np.int64), np.array([0]),
                             np.zeros(prob.dim_x), np.zeros(prob.dim_y), 0.5, 0.1)
        assert counter.snapshot() == (0, 0, 0)

    @pytest.mark.parametrize("empty", ["A", "B", "I"])
    def test_rejected_variance_reduced_step_is_not_charged(self, prob, empty):
        # as for the tracking step: an empty A, B or I makes no query
        cp, counter = counted(prob)
        snap = solvers.compute_snapshot(prob, np.zeros(prob.dim_x))
        sets = {"A": np.array([0, 1]), "B": np.array([2]), "I": np.array([3, 0])}
        sets[empty] = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="index set must be nonempty"):
            cp.variance_reduced_step(snap, sets["A"], sets["B"], sets["I"],
                                     np.ones(prob.dim_x))
        assert counter.snapshot() == (0, 0, 0)

    def test_rejected_comp_gradient_diff_mean_is_not_charged(self):
        # the finite sum's step hook, as for the two step hooks: an empty
        # index set makes no query
        cp, counter = counted(gen_lasso(10, 4, RngStream(4)))
        with pytest.raises(ValueError, match="index set must be nonempty"):
            cp.comp_gradient_diff_mean(np.array([], dtype=np.int64), np.ones(4), np.zeros(4))
        assert counter.snapshot() == (0, 0, 0)

    def test_wrapper_is_transparent(self, prob):
        rng = RngStream(3)
        p, r = gen_mdp(9, 3, rng)
        every_class = (
            prob,
            PortfolioProblem(gen_gaussian_rewards(30, 6, 2.0, rng)),
            PolicyEvalProblem(p, r, 0.9),
            # n2 = 70 > 64: a chunked generic Jacobian loop would sum in another order
            gen_linquad(5, 70, 4, 3, rng),
        )
        for problem in every_class:
            cp, counter = counted(problem)
            x = rng.normal(size=problem.dim_x)
            assert np.array_equal(cp.full_gradient(x), problem.full_gradient(x))
            assert np.array_equal(
                cp.full_inner_jacobian(x), problem.full_inner_jacobian(x)
            )
            assert cp.objective_f(x) == problem.objective_f(x)
            n1, n2 = problem.n1, problem.n2
            assert counter.snapshot() == (2 * n2, 2 * n2, n1)
            js = np.array([1, 0, 1, 2])  # repeated indices included
            u = rng.normal(size=problem.dim_y)
            before = counter.snapshot()
            assert np.array_equal(
                cp.inner_vjp_batch(js, x, u), problem.inner_vjp_batch(js, x, u)
            )
            after = counter.snapshot()
            assert tuple(b - a for a, b in zip(before, after)) == (0, len(js), 0)
            # one two-timescale step: one index each, one query of each kind
            y, j, i = rng.normal(size=problem.dim_y), js[3:], js[1:2]
            step = cp.tracking_step(j, i, x, y, 0.4, 0.2)
            assert all(map(np.array_equal, step, problem.tracking_step(j, i, x, y, 0.4, 0.2)))
            assert tuple(b - a for a, b in zip(after, counter.snapshot())) == (1, 1, 1)


class TestCostFormulas:
    def test_outer_loop_only(self):
        assert vrsc_pg_cost(10, 20, m=0, a=1, b=1, b1=1, s_epochs=1) == 50

    def test_direct_substitution(self):
        assert vrsc_pg_cost(3, 4, m=1, a=1, b=1, b1=1, s_epochs=1) == 3 + 8 + 6

    def test_vrsc_pg_live_match(self, prob):
        for trial in range(5):
            rng = RngStream(trial)
            m, a, b, b1, s = (int(rng.integers(6)) + 1 for _ in range(5))
            cfg = solvers.VrscpgConfig(
                eta=0.05, m=m, S_epochs=s, A=a, B=b, b1=b1, seed=trial
            )
            res = solvers.vrsc_pg(prob, L1Penalty(1e-3), cfg)
            n1, n2 = prob.n1, prob.n2
            assert res.counter.snapshot() == (
                s * (n2 + 2 * m * a), s * (n2 + 2 * m * b), s * (n1 + 2 * m * b1)
            )
            assert res.counter.total == vrsc_pg_cost(n1, n2, m, a, b, b1, s)

    def test_scpg_live_match(self, prob):
        res = solvers.scpg_baseline(
            prob, ZeroPenalty(), alpha0=0.05, beta0=1.0,
            exp_alpha=0.75, exp_beta=0.5, iters=37, seed=0,
        )
        assert res.counter.snapshot() == (37, 37, 37)
        assert res.counter.total == scpg_cost(37)

    def test_prox_svrg_live_match(self):
        fsp = gen_lasso(12, 4, RngStream(4))
        res = solvers.prox_svrg(fsp, L1Penalty(1e-3), eta=0.5, m=6,
                                S_epochs=3, seed=0)
        assert res.counter.snapshot() == (0, 0, 3 * (fsp.n + 2 * 6))
        assert res.counter.total == prox_svrg_cost(fsp.n, 6, 3)

    def test_prox_full_gradient_live_match(self, prob):
        res = solvers.prox_full_gradient(prob, ZeroPenalty(), eta=0.05, iters=11)
        k = res.n_iters
        assert k == 11
        assert res.counter.snapshot() == (k * prob.n2, k * prob.n2, k * prob.n1)
        assert res.counter.total == prox_full_gradient_cost(prob.n1, prob.n2, k)

    def test_lasso_full_pass_pays_its_identity_inner_map(self):
        # a finite sum is the composition with n2 = 1: a counted full gradient
        # costs one inner value, one inner Jacobian and n component gradients
        fsp = gen_lasso(12, 4, RngStream(4))
        res = solvers.prox_full_gradient(fsp, ZeroPenalty(), eta=0.5, iters=11)
        assert res.counter.snapshot() == (11, 11, 11 * fsp.n)
        assert res.counter.total == prox_full_gradient_cost(fsp.n, 1, 11) == 11 * (fsp.n + 2)

    def test_counter_monotone_along_trace(self, prob):
        cfg = solvers.VrscpgConfig(eta=0.05, m=5, S_epochs=3, A=2, B=2, b1=2, seed=1)
        res = solvers.vrsc_pg(prob, ZeroPenalty(), cfg)
        queries = [r.queries for r in res.trace]
        assert queries == sorted(queries)
