import numpy as np
import pytest

from composolve.numerics import RngStream
from composolve.oracle import counted, full_gradient_cost, vrsc_pg_cost
from composolve.problems import gen_linquad
from composolve.regularizers import ZeroPenalty
from composolve import solvers, verification


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
        g_hat = solvers.estimate_inner_value(
            snap, cp, x, rng.integers(prob.n2, size=a)
        )
        solvers.estimate_gradient_vt(
            snap, cp, x, g_hat, rng.integers(prob.n2, size=b),
            rng.integers(prob.n1, size=b1),
        )
        assert counter.snapshot() == (2 * a, 2 * b, 2 * b1)

    def test_wrapper_is_transparent(self):
        assert verification.check_counting_transparency()[1]


class TestCostFormulas:
    def test_outer_loop_only(self):
        assert vrsc_pg_cost(10, 20, m=0, a=1, b=1, b1=1, s_epochs=1) == 50

    def test_direct_substitution(self):
        assert vrsc_pg_cost(3, 4, m=1, a=1, b=1, b1=1, s_epochs=1) == 3 + 8 + 6

    # one check covers every solver, by total and by kind
    def test_vrsc_pg_live_match(self):
        assert verification.check_query_exactness()[1]

    def test_scpg_live_match(self):
        assert verification.check_query_exactness()[1]

    def test_prox_svrg_live_match(self):
        assert verification.check_query_exactness()[1]

    def test_prox_full_gradient_live_match(self):
        assert verification.check_query_exactness()[1]

    def test_counter_monotone_along_trace(self, prob):
        cfg = solvers.VrscpgConfig(eta=0.05, m=5, S_epochs=3, A=2, B=2, b1=2, seed=1)
        res = solvers.vrsc_pg(prob, ZeroPenalty(), cfg)
        queries = [r.queries for r in res.trace]
        assert queries == sorted(queries)
