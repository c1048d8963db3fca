import math
from types import SimpleNamespace

import numpy as np
import pytest

from composolve import metrics
from composolve.metrics import (
    CSV_COLUMNS,
    DivergedError,
    TraceRecord,
    TraceRecorder,
    composite_grad_sq,
    gradient_mapping,
    objective_H,
    queries_to_threshold,
    verify_optimum,
)
from composolve.numerics import RngStream
from composolve.oracle import QueryCounter, counted
from composolve.problems import (
    LinQuadProblem,
    PolicyEvalProblem,
    PortfolioProblem,
    gen_gaussian_rewards,
    gen_lasso,
    gen_linquad,
    gen_mdp,
)
from composolve.regularizers import L1Penalty, ZeroPenalty
from composolve.solvers import prox_full_gradient


def linquad(seed=1):
    return gen_linquad(8, 6, 5, 4, RngStream(seed))


def one_dim_quadratic():
    """f(x) = x^2 / 2 through a single affine inner map."""
    return LinQuadProblem(np.ones((1, 1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))


class TestObjectiveH:
    def test_zero_penalty_equals_f(self):
        prob = linquad()
        x = RngStream(2).normal(size=prob.dim_x)
        assert objective_H(prob, ZeroPenalty(), x) == prob.objective_f(x)

    def test_portfolio_toy_with_l1(self):
        prob = PortfolioProblem(np.array([[2.0]]))
        x = np.array([3.0])
        assert objective_H(prob, L1Penalty(1e-3), x) == pytest.approx(-5.997)

    def test_matches_naive_sum_of_parts(self):
        prob = linquad()
        reg = L1Penalty(0.05)
        rng = RngStream(3)
        for _ in range(20):
            x = rng.normal(size=prob.dim_x)
            naive = prob.objective_f(x) + 0.05 * np.abs(x).sum()
            assert objective_H(prob, reg, x) == pytest.approx(naive, abs=1e-12)


def objective_gap(prob, reg, x, x_star):
    """The gap a trace row holds: H(x) - H(x_star)."""
    return objective_H(prob, reg, x) - objective_H(prob, reg, x_star)


class TestObjectiveGap:
    def test_zero_at_reference(self):
        prob = linquad()
        x_star = prob.unregularized_optimum()
        assert abs(objective_gap(prob, ZeroPenalty(), x_star, x_star)) <= 1e-12

    def test_nonnegative_at_random_points(self):
        prob = linquad()
        reg = L1Penalty(1e-2)
        ref = prox_full_gradient(prob, reg, 0.1, 200_000, tol=1e-14)
        rng = RngStream(4)
        for _ in range(50):
            x = rng.normal(size=prob.dim_x)
            assert objective_gap(prob, reg, x, ref.x_final) >= -1e-9

    def test_matches_analytic_quadratic_gap(self):
        prob = linquad()
        x_star = prob.unregularized_optimum()
        hess = prob.hessian()
        rng = RngStream(5)
        for _ in range(10):
            x = rng.normal(size=prob.dim_x)
            d = x - x_star
            analytic = 0.5 * d @ hess @ d
            gap = objective_gap(prob, ZeroPenalty(), x, x_star)
            assert gap == pytest.approx(analytic, abs=1e-10)


class TestCompositeGradSq:
    def test_zero_penalty_is_gradient_norm(self):
        prob = linquad()
        x = RngStream(6).normal(size=prob.dim_x)
        g = prob.full_gradient(x)
        assert composite_grad_sq(prob, ZeroPenalty(), x) == pytest.approx(
            float(g @ g), rel=1e-12
        )

    def test_vanishes_at_regularized_optimum(self):
        prob = linquad()
        reg = L1Penalty(1e-2)
        ref = prox_full_gradient(prob, reg, 0.1, 300_000, tol=1e-15, trace_stride=10**9)
        assert composite_grad_sq(prob, reg, ref.x_final) <= 1e-12

    def test_one_dim_clamp_at_origin(self):
        prob = one_dim_quadratic()
        assert composite_grad_sq(prob, L1Penalty(1.0), np.array([0.0])) == 0.0

    def test_positive_away_from_optimum(self):
        prob = linquad()
        reg = L1Penalty(1e-2)
        rng = RngStream(7)
        for _ in range(20):
            x = prob.unregularized_optimum() + rng.normal(size=prob.dim_x)
            assert composite_grad_sq(prob, reg, x) > 1e-6


class TestVerifyOptimum:
    def test_accepts_true_optimum(self):
        prob = linquad()
        residual = verify_optimum(
            prob, ZeroPenalty(), prob.unregularized_optimum(), eta=0.1
        )
        assert residual <= 1e-7

    def test_rejects_perturbed_point(self):
        prob = linquad()
        x = prob.unregularized_optimum() + 0.1
        assert verify_optimum(prob, ZeroPenalty(), x, eta=0.1) > 1e-7

    def test_residual_is_mapping_norm(self):
        prob = linquad()
        reg = L1Penalty(1e-3)
        x = RngStream(8).normal(size=prob.dim_x)
        residual = verify_optimum(prob, reg, x, eta=0.2)
        gm = gradient_mapping(prob, reg, x, 0.2)
        assert residual == pytest.approx(float(np.linalg.norm(gm)), rel=1e-12)


class TestTraceRecord:
    def sample(self):
        return TraceRecord(
            epoch=2, inner_iter=7, wall_ms=12.5,
            q_inner_val=100, q_inner_jac=50, q_outer_grad=30,
            objective=1.25, gap=0.25, grad_map_sq=1e-9, composite_grad_sq=2e-9,
        )

    def test_queries_total(self):
        assert self.sample().queries == 180

    def test_csv_row_layout(self):
        row = self.sample().csv_row()
        parts = row.split(",")
        assert len(parts) == len(CSV_COLUMNS)
        assert parts[0] == "2" and parts[1] == "7"
        assert parts[3:6] == ["100", "50", "30"]

    def test_each_column_holds_its_field(self):
        rec = self.sample()
        parts = rec.csv_row().split(",")
        assert len(parts) == len(CSV_COLUMNS)
        for col, text in zip(CSV_COLUMNS, parts):
            assert float(text) == getattr(rec, col), col

    def test_csv_floats_round_trip(self):
        rec = TraceRecord(
            epoch=0, inner_iter=0, wall_ms=0.1,
            q_inner_val=1, q_inner_jac=1, q_outer_grad=1,
            objective=math.pi * 1e-7, gap=np.nan,
            grad_map_sq=1.0 / 3.0, composite_grad_sq=2.0 / 3.0,
        )
        parts = rec.csv_row().split(",")
        assert float(parts[6]) == math.pi * 1e-7
        assert math.isnan(float(parts[7]))
        assert float(parts[8]) == 1.0 / 3.0


class TestTraceRecorder:
    def test_non_finite_objective_raises_and_appends_nothing(self):
        prob = linquad()
        _, counter = counted(prob)
        rec = TraceRecorder(prob, ZeroPenalty(), 0.1, counter)
        rec.record(0, 0, np.zeros(prob.dim_x))
        x = np.full(prob.dim_x, 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError) as err:
                rec.record(0, 1, x, force=True)  # evaluates the pending block
        assert len(rec.rows) == 1 and err.value.trace == rec.rows
        assert err.value.x_last is x

    def test_gap_nan_without_reference(self):
        prob = linquad()
        _, counter = counted(prob)
        rec = TraceRecorder(prob, ZeroPenalty(), 0.1, counter)
        rec.record(0, 0, np.zeros(prob.dim_x))
        rec.flush()
        assert math.isnan(rec.rows[0].gap)

    @pytest.mark.parametrize("reg", [ZeroPenalty(), L1Penalty(1e-3)], ids=["zero", "l1"])
    @pytest.mark.parametrize("make", [linquad, lambda: gen_lasso(12, 4, RngStream(4))],
                             ids=["linquad", "lasso"])
    def test_diagnostics_do_not_touch_counter(self, make, reg):
        # at stride 1, as solvers record by default: a forced row alone, then a
        # block of five in one stacked pass
        prob = make()
        _, counter = counted(prob)
        rec = TraceRecorder(prob, reg, 0.1, counter, x_star=np.ones(prob.dim_x))
        rng = RngStream(13)
        rec.record(0, 0, np.ones(prob.dim_x), force=True)
        for t in range(1, 6):
            rec.record(0, t, rng.normal(size=prob.dim_x))
        rec.flush()
        assert len(rec.rows) == 6 and counter.total == 0

    @pytest.mark.parametrize("make", [
        lambda: PortfolioProblem(gen_gaussian_rewards(30, 5, 2.0, RngStream(9))),
        lambda: PolicyEvalProblem(*gen_mdp(11, 3, RngStream(10)), 0.9),
        lambda: gen_linquad(13, 21, 6, 4, RngStream(11)),
    ], ids=["portfolio", "policy_eval", "linquad"])
    def test_block_makes_one_objective_and_gradient_call(self, make, monkeypatch):
        # and no inner pass per row: every class here has a closed form
        prob = make()
        _, counter = counted(prob)
        rec = TraceRecorder(prob, L1Penalty(1e-3), 0.1, counter,
                            x_star=np.zeros(prob.dim_x))
        seen, inner = [], []
        objective_and_gradient = prob.objective_and_gradient
        monkeypatch.setattr(prob, "objective_and_gradient",
                            lambda x: seen.append(np.shape(x)) or objective_and_gradient(x))
        full_inner_value = prob.full_inner_value
        monkeypatch.setattr(prob, "full_inner_value",
                            lambda x: inner.append(x) or full_inner_value(x))
        rng = RngStream(12)
        for t in range(5):
            rec.record(0, t, rng.normal(size=prob.dim_x), force=t == 4)
        assert seen == [(5, prob.dim_x)] and len(rec.rows) == 5
        assert inner == []

    def test_wall_and_queries_nondecreasing(self):
        prob = linquad()
        cp, counter = counted(prob)
        rec = TraceRecorder(prob, ZeroPenalty(), 0.1, counter)
        x = np.zeros(prob.dim_x)
        for t in range(5):
            cp.full_gradient(x)
            rec.record(0, t, x)
        rec.flush()
        walls = [r.wall_ms for r in rec.rows]
        queries = [r.queries for r in rec.rows]
        assert walls == sorted(walls)
        assert queries == sorted(queries) and queries[-1] > queries[0]

    def test_wall_ms_is_read_when_the_row_is_recorded(self, monkeypatch):
        # diagnostics that take 100 s on a fake clock move no row's wall_ms
        prob = linquad()
        clock = [0.0]
        monkeypatch.setattr(metrics, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        objective_and_gradient = prob.objective_and_gradient

        def slow(x):
            clock[0] += 100.0
            return objective_and_gradient(x)

        monkeypatch.setattr(prob, "objective_and_gradient", slow)
        rec = TraceRecorder(prob, ZeroPenalty(), 0.1, QueryCounter())
        for t in range(1, 4):
            clock[0] = float(t)
            rec.record(0, t, np.full(prob.dim_x, float(t)), force=t == 3)
        assert [r.wall_ms for r in rec.rows] == [1000.0, 2000.0, 3000.0]
        assert clock[0] == 103.0  # one stacked pass for the three rows

    def test_forced_newest_row_is_not_recorded_twice(self):
        prob = linquad()
        rec = TraceRecorder(prob, ZeroPenalty(), 0.1, QueryCounter())
        x = np.ones(prob.dim_x)
        rec.record(0, 0, np.zeros(prob.dim_x))
        rec.record(0, 1, x)
        rec.record(0, 1, x, force=True)  # the newest row itself: evaluates only
        assert [r.inner_iter for r in rec.rows] == [0, 1]
        rec.record(0, 1, x, force=True)  # and again, once evaluated
        rec.record(0, 1, x.copy(), force=True)  # an equal copy is another iterate
        assert [r.inner_iter for r in rec.rows] == [0, 1, 1]


class TestQueriesToThreshold:
    def make_trace(self, gaps, step=10):
        out = []
        for k, g in enumerate(gaps):
            out.append(TraceRecord(
                epoch=0, inner_iter=k, wall_ms=float(k),
                q_inner_val=step * (k + 1), q_inner_jac=0, q_outer_grad=0,
                objective=g, gap=g, grad_map_sq=g, composite_grad_sq=g,
            ))
        return out

    def test_first_crossing(self):
        trace = self.make_trace([1.0, 0.5, 1e-7, 1e-9])
        assert queries_to_threshold(trace, 1e-6) == 30

    def test_never_reached(self):
        trace = self.make_trace([1.0, 0.5])
        assert queries_to_threshold(trace, 1e-6) is None

    def test_alternate_field(self):
        trace = self.make_trace([1.0, 1e-8])
        assert queries_to_threshold(trace, 1e-6, field="grad_map_sq") == 20

    def test_nan_rows_ignored(self):
        trace = self.make_trace([np.nan, 1e-8])
        assert queries_to_threshold(trace, 1e-6) == 20
