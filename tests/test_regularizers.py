import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from composolve.numerics import RngStream, l2_norm_sq
from composolve.regularizers import L1Penalty, ZeroPenalty, make_regularizer


class TestValue:
    def test_l1_direct_sum(self):
        assert L1Penalty(1e-3).value(np.array([1.0, -2.0])) == pytest.approx(3e-3)

    def test_zero_kind(self):
        assert ZeroPenalty().value(np.array([4.0, -1.0])) == 0.0

    def test_l1_matches_naive_loop(self):
        rng = RngStream(1)
        x = rng.normal(size=50)
        naive = 0.5 * sum(abs(float(t)) for t in x)
        assert L1Penalty(0.5).value(x) == naive


class TestProx:
    def test_soft_threshold_closed_form(self):
        out = L1Penalty(1.0).prox(np.array([2.0, -0.3]), 0.5)
        assert np.allclose(out, [1.5, 0.0])

    def test_zero_kind_identity(self):
        out = ZeroPenalty().prox(np.array([7.0, -7.0]), 10.0)
        assert np.array_equal(out, [7.0, -7.0])

    def test_scalar_case_matches_1d_minimization(self):
        lam, eta, x = 0.3, 1.0, 0.8
        reg = L1Penalty(lam)
        res = minimize_scalar(
            lambda t: lam * abs(t) + (t - x) ** 2 / (2 * eta),
            bounds=(-5, 5), method="bounded",
            options={"xatol": 1e-10},
        )
        assert reg.prox(np.array([x]), eta)[0] == pytest.approx(res.x, abs=1e-6)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            L1Penalty(1.0).prox(np.array([1.0]), 0.0)

    def test_nonexpansive(self):
        rng = RngStream(2)
        reg = L1Penalty(0.7)
        for _ in range(1000):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            eta = 0.01 + 3 * rng.uniform()
            lhs = np.linalg.norm(reg.prox(a, eta) - reg.prox(b, eta))
            assert lhs <= np.linalg.norm(a - b) + 1e-12

    def test_prox_beats_perturbed_candidates(self):
        rng = RngStream(3)
        reg = L1Penalty(0.4)
        for _ in range(50):
            x = rng.normal(size=5)
            eta = 0.1 + rng.uniform()
            p = reg.prox(x, eta)
            best = reg.value(p) + l2_norm_sq(p - x) / (2 * eta)
            for _ in range(100):
                cand = p + 0.3 * rng.normal(size=5)
                val = reg.value(cand) + l2_norm_sq(cand - x) / (2 * eta)
                assert val >= best - 1e-12


class TestMinNormSubgradient:
    def test_zero_kind(self):
        g = ZeroPenalty().min_norm_subgradient(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(g, [0.0, 0.0])

    def test_clamp_inside_interval(self):
        g = L1Penalty(1e-3).min_norm_subgradient(np.array([0.0]), np.array([5e-4]))
        assert g[0] == -5e-4

    def test_mixed_signs_and_zero(self):
        reg = L1Penalty(1.0)
        x = np.array([2.0, 0.0, -1.0])
        grad = np.array([0.0, 3.0, 0.0])
        g = reg.min_norm_subgradient(x, grad)
        assert np.array_equal(g, [1.0, -1.0, -1.0])
        assert np.array_equal(grad + g, [1.0, 2.0, -1.0])

    def test_matches_box_projection_oracle(self):
        rng = RngStream(4)
        reg = L1Penalty(0.25)
        for _ in range(200):
            x = rng.normal(size=6)
            x[rng.integers(6)] = 0.0
            grad = rng.normal(size=6)
            g = reg.min_norm_subgradient(x, grad)
            # oracle: project -grad onto the subdifferential box per component
            lo = np.where(x > 0, reg.lam, np.where(x < 0, -reg.lam, -reg.lam))
            hi = np.where(x > 0, reg.lam, np.where(x < 0, -reg.lam, reg.lam))
            proj = np.clip(-grad, lo, hi)
            assert np.allclose(g, proj)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            L1Penalty(1.0).min_norm_subgradient(np.zeros(3), np.zeros(4))


def test_factory():
    assert isinstance(make_regularizer("zero"), ZeroPenalty)
    reg = make_regularizer("l1", 0.2)
    assert isinstance(reg, L1Penalty) and reg.lam == 0.2
    with pytest.raises(ValueError):
        make_regularizer("nuclear")
    with pytest.raises(ValueError):
        make_regularizer("l1", -1.0)
