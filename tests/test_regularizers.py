import numpy as np
import pytest

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


def five_call_soft_threshold(x, eta, lam):
    """sign(x) * max(|x| - eta*lam, 0) as abs, subtract, maximum, sign and
    multiply, five numpy calls: the reference for the L1 prox."""
    out = np.abs(x)
    out -= eta * lam
    np.maximum(out, 0.0, out=out)
    out *= np.sign(x)
    return out


class TestProx:
    def test_soft_threshold_closed_form(self):
        out = L1Penalty(1.0).prox(np.array([2.0, -0.3]), 0.5)
        assert np.allclose(out, [1.5, 0.0])

    @pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
    def test_l1_equals_the_five_call_form_bitwise(self, stacked):
        """Every entry bitwise the five-call soft threshold, the infinities
        and the subnormals included, but for two: an entry of -0.0, where the
        prox copies the sign of x and returns -0.0 and the five-call form
        returns +0.0, and a NaN, which both return as a NaN, with a sign bit
        that in the five-call form depends on numpy's vector loop (it differed
        between a vector of 20 entries and a (3, 20) stack)."""
        eta, lam = 0.3, 1e-3
        level = eta * lam
        edges = [v for p in (0.0, -0.0, level, -level)
                 for v in (p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf))]
        x = np.array(edges + [1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300])
        if stacked:
            x = np.stack([x, -x, x[::-1]])
        got = L1Penalty(lam).prox(x, eta)
        want = five_call_soft_threshold(x, eta, lam)
        assert got.shape == x.shape
        minus_zero = (x == 0.0) & np.signbit(x)
        nan = np.isnan(x)
        assert minus_zero.any() and nan.any()
        same = ~(minus_zero | nan)
        assert np.array_equal(got.view(np.uint64)[same], want.view(np.uint64)[same])
        assert np.all(got[minus_zero] == 0.0) and np.all(np.signbit(got[minus_zero]))
        assert not np.any(np.signbit(want[minus_zero]))
        assert np.all(np.isnan(got[nan])) and np.all(np.isnan(want[nan]))

    def test_zero_kind_identity(self):
        out = ZeroPenalty().prox(np.array([7.0, -7.0]), 10.0)
        assert np.array_equal(out, [7.0, -7.0])

    def test_zero_kind_returns_a_fresh_array(self):
        x = np.array([7.0, -7.0])
        out = ZeroPenalty().prox(x, 10.0)
        out[0] = 1.0
        assert np.array_equal(x, [7.0, -7.0])

    def test_scalar_case_matches_1d_minimization(self):
        # imported here, so that the module's other tests run without scipy
        from scipy.optimize import minimize_scalar

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
