import numpy as np
import pytest

from composolve import verification
from composolve.numerics import (
    RngStream,
    central_difference_gradient,
    l2_norm_sq,
    sample_with_replacement,
)


class TestSampleWithReplacement:
    def test_empty_sample(self):
        assert list(sample_with_replacement(RngStream(0), 5, 0)) == []

    def test_single_outcome(self):
        assert list(sample_with_replacement(RngStream(0), 1, 3)) == [0, 0, 0]

    def test_same_seed_same_draws(self):
        a = sample_with_replacement(RngStream(42), 10, 4)
        b = sample_with_replacement(RngStream(42), 10, 4)
        assert np.array_equal(a, b)

    def test_zero_population_rejected(self):
        with pytest.raises(ValueError):
            sample_with_replacement(RngStream(0), 0, 1)

    def test_range(self):
        draws = sample_with_replacement(RngStream(7), 6, 1000)
        assert draws.min() >= 0 and draws.max() < 6

    def test_frequencies_within_four_sigma(self):
        assert verification.check_sampling_uniformity()[1]


class TestCentralDifference:
    def test_quadratic_exact(self):
        g = central_difference_gradient(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert g[0] == pytest.approx(6.0, abs=1e-9)

    def test_constant_zero(self):
        g = central_difference_gradient(lambda x: 1.5, np.array([0.3, -2.0]))
        assert np.all(g == 0.0)

    def test_exponential(self):
        g = central_difference_gradient(
            lambda x: float(np.exp(x[0])), np.array([1.0, 0.0])
        )
        assert g[0] == pytest.approx(np.e, rel=1e-8)
        assert g[1] == 0.0

    def test_matches_analytic_at_random_points(self):
        rng = RngStream(5)
        a = rng.normal(size=(4, 4))

        def f(x):
            return float(np.sin(x) @ a @ np.cos(x))

        def grad(x):
            return np.cos(x) * (a @ np.cos(x)) - (np.sin(x) @ a) * np.sin(x)

        for _ in range(20):
            x = rng.normal(size=4)
            fd = central_difference_gradient(f, x)
            g = grad(x)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_nonfinite_rejected(self):
        with pytest.raises(FloatingPointError):
            central_difference_gradient(
                lambda x: float("nan"), np.array([0.0])
            )

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            central_difference_gradient(lambda x: 0.0, np.array([0.0]), h=0.0)


class TestL2NormSq:
    def test_zero(self):
        assert l2_norm_sq(np.zeros(3)) == 0.0

    def test_pythagoras(self):
        assert l2_norm_sq(np.array([3.0, 4.0])) == 25.0

    def test_matches_naive_loop(self):
        rng = RngStream(9)
        v = rng.normal(size=100)
        naive = sum(float(t) * float(t) for t in v)
        assert l2_norm_sq(v) == pytest.approx(naive, rel=1e-12)
