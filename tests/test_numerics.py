import numpy as np
import pytest

from composolve.numerics import (
    RngStream,
    central_difference_gradient,
    l2_norm_sq,
    sample_with_replacement,
)


class TestRngStream:
    @pytest.mark.parametrize("seed, error", [(1.5, TypeError), (True, TypeError),
                                             ("1", TypeError), (-1, ValueError)])
    def test_seed_must_be_a_nonnegative_integer(self, seed, error):
        with pytest.raises(error, match=f"^seed must .*got {seed!r}"):
            RngStream(seed)

    def test_numpy_integer_seed_same_stream(self):
        assert RngStream(np.int64(7)).normal() == RngStream(7).normal()


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

    @pytest.mark.parametrize("highs", [
        [7],  # width 1, one population
        [96, 64],  # width 2, n1 != n2: one draw per population per row
        [9] * 5 + [9] * 5 + [12] * 5,  # width 15: A + B from n2, then b1 from n1
        [10**6, 3, 2**40],  # populations beyond 32 bits take the 64-bit sampler
    ])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_block_replays_interleaved_draws(self, highs, seed):
        # the solvers draw a block of steps at once; it must equal, bit for
        # bit, the single draws made step by step in column order, and leave
        # the stream where they leave it
        block_rng, step_rng = RngStream(seed), RngStream(seed)
        block = sample_with_replacement(block_rng, np.array(highs), 37)
        steps = [[sample_with_replacement(step_rng, n, 1)[0] for n in highs]
                 for _ in range(37)]
        assert block.shape == (37, len(highs)) and block.dtype == np.int64
        assert np.array_equal(block, np.array(steps))
        assert np.array_equal(block_rng.integers(1000, size=8),
                              step_rng.integers(1000, size=8))

    def test_block_zero_rows_and_bad_population(self):
        assert sample_with_replacement(RngStream(0), np.array([3, 4]), 0).shape == (0, 2)
        with pytest.raises(ValueError):
            sample_with_replacement(RngStream(0), np.array([3, 0]), 2)


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
