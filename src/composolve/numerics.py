"""Dense numeric primitives: checked integers and numbers, seeded streams,
derivative checks."""

import math
from numbers import Integral, Real

import numpy as np

# Central differences at 64-bit precision: truncation ~h^2, rounding ~eps/h.
DEFAULT_FD_STEP = 1e-5


class RngStream:
    """Seeded random stream backed by the counter-based Philox engine.

    Philox is a named, documented bit generator whose output for a given
    seed is identical across platforms, so experiment traces replay
    bit-for-bit. A stream is single-owner: never share one across
    concurrent tasks. The seed is an integer >= 0, a bool not included.
    """

    def __init__(self, seed):
        self.seed = int(check_int("seed", seed, 0))
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def integers(self, n, size=None):
        return self._gen.integers(0, n, size=size, dtype=np.int64)

    def normal(self, size=None):
        return self._gen.normal(size=size)

    def uniform(self, size=None):
        return self._gen.uniform(size=size)


def check_int(name, value, low=1):
    """value, if it is an integer (not a bool) >= low; else a TypeError or
    ValueError that names it."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def check_real(name, value, low=-math.inf, high=math.inf, open_low=False, open_high=False):
    """value, if it is a real number (not a bool) between low and high, each
    end included unless open_*; else a TypeError or ValueError that names it."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not ((low < value if open_low else low <= value)
            and (value < high if open_high else value <= high)):
        interval = (f"{'(' if open_low else '['}{low:g}, {high:g}"
                    f"{')' if open_high or high == math.inf else ']'}")
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")
    return value


def read_only(a):
    """a, made read-only in place: for arrays that an object owns and shares."""
    a.setflags(write=False)
    return a


def sample_with_replacement(rng, n, k):
    """Draw indices uniformly and independently, with replacement.

    With an integer population n, k indices from [0, n). With a 1-D array
    of populations n, a (k, len(n)) block whose column c draws from
    [0, n[c]). The block replays bitwise the k * len(n) single draws made
    row by row, in column order, from the same stream, and leaves the
    stream where those draws would: numpy's bounded-integer sampler takes
    each index from the stream in turn, by rejection, so how many raw words
    one index consumes varies, but the order does not.
    """
    block = isinstance(n, np.ndarray)
    if (n.min() if block else n) < 1:
        raise ValueError("population size n must be >= 1")
    if k < 0:
        raise ValueError("sample size k must be >= 0")
    return rng.integers(n, size=(int(k), len(n)) if block else int(k))


def row_values(v):
    """v as a float when it holds the value of one row, else the array of one
    value per row of a stack."""
    return float(v) if np.ndim(v) == 0 else v


def l2_norm_sq(v):
    """Squared Euclidean norm, the sum of squared entries: a float for a vector,
    and for a stack v (..., N) one per row, each bitwise np.dot(row, row), which
    reducing v * v along the rows would not be."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim <= 1:
        return float(np.dot(v.ravel(), v.ravel()))
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


def central_difference_gradient(f, x, h=DEFAULT_FD_STEP):
    """Componentwise central-difference gradient of a scalar function.

    Component i is (f(x + h e_i) - f(x - h e_i)) / (2 h).
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = f(xp)
        fm = f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(
                f"non-finite function value in finite difference at component {i}"
            )
        g[i] = (fp - fm) / (2.0 * h)
    return g
