"""Nonsmooth convex penalties: value, proximal map, min-norm subgradient.

Each operation takes one point x of shape (N,) or a stack of points of shape
(..., N), row by row: a value per row, and the prox and the subgradient
entrywise. The trace recorder evaluates a block of rows this way.
"""

import numpy as np

from .numerics import check_real, row_values


class ZeroPenalty:
    """The trivial penalty h(x) = 0. Its prox is the identity."""

    kind = "zero"

    def value(self, x):
        return 0.0  # broadcasts over a stack of rows

    def prox(self, x, eta):
        """x itself when it is a float64 array, which every caller passes as a
        temporary it does not reuse; a float64 copy of anything else."""
        if eta <= 0:
            raise ValueError("prox step eta must be positive")
        return np.asarray(x, dtype=np.float64)

    def min_norm_subgradient(self, x, grad_f):
        x = np.asarray(x, dtype=np.float64)
        grad_f = np.asarray(grad_f, dtype=np.float64)
        if grad_f.shape != x.shape:
            raise ValueError("grad_f and x must have the same length")
        return np.zeros_like(x)


class L1Penalty:
    """Weighted L1 penalty h(x) = lam * sum_i |x_i|."""

    kind = "l1"

    def __init__(self, lam):
        self.lam = float(check_real("lam", lam, 0))

    def value(self, x):
        """lam * ||x||_1 per row: a float for one point, shape (...) for a stack."""
        return row_values(self.lam * np.abs(np.asarray(x, dtype=np.float64)).sum(axis=-1))

    def prox(self, x, eta):
        """Soft-thresholding at level eta * lam.

        Minimizer of h(x') + (1/(2 eta)) ||x' - x||^2, componentwise
        sign(x_i) * max(|x_i| - eta*lam, 0), with the sign copied from x_i:
        an entry of -0.0 maps to -0.0.
        """
        if eta <= 0:
            raise ValueError("prox step eta must be positive")
        return np.copysign(np.maximum(np.abs(x) - eta * self.lam, 0.0), x)

    def min_norm_subgradient(self, x, grad_f):
        """Subgradient g of h at x minimizing ||grad_f + g||.

        Where x_i != 0 the subdifferential is the point lam*sign(x_i);
        at x_i = 0 it is [-lam, lam] and the minimizer clamps -grad_f_i
        into that interval.
        """
        x = np.asarray(x, dtype=np.float64)
        grad_f = np.asarray(grad_f, dtype=np.float64)
        if grad_f.shape != x.shape:
            raise ValueError("grad_f and x must have the same length")
        # every entry clamped, then the nonzero ones replaced: cheaper than
        # masking, for one point or a stack of rows
        return np.where(x == 0.0, (-grad_f).clip(-self.lam, self.lam), self.lam * np.sign(x))


def make_regularizer(kind, lam=0.0):
    """Build a penalty from a (kind, weight) pair as found in config files."""
    if kind == "zero":
        return ZeroPenalty()
    if kind == "l1":
        return L1Penalty(lam)
    raise ValueError(f"unknown regularizer kind: {kind!r}")
