"""An exact reference for the closed forms of the shipped problem classes.

`ExactProblem(prob)` evaluates the definitions in the docstring of prob's
class in `fractions.Fraction` arithmetic on the float data of its stored
`fields`, so it rounds nowhere; float arguments are taken at their exact
values. `assert_accurate` holds a closed form to it.
"""

import math
from fractions import Fraction
from functools import cache

import numpy as np

# A closed form's worst error relative to the exact value's largest entry may
# reach BOUND, and exceed the generic default's by ROUNDOFF where both sum the
# same terms in another order, so that either may round a unit closer
BOUND, ROUNDOFF = 1e-14, 2.0 ** -52


def exact(a):
    """a's float entries as exact fractions, in an object array of its shape."""
    return np.array([Fraction(v) for v in np.ravel(a)], dtype=object).reshape(np.shape(a))


def mean(terms):
    terms = list(terms)
    return sum(terms) / len(terms)


def _definitions(prob):
    """(G_j(x), J_j(x)^T u, F_i(y), grad F_i(y), J^T v) of prob's class on its
    float fields, each reading the rows or columns it needs as exact fractions.
    The shipped inner maps are affine, so the mean Jacobian J is one matrix:
    (I; r_bar), (I; gamma P), Qbar and the identity."""
    f = [getattr(prob, name) for name in prob.fields]
    if prob.kind == "portfolio":
        (rewards,) = f
        n, r_bar = rewards.shape[1], mean(exact(rewards))

        def value_and_grad(i, y):
            r = exact(rewards[i])
            t = 2 * (r @ y[:n] - y[n])
            return -(r @ y[:n]) + (t / 2) ** 2, np.append((t - 1) * r, -t)

        return (lambda j, x: np.append(x, exact(rewards[j]) @ x),
                lambda j, x, u: u[:n] + u[n] * exact(rewards[j]),
                lambda i, y: value_and_grad(i, y)[0], lambda i, y: value_and_grad(i, y)[1],
                lambda v: v[:n] + v[n] * r_bar)
    if prob.kind == "policy_eval":
        p, r, gamma = f
        s, gamma, p_all = len(p), Fraction(gamma), cache(lambda: exact(p))

        def vjp(j, x, u):
            out = u[:s].copy()
            out[j] += gamma * s * (exact(p[:, j]) @ u[s:])
            return out

        def grad(i, y):
            out = np.full(2 * s, Fraction(0), dtype=object)
            out[i], out[s + i] = 2 * (y[i] - y[s + i]), -2 * (y[i] - y[s + i])
            return out

        return (lambda j, x: np.append(x, s * exact(p[:, j]) * (exact(r[:, j]) + gamma * x[j])),
                vjp, lambda i, y: (y[i] - y[s + i]) ** 2, grad,
                lambda v: v[:s] + gamma * (v[s:] @ p_all()))
    if prob.kind == "linquad":
        q, c, b = f
        q_bar = mean(exact(q))
        return (lambda j, x: exact(q[j]) @ x + exact(c[j]), lambda j, x, u: u @ exact(q[j]),
                lambda i, y: (y - exact(b[i])) @ (y - exact(b[i])) / 2,
                lambda i, y: y - exact(b[i]), lambda v: v @ q_bar)
    # the lasso: the identity inner map, and the components f_i as the outer functions
    a, targets = f

    def residual(i, y):
        return exact(a[i]) @ y - Fraction(targets[i])

    return (lambda j, x: x, lambda j, x, u: u, lambda i, y: residual(i, y) ** 2 / 2,
            lambda i, y: residual(i, y) * exact(a[i]), lambda v: v)


class ExactProblem:
    """prob's per-index evaluators and mean Jacobian product in exact
    arithmetic, and the means and solver steps built from them."""

    def __init__(self, prob):
        self.n1, self.n2 = prob.n1, prob.n2
        self.inner, self.vjp, self.value, self.grad, self._mean_vjp = _definitions(prob)

    def mean_jacobian_product(self, v):
        return self._mean_vjp(exact(v))

    def full_inner_value(self, x):
        return mean(self.inner(j, exact(x)) for j in range(self.n2))

    def mean_outer_gradient(self, y):
        return mean(self.grad(i, exact(y)) for i in range(self.n1))

    def objective_and_gradient(self, x):
        g = self.full_inner_value(x)
        return (mean(self.value(i, g) for i in range(self.n1)),
                self._mean_vjp(self.mean_outer_gradient(g)))

    def tracking_step(self, js, is_, x, y, beta):
        """(y_new, J_j(x)^T grad F_i(y_new)) with y_new = (1 - beta) y + beta G_j(x)."""
        y_new = (1 - Fraction(beta)) * exact(y) + Fraction(beta) * self.inner(js[0], exact(x))
        return y_new, self.tracking_gradient(js, is_, x, y_new)

    def tracking_gradient(self, js, is_, x, y_new):
        """A tracking step's v, J_j(x)^T grad F_i(y_new), at any given y_new."""
        return self.vjp(js[0], exact(x), self.grad(is_[0], exact(y_new)))

    def variance_reduced_step(self, snap, a_idx, b_idx, i_idx, x):
        """J_s^T (u - u_s) - mean_B (J_b(x_tilde) - J_b(x))^T u + grad f(x_tilde),
        with u and u_s the mean outer gradients over I at
        g_hat = G_s - mean_A (G_a(x_tilde) - G_a(x)) and at G_s: the snapshot's
        G_s and grad f(x_tilde) as given, and J_s the exact mean Jacobian."""
        x_tilde, x, g_s = exact(snap.x_tilde), exact(x), exact(snap.G_s)
        g_hat = g_s - mean(self.inner(a, x_tilde) - self.inner(a, x) for a in a_idx)
        u, u_s = (mean(self.grad(i, y) for i in i_idx) for y in (g_hat, g_s))
        correction = mean(self.vjp(b, x_tilde, u) - self.vjp(b, x, u) for b in b_idx)
        return self._mean_vjp(u - u_s) - correction + exact(snap.grad_f_s)


def relative_error(got, want):
    """max |got - want| / max |want|, exactly; inf if the shapes differ or want alone is 0."""
    if np.shape(got) != np.shape(want):
        return math.inf
    pairs = list(zip(np.ravel(got), np.ravel(want)))
    err, scale = max(abs(Fraction(g) - w) for g, w in pairs), max(abs(w) for _, w in pairs)
    return float(err / scale) if scale else (0.0 if err == 0 else math.inf)


def note_error(worst, side, got, want):
    """Keep in worst[side] the largest relative error of got, part by part for a tuple."""
    pairs = zip(got, want, strict=True) if isinstance(want, tuple) else [(got, want)]
    worst[side] = max(worst.get(side, 0.0), *(relative_error(g, w) for g, w in pairs))


def assert_accurate(worst, label="", bound=BOUND, slack=ROUNDOFF):
    assert worst["closed"] <= min(bound, worst["generic"] + slack), (label, worst)
