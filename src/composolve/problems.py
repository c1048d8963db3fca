"""Composition problems, their application embeddings, and data generators.

A composition problem exposes per-index evaluators for the inner maps
G_j : R^N -> R^M and the outer functions F_i : R^M -> R, with the
composite objective f(x) = (1/n1) sum_i F_i((1/n2) sum_j G_j(x)).
Evaluators come in batched form (an array of indices at one point) so
solvers stay vectorized; the per-index cost accounting in the oracle
module counts one query per index evaluated.

A subclass implements four evaluators: inner values, inner Jacobians,
outer values and outer gradients. Every other operation has a generic
default built from them, which a subclass may override with a closed form
(the shipped classes do):

- `inner_vjp_batch(js, x, u)`: the stacked J_j(x)^T u that the solvers use
  in place of dense Jacobians; only the lasso's identity map overrides it;
- `full_inner_value(x)`, `full_inner_jacobian(x)` and
  `mean_outer_gradient(y)`: the full-batch means of the three query kinds;
- `mean_inner_vjp(jac, v)`: jac^T v for whatever `full_inner_jacobian`
  returned;
- `variance_reduced_step(snap, a_idx, b_idx, i_idx, x)`: the gradient
  estimate of one variance-reduced step, whose generic default is the
  estimators of the solvers module; the portfolio, policy evaluation and
  linquad form its correction J_s^T (u - u_s) as one difference, and a
  finite sum as the one `comp_gradient_diff_mean` of Proximal SVRG's step,
  which the lasso gives in closed form;
- `tracking_step(js, is_, x, y, beta)`: the inner-value average and the
  gradient estimate of one two-timescale step, at one index each;
- `objective_and_gradient(x)`: f(x) and grad f(x) for trace rows, at one point
  or at a stack of them (a block of rows); its generic default is one full
  pass and the n1 outer values at its G(x), a row at a time. The closed forms
  of the shipped classes take a stack in one pass, each row bitwise the
  one-point value and the generic row.

The mean inner Jacobian is the data the class's `mean_inner_vjp` reads: the
dense matrix by default, and r_bar for (I; r_bar), P for (I; gamma P) and
Qbar in the shipped classes. A class declares its stored fields and the
names of their axes once, in `fields`: its constructor keeps read-only
copies checked against them, and `generate_problem` and the JSON form read
them too.

The full pass, and so the full gradient, the epoch snapshot and every
trace row, is built from these hooks. The Jacobian correction of a
variance-reduced step is not a hook: `solvers.estimate_gradient_vt` forms it
from `inner_vjp_batch` alone, and it is zero for the shipped classes, whose
inner maps are affine in x.
"""

import json
import math

import numpy as np

from .numerics import RngStream, check_int, check_real, read_only, row_values

# Bounds memory of the generic batched Jacobian average at large scale.
_JACOBIAN_CHUNK = 64


def nonempty(indices):
    if len(indices) == 0:
        raise ValueError("index set must be nonempty")
    return indices


def paired_diff_mean(batch, js, x_tilde, x):
    """mean_j (batch(j, x_tilde) - batch(j, x)) over js, one axis-0 sum in index
    order: the snapshot correction of every variance-reduced estimate."""
    return (batch(js, x_tilde) - batch(js, x)).sum(axis=0) / len(js)


class CompositionProblem:
    """Base class for finite-sum composition problems.

    Subclasses set n1, n2, dim_x, dim_y and implement the four batched
    evaluators. All evaluators are pure functions of their arguments;
    instances are immutable after construction.
    """

    n1 = None
    n2 = None
    dim_x = None
    dim_y = None

    # Stored field -> the names of its axes, in constructor order; a scalar
    # field has none.
    fields = {}

    @classmethod
    def _check_fields(cls, *values):
        """(read-only float64 copies of values, {axis name: size}) for the
        array fields of `fields`, in order. A value that is no array of
        numbers, or a copy with the wrong number of axes, an axis below 1 or
        unlike the same-named axis before it, or a non-finite entry raises a
        ValueError that names the field."""
        arrays, dims = [], {}
        for (name, axes), value in zip([(f, a) for f, a in cls.fields.items() if a], values,
                                       strict=True):
            try:
                a = read_only(np.array(value, dtype=np.float64))
            except (TypeError, ValueError) as err:
                raise ValueError(f"{name} must be an array of numbers: {err}") from None
            if a.ndim != len(axes):
                raise ValueError(f"{name} has shape {a.shape}: its axes must be "
                                 f"({', '.join(axes)})")
            for axis, size in zip(axes, a.shape):
                if size < 1:
                    raise ValueError(f"{name} has shape {a.shape}: axis {axis} must be >= 1")
                if dims.setdefault(axis, size) != size:
                    raise ValueError(f"{name} has shape {a.shape}: axis {axis} must be "
                                     f"{dims[axis]}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite entries")
            arrays.append(a)
        return arrays, dims

    # -- per-index evaluators -------------------------------------------------

    def inner_value_batch(self, js, x):
        """Stacked G_j(x) for each j in js, shape (len(js), M)."""
        raise NotImplementedError

    def inner_jacobian_batch(self, js, x):
        """Stacked Jacobians of G_j at x, shape (len(js), M, N)."""
        raise NotImplementedError

    def inner_vjp_batch(self, js, x, u):
        """Stacked J_j(x)^T u for each j in js, shape (len(js), N).

        Generic default from the dense Jacobians; one inner-Jacobian query
        per index, like `inner_jacobian_batch`.
        """
        return u @ self.inner_jacobian_batch(js, x)

    def outer_value_batch(self, is_, y):
        """F_i(y) for each i in is_, shape (len(is_),)."""
        raise NotImplementedError

    def outer_gradient_batch(self, is_, y):
        """Stacked gradients of F_i at y, shape (len(is_), M)."""
        raise NotImplementedError

    # -- full-batch quantities ------------------------------------------------

    def _check_x(self, x, stack=False):
        """x as float64 of shape (N,), or with stack of shape (..., N)."""
        x = np.asarray(x, dtype=np.float64)
        if (x.shape[-1:] if stack else x.shape) != (self.dim_x,):
            raise ValueError(f"x must have length {self.dim_x}, got shape {x.shape}")
        return x

    def full_inner_value(self, x):
        """G(x) = (1/n2) sum_j G_j(x); costs n2 inner-value queries."""
        x = self._check_x(x)
        vals = self.inner_value_batch(np.arange(self.n2), x)
        return vals.mean(axis=0)

    def full_inner_jacobian(self, x):
        """Mean inner Jacobian at x, in the form `mean_inner_vjp` takes: the
        dense (M, N) matrix here, or a class's read-only operator data; costs
        n2 inner-Jacobian queries."""
        x = self._check_x(x)
        total = np.zeros((self.dim_y, self.dim_x))
        for start in range(0, self.n2, _JACOBIAN_CHUNK):
            js = np.arange(start, min(start + _JACOBIAN_CHUNK, self.n2))
            total += self.inner_jacobian_batch(js, x).sum(axis=0)
        return total / self.n2

    def mean_outer_gradient(self, y):
        """(1/n1) sum_i grad F_i(y); costs n1 outer-gradient queries."""
        return self.outer_gradient_batch(np.arange(self.n1), y).mean(axis=0)

    def mean_inner_vjp(self, jac, v):
        """jac^T v for the mean inner Jacobian jac from `full_inner_jacobian`;
        no queries."""
        return jac.T @ v

    # -- one step of each stochastic solver -------------------------------------

    def variance_reduced_step(self, snap, a_idx, b_idx, i_idx, x):
        """v_t of one variance-reduced step at x from the epoch snapshot snap:
        `solvers.estimate_gradient_vt` over B and I at `estimate_inner_value`
        over A; 2 queries of each kind per index of A, B and I."""
        from . import solvers

        g_hat = solvers.estimate_inner_value(snap, self, x, a_idx)
        return solvers.estimate_gradient_vt(snap, self, x, g_hat, b_idx, i_idx)

    def tracking_step(self, js, is_, x, y, beta):
        """(y_new, v) with y_new = (1 - beta) y + beta G_j(x) and
        v = J_j(x)^T grad F_i(y_new), for js and is_ of one index each; one
        query of each kind."""
        y = (1.0 - beta) * y + beta * self.inner_value_batch(js, x)[0]
        return y, self.inner_vjp_batch(js, x, self.outer_gradient_batch(is_, y)[0])[0]

    def full_pass(self, x):
        """(G(x), mean inner Jacobian, grad f(x)); costs n2 + n2 + n1 queries.

        The chain rule grad f(x) = J(x)^T (1/n1) sum_i grad F_i(G(x)).
        """
        g_bar = self.full_inner_value(x)
        jac = self.full_inner_jacobian(x)
        return g_bar, jac, self.mean_inner_vjp(jac, self.mean_outer_gradient(g_bar))

    def full_gradient(self, x):
        """Chain-rule gradient of f at x; costs n2 + n2 + n1 queries."""
        return self.full_pass(x)[2]

    def _outer_mean(self, g_bar):
        return float(self.outer_value_batch(np.arange(self.n1), g_bar).mean())

    def objective_f(self, x):
        """f(x) = (1/n1) sum_i F_i(G(x)). Outer values are not oracle queries."""
        return self._outer_mean(self.full_inner_value(x))

    def objective_and_gradient(self, x):
        """(f(x), grad f(x)) from one full pass: the outer values at its G(x).

        For a stack x of shape (..., N), f has shape (...) and grad f shape
        (..., N): here one full pass per row, and in one pass in a class's
        closed form, which must take a stack too.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 1:
            rows = [CompositionProblem.objective_and_gradient(self, row)
                    for row in x.reshape(-1, x.shape[-1])]
            return (np.reshape([f for f, _ in rows], x.shape[:-1]),
                    np.reshape([g for _, g in rows], x.shape))
        g_bar, _, grad = self.full_pass(x)
        return self._outer_mean(g_bar), grad


class PortfolioProblem(CompositionProblem):
    """Mean-variance portfolio objective as a two-level composition.

    With per-period rewards r_1..r_n the objective is
        -(1/n) sum_t <r_t, x> + (1/n) sum_t (<r_t, x> - (1/n) sum_j <r_j, x>)^2.
    The inner map augments the decision vector with one return:
    G_j(x) = (x, <r_j, x>) in R^{N+1}, and the outer function
    F_i(w, z) = -<r_i, w> + (<r_i, w> - z)^2 depends only on the inner
    output, so the uniform double average reproduces the objective.
    """

    kind = "portfolio"
    fields = {"rewards": ("n", "N")}

    def __init__(self, rewards):
        (rewards,), dims = self._check_fields(rewards)
        if not np.all(rewards > 0):
            raise ValueError("all rewards must be strictly positive")
        self.rewards = rewards
        self.n1 = self.n2 = dims["n"]
        self.dim_x = dims["N"]
        self.dim_y = self.dim_x + 1
        self.r_bar = read_only(rewards.mean(axis=0))

    # The evaluators gather reward rows with take, a third of the cost of
    # fancy indexing on one- to five-index batches. No solver step calls
    # them: both of the class's steps are closed forms.
    def inner_value_batch(self, js, x):
        out = np.empty((len(js), self.dim_y))
        out[:, : self.dim_x] = x
        out[:, self.dim_x] = self.rewards.take(js, axis=0) @ x
        return out

    def inner_jacobian_batch(self, js, x):
        out = np.zeros((len(js), self.dim_y, self.dim_x))
        out[:, np.arange(self.dim_x), np.arange(self.dim_x)] = 1.0
        out[:, self.dim_x, :] = self.rewards.take(js, axis=0)
        return out

    def outer_value_batch(self, is_, y):
        w = y[: self.dim_x]
        z = y[self.dim_x]
        d = self.rewards.take(is_, axis=0) @ w
        return -d + (d - z) ** 2

    def outer_gradient_batch(self, is_, y):
        w = y[: self.dim_x]
        z = y[self.dim_x]
        r = self.rewards.take(is_, axis=0)
        d = r @ w
        t = 2.0 * (d - z)
        out = np.empty((len(is_), self.dim_y))
        out[:, : self.dim_x] = (t - 1.0)[:, None] * r
        out[:, self.dim_x] = -t
        return out

    # Each full-batch mean is one product with the rewards or their mean r_bar.
    def full_inner_value(self, x):
        x = self._check_x(x)
        out = np.empty(self.dim_y)
        out[: self.dim_x] = x
        out[self.dim_x] = self.r_bar @ x
        return out

    def full_inner_jacobian(self, x):
        self._check_x(x)
        return self.r_bar

    def mean_outer_gradient(self, y):
        t = 2.0 * (self.rewards @ y[: self.dim_x] - y[self.dim_x])
        return np.append((t - 1.0) @ self.rewards / self.n1, -t.mean())

    def mean_inner_vjp(self, jac, v):
        return v[: self.dim_x] + v[self.dim_x] * jac

    def variance_reduced_step(self, snap, a_idx, b_idx, i_idx, x):
        # u - u_s as one difference: g_hat - G_s = -(d, delta) with d = x_tilde - x
        # and delta = mean_A <r_a, d>, and grad F_i is affine in y, so t_i moves
        # by dt_i = -2 (<r_i, d> - delta) and J_s^T (u - u_s) is
        # (dt / k)^T R_I - (sum dt / k) r_bar = (dt / k)^T (R_I - r_bar). The k
        # rows R_I are read once, no (k, N+1) stack is built, ndarray.dot and
        # math.fsum cost less than @ and ndarray.sum here, and the zero
        # Jacobian correction is not formed
        nonempty(b_idx)
        d = snap.x_tilde - x
        r = self.rewards.take(i_idx, axis=0)
        dt = r.dot(d)
        dt -= math.fsum(self.rewards.take(nonempty(a_idx), axis=0).dot(d)) / len(a_idx)
        dt *= -2.0 / len(nonempty(i_idx))
        return dt.dot(r - snap.J_s) + snap.grad_f_s

    def tracking_step(self, js, is_, x, y, beta):
        # y_new = (1 - beta) y + beta (x, r_j.x), and v = (t - 1) r_i - t r_j
        # with t = 2 (r_i.w - z) at y_new = (w, z), from the rows r_j and r_i
        # read in place, with no (1, N+1) stack. w is updated through one
        # view, and z, r_j.x and r_i.w are carried as Python floats: the same
        # operations in the same order as on numpy scalars, for less per call
        n = self.dim_x
        r_j, r_i = self.rewards[js[0]], self.rewards[is_[0]]
        y = (1.0 - beta) * y
        w = y[:n]
        w += beta * x
        z = float(y[n]) + beta * float(r_j.dot(x))
        y[n] = z
        t = 2.0 * (float(r_i.dot(w)) - z)
        return y, (t - 1.0) * r_i + (-t) * r_j

    def objective_and_gradient(self, x):
        # d = R w is formed once, for the outer values and for the mean outer
        # gradient; the generic row's element operations, so bitwise equal.
        # Each matmul over a stack makes one product per row, bitwise that
        # row's r_bar @ x, R @ x and (t - 1) @ R
        x = self._check_x(x, stack=True)
        z = np.matmul(x[..., None, :], self.r_bar[:, None])[..., 0]
        d = np.matmul(self.rewards, x[..., None])[..., 0]
        t = 2.0 * (d - z)
        # each mean over the n rewards is the sum that mean takes, divided by n
        grad = (np.matmul((t - 1.0)[..., None, :], self.rewards)[..., 0, :] / self.n1
                + (-(t.sum(axis=-1) / self.n1))[..., None] * self.r_bar)
        return row_values((-d + (d - z) ** 2).sum(axis=-1) / self.n1), grad

    def direct_objective(self, x):
        """Mean-variance objective evaluated without the composition."""
        d = self.rewards @ x
        return float(-d.mean() + ((d - d.mean()) ** 2).mean())


class PolicyEvalProblem(CompositionProblem):
    """Tabular policy evaluation as a composition of Bellman residuals.

    The decision variable is the value table V in R^S. The inner index j
    ranges over next states: G_j(V) = (V, b_j(V)) in R^{2S} with
    b_j(V)_s = S * P[s,j] * (R[s,j] + gamma * V[j]), so the uniform
    average over j gives (V, T(V)) with T the Bellman operator. The outer
    F_i(w, t) = (w_i - t_i)^2 makes f the mean squared Bellman residual.
    """

    kind = "policy_eval"
    fields = {"transition": ("S", "S"), "reward": ("S", "S"), "gamma": ()}

    def __init__(self, transition, reward, gamma):
        (transition, reward), dims = self._check_fields(transition, reward)
        s = dims["S"]
        check_real("gamma", gamma, 0, 1, open_low=True, open_high=True)
        row_sums = transition.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > 1e-9:
            raise ValueError("transition rows must sum to 1 within 1e-9")
        self.transition = transition
        self.gamma = float(gamma)
        self.n_states = s
        self.n1 = self.n2 = s
        self.dim_x = s
        self.dim_y = 2 * s
        # expected one-step reward per state
        self.r_bar = read_only((transition * reward).sum(axis=1))
        # G_j reads column j of S P and of R, kept as rows of S P^T and R^T;
        # row j of S P^T is bitwise s * P[:, j]
        self._spt = read_only(np.multiply(s, transition.T, out=np.empty((s, s))))
        self._rt = read_only(np.ascontiguousarray(reward.T))

    @property
    def reward(self):
        """R, a read-only view of the transposed copy the evaluators read."""
        return self._rt.T

    def inner_value_batch(self, js, x):
        s = self.n_states
        out = np.empty((len(js), 2 * s))
        out[:, :s] = x
        out[:, s:] = (self._spt.take(js, axis=0)
                      * (self._rt.take(js, axis=0) + self.gamma * x[js][:, None]))
        return out

    def inner_jacobian_batch(self, js, x):
        s = self.n_states
        out = np.zeros((len(js), 2 * s, s))
        out[:, np.arange(s), np.arange(s)] = 1.0
        out[np.arange(len(js)), s:, js] = self.gamma * s * self.transition.take(js, axis=1).T
        return out

    def outer_value_batch(self, is_, y):
        s = self.n_states
        r = y[is_] - y[s + is_]
        return r * r

    def outer_gradient_batch(self, is_, y):
        s = self.n_states
        r = y[is_] - y[s + is_]
        out = np.zeros((len(is_), 2 * s))
        rows = np.arange(len(is_))
        out[rows, is_] = 2.0 * r
        out[rows, s + is_] = -2.0 * r
        return out

    def variance_reduced_step(self, snap, a_idx, b_idx, i_idx, x):
        # u - u_s as one difference: G_j(x_tilde) - G_j(x) = (d, gamma S d_j P[:, j])
        # with d = x_tilde - x (R cancels), and grad F_i is affine in y, so u - u_s
        # is (a, -a) with a the sum over I of w_i = 2 (e_i - d_i) / k at i, where
        # e_i = (gamma S / |A|) sum_a d_a P[i, a] is a product with the A x I
        # block of P^T, copied in its C layout (a transposed view would round
        # differently). Then J_s^T (u - u_s) = a - gamma P^T a, and
        # P^T a = w^T P_I from the I rows of P. As in the portfolio's step, the
        # zero Jacobian correction is not formed
        nonempty(b_idx)
        s = self.n_states
        d = snap.x_tilde - x
        block = np.ascontiguousarray(self.transition.take(i_idx, 0).take(a_idx, 1).T)
        e = (self.gamma * s / len(nonempty(a_idx))) * d[a_idx].dot(block)
        w = (e - d[i_idx]) * (2.0 / len(nonempty(i_idx)))
        return (np.bincount(i_idx, w, minlength=s)
                - self.gamma * w.dot(snap.J_s.take(i_idx, axis=0)) + snap.grad_f_s)

    def tracking_step(self, js, is_, x, y, beta):
        # y_new = (1 - beta) y + beta (x, S P[:, j] (R[:, j] + gamma x_j)), and
        # v = J_j^T grad F_i(y_new) has two nonzeros: g = 2 (w_i - t_i) at i,
        # plus (gamma S P[i, j]) (-g) at j, rounded as the dense default rounds
        # it, bitwise where j != i (added to g where j = i); from the rows of
        # S P^T and R^T and the entry P[i, j] read in place, with no (1, 2S)
        # stack, at int indices, which numpy reads faster than its own integers
        s = self.n_states
        j, i = int(js[0]), int(is_[0])
        y = (1.0 - beta) * y
        y[:s] += beta * x
        y[s:] += beta * (self._spt[j] * (self._rt[j] + self.gamma * x[j]))
        g = 2.0 * (y[i] - y[s + i])
        v = np.zeros(s)
        v[i] = g
        v[j] += (self.gamma * s * self.transition[i, j]) * -g
        return y, v

    def full_inner_value(self, x):
        x = self._check_x(x)
        return np.concatenate([x, self.bellman_operator(x)])

    def full_inner_jacobian(self, x):
        self._check_x(x)
        return self.transition

    def mean_outer_gradient(self, y):
        s = self.n_states
        r = 2.0 * (y[:s] - y[s:]) / s
        return np.concatenate([r, -r])

    def mean_inner_vjp(self, jac, v):
        # jac is P, and (I; gamma P)^T v = v[:S] + gamma P^T v[S:]
        s = self.n_states
        return v[:s] + self.gamma * (v[s:] @ jac)

    def objective_and_gradient(self, x):
        # the residual x - T(x) once, for the outer values (w_i - t_i)^2 and for
        # the mean outer gradient r = 2 (x - T(x)) / S, whose product with the
        # mean Jacobian (I; gamma P) is r + gamma (-r)^T P: the generic row's
        # element operations, so bitwise equal. Each matmul over a stack makes
        # one product per row, bitwise that row's P @ x and (-r) @ P
        x = self._check_x(x, stack=True)
        res = x - (self.r_bar + self.gamma * np.matmul(self.transition, x[..., None])[..., 0])
        r = 2.0 * res / self.n_states
        grad = r + self.gamma * np.matmul((-r)[..., None, :], self.transition)[..., 0, :]
        return row_values((res * res).mean(axis=-1)), grad

    def bellman_operator(self, x):
        return self.r_bar + self.gamma * (self.transition @ x)

    def direct_objective(self, x):
        """Mean squared Bellman residual evaluated without the composition."""
        res = x - self.bellman_operator(x)
        return float((res * res).mean())

    def exact_value_function(self):
        """V = (I - gamma P)^{-1} r_bar, the zero-residual point."""
        a = np.eye(self.n_states) - self.gamma * self.transition
        return np.linalg.solve(a, self.r_bar)


class LinQuadProblem(CompositionProblem):
    """Affine inner maps with quadratic outer losses; closed-form optimum.

    G_j(x) = Q_j x + c_j and F_i(y) = 0.5 ||y - b_i||^2, so the composite
    f is the quadratic 0.5 mean_i ||Qbar x + cbar - b_i||^2 with Hessian
    Qbar^T Qbar.
    """

    kind = "linquad"
    fields = {"q_mats": ("n2", "M", "N"), "c_vecs": ("n2", "M"), "b_vecs": ("n1", "M")}

    def __init__(self, q_mats, c_vecs, b_vecs):
        (q_mats, c_vecs, b_vecs), dims = self._check_fields(q_mats, c_vecs, b_vecs)
        self.q_mats = q_mats
        self.c_vecs = c_vecs
        self.b_vecs = b_vecs
        self.n1, self.n2, self.dim_y, self.dim_x = (dims[a] for a in ("n1", "n2", "M", "N"))
        self.q_bar = read_only(q_mats.mean(axis=0))
        self.c_bar = read_only(c_vecs.mean(axis=0))
        self.b_bar = read_only(b_vecs.mean(axis=0))

    def inner_value_batch(self, js, x):
        return self.q_mats[js] @ x + self.c_vecs[js]

    def inner_jacobian_batch(self, js, x):
        return self.q_mats[js]

    def outer_value_batch(self, is_, y):
        d = y - self.b_vecs[is_]
        return 0.5 * (d * d).sum(axis=1)

    def outer_gradient_batch(self, is_, y):
        return y - self.b_vecs[is_]

    def full_inner_value(self, x):
        return self.q_bar @ self._check_x(x) + self.c_bar

    def full_inner_jacobian(self, x):
        self._check_x(x)
        return self.q_bar

    def mean_outer_gradient(self, y):
        return y - self.b_bar

    def variance_reduced_step(self, snap, a_idx, b_idx, i_idx, x):
        # u - u_s as one difference: the c_j cancel in G_a(x_tilde) - G_a(x), so
        # g_hat - G_s = -delta with delta = mean_A Q_a d and d = x_tilde - x, and
        # grad F_i(y) = y - b_i has identity Hessian, so u - u_s = -delta and
        # J_s^T (u - u_s) = -Qbar^T delta. The |A| matrices are read with one
        # take; as in the portfolio's step, the zero Jacobian correction is not
        # formed
        nonempty(b_idx)
        nonempty(i_idx)
        d = snap.x_tilde - x
        delta = (self.q_mats.take(nonempty(a_idx), axis=0) @ d).sum(axis=0) / len(a_idx)
        return snap.grad_f_s - delta.dot(snap.J_s)

    def _outer_mean(self, g_bar):
        # the generic outer values with b_i broadcast, not gathered by index:
        # the same element operations, so bitwise equal; row by row for a
        # stack of G(x), each row reduced along its own contiguous axis
        r = g_bar[..., None, :] - self.b_vecs
        return row_values((0.5 * (r * r).sum(axis=-1)).mean(axis=-1))

    def objective_and_gradient(self, x):
        # one G(x), for the outer values and for Qbar^T (G(x) - b_bar): the
        # generic row's operations without its second check of x. Each matmul
        # over a stack makes one product per row, bitwise that row's Qbar @ x
        # and Qbar^T v
        x = self._check_x(x, stack=True)
        g_bar = np.matmul(self.q_bar, x[..., None])[..., 0] + self.c_bar
        grad = np.matmul((g_bar - self.b_bar)[..., None, :], self.q_bar)[..., 0, :]
        return self._outer_mean(g_bar), grad

    def hessian(self):
        return self.q_bar.T @ self.q_bar

    def unregularized_optimum(self):
        rhs = self.q_bar.T @ (self.b_bar - self.c_bar)
        return np.linalg.solve(self.hessian(), rhs)

    def constants(self, radius=10.0):
        """Smoothness/convexity constants, with gradient bounds over a ball.

        The outer gradients are unbounded globally; B_F and B_G are taken
        over ||x|| <= radius, which is where test iterates live.
        """
        from .solvers import ProblemConstants

        hess = self.hessian()
        eigs = np.linalg.eigvalsh(hess)
        mu = float(eigs[0])
        q_norms = np.array([np.linalg.norm(q, 2) for q in self.q_mats])
        qbar_norm = np.linalg.norm(self.q_bar, 2)
        l_f = float(max(q_norms.max() * qbar_norm, eigs[-1]))
        b_g = float(q_norms.max())
        shift = np.linalg.norm(self.c_bar[None, :] - self.b_vecs, axis=1).max()
        b_f = float(qbar_norm * radius + shift)
        return ProblemConstants(
            mu=mu, L_f=l_f, L_F=1.0, L_G=1e-12, B_F=b_f, B_G=b_g
        )


class FiniteSumProblem(CompositionProblem):
    """Plain finite sum min (1/n) sum_i f_i(x): the composition whose one inner
    map is the identity (n1 = n, n2 = 1, dim_y = dim_x), so that the mean
    inner Jacobian needs no data and J^T u is u, and whose outer functions are
    the f_i. A subclass calls __init__(n, dim_x) and implements the component
    evaluators f_i(x) and grad f_i(x), batched like the outer ones, for
    Proximal SVRG. The correction of a variance-reduced step, in `prox_svrg`
    and `vrsc_pg` alike, is one `comp_gradient_diff_mean` call, which a
    subclass may give in closed form.
    """

    def __init__(self, n, dim_x):
        self.n = self.n1 = n
        self.n2 = 1
        self.dim_x = self.dim_y = dim_x

    def comp_value_batch(self, is_, x):
        raise NotImplementedError

    def comp_gradient_batch(self, is_, x):
        raise NotImplementedError

    def inner_value_batch(self, js, x):
        return np.tile(x, (len(js), 1))

    def inner_jacobian_batch(self, js, x):
        return np.tile(np.eye(self.dim_x), (len(js), 1, 1))

    def inner_vjp_batch(self, js, x, u):
        # u once per index, with no (k, N, N) identity stack; the paired
        # difference of two such stacks, the Jacobian correction, is exactly zero
        return np.tile(u, (len(js), 1))

    def outer_value_batch(self, is_, y):
        return self.comp_value_batch(is_, y)

    def outer_gradient_batch(self, is_, y):
        return self.comp_gradient_batch(is_, y)

    def full_inner_jacobian(self, x):
        self._check_x(x)
        return None

    def mean_inner_vjp(self, jac, v):
        return v

    def comp_gradient_diff_mean(self, is_, x_tilde, x):
        """mean_i (grad f_i(x_tilde) - grad f_i(x)) over is_, the correction of
        one variance-reduced step; 2 outer-gradient queries per index."""
        return paired_diff_mean(self.comp_gradient_batch, nonempty(is_), x_tilde, x)

    def variance_reduced_step(self, snap, a_idx, b_idx, i_idx, x):
        # g_hat = x for the identity map, so u - u_s is the mean over I of
        # grad f_i(x) - grad f_i(x_tilde), and the step is the generic
        # estimator in exact arithmetic: Proximal SVRG's correction, one hook
        # call, where the default subtracts the two full means u and u_s. The
        # zero Jacobian correction is not formed
        nonempty(a_idx)
        nonempty(b_idx)
        return snap.grad_f_s - self.comp_gradient_diff_mean(i_idx, snap.x_tilde, x)


class LassoProblem(FiniteSumProblem):
    """Least-squares components f_i(x) = 0.5 (<a_i, x> - y_i)^2."""

    kind = "lasso"
    fields = {"design": ("n", "N"), "targets": ("n",)}

    def __init__(self, design, targets):
        (design, targets), dims = self._check_fields(design, targets)
        super().__init__(dims["n"], dims["N"])
        self.design = design
        self.targets = targets

    def comp_value_batch(self, is_, x):
        r = self.design[is_] @ x - self.targets[is_]
        return 0.5 * r * r

    def comp_gradient_batch(self, is_, x):
        r = self.design[is_] @ x - self.targets[is_]
        return r[:, None] * self.design[is_]

    def comp_gradient_diff_mean(self, is_, x_tilde, x):
        # grad f_i(x_tilde) - grad f_i(x) = a_i <a_i, d> with d = x_tilde - x:
        # the targets cancel, the k rows are gathered once, and no (k, N)
        # gradient stack is built
        a = self.design.take(nonempty(is_), axis=0)
        return a.dot(x_tilde - x).dot(a) / len(is_)

    def mean_outer_gradient(self, y):
        return self.design.T @ (self.design @ self._check_x(y) - self.targets) / self.n

    def objective_and_gradient(self, x):
        # G(x) = x, so no full pass: Ax - y once, for f(x) and A^T (Ax - y) / n.
        # Each matmul over a stack makes one product per row, bitwise that
        # row's A @ x and A^T r
        x = self._check_x(x, stack=True)
        r = np.matmul(self.design, x[..., None])[..., 0] - self.targets
        return (row_values((0.5 * r * r).mean(axis=-1)),
                np.matmul(r[..., None, :], self.design)[..., 0, :] / self.n)

    def least_squares_solution(self):
        sol, *_ = np.linalg.lstsq(self.design, self.targets, rcond=None)
        return sol


# -- synthetic data generators (experiment pipelines) -------------------------


def gen_gaussian_rewards(n, dim, kappa_cov, rng):
    """Per-period asset rewards from a conditioned Gaussian, made positive.

    Builds a covariance C = Q diag(lam) Q^T with Q random orthogonal and
    eigenvalues geometrically spaced from 1 to kappa_cov, draws n samples
    from N(mean=1, C), and takes absolute values so every reward is
    strictly positive.
    """
    check_real("kappa_cov", kappa_cov, 1)
    eigenvalues = np.geomspace(1.0, float(kappa_cov), dim)
    raw = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))  # canonical sign, keeps output seed-stable
    cov = (q * eigenvalues) @ q.T
    chol = np.linalg.cholesky(cov)
    samples = 1.0 + rng.normal(size=(n, dim)) @ chol.T
    rewards = np.abs(samples)
    rewards[rewards == 0.0] = 1e-12
    return rewards


def gen_mdp(n_states, num_actions, rng):
    """Random ergodic MDP under the uniform policy.

    Per action, raw transitions are uniform [0,1] shifted by 1e-5 and
    row-normalized; the returned P averages the per-action matrices.
    Rewards r(s, s') are uniform [0, 1].
    """
    check_int("n_states", n_states, 2)
    check_int("num_actions", num_actions)
    p = np.zeros((n_states, n_states))
    for _ in range(num_actions):
        raw = rng.uniform(size=(n_states, n_states)) + 1e-5
        p += raw / raw.sum(axis=1, keepdims=True)
    p /= num_actions
    reward = rng.uniform(size=(n_states, n_states))
    return p, reward


def gen_linquad(n1, n2, dim_y, dim_x, rng, spread=0.3):
    """Random affine-quadratic composition with a well-conditioned mean map.

    The base matrix has singular values in [1, 2]; per-index matrices add
    a small Gaussian perturbation so the inner-sampling noise is nonzero.
    Requires dim_y >= dim_x so the composite stays strongly convex.
    """
    check_real("spread", spread, 0)
    if dim_y < dim_x:
        raise ValueError("dim_y must be >= dim_x for a strongly convex composite")
    base = rng.normal(size=(dim_y, dim_x))
    u, s, vt = np.linalg.svd(base, full_matrices=False)
    s_scaled = 1.0 + (s - s.min()) / max(s.max() - s.min(), 1e-12)
    q0 = (u * s_scaled) @ vt
    q_mats = q0[None, :, :] + spread * rng.normal(size=(n2, dim_y, dim_x)) / np.sqrt(
        dim_y * dim_x
    )
    c_vecs = 0.1 * rng.normal(size=(n2, dim_y))
    b_vecs = rng.normal(size=(n1, dim_y))
    return LinQuadProblem(q_mats, c_vecs, b_vecs)


def gen_lasso(n, dim, rng, sparsity=0.2, noise=0.01):
    """Random lasso instance with a sparse planted solution."""
    check_real("sparsity", sparsity, 0, 1)
    check_real("noise", noise, 0)
    design = rng.normal(size=(n, dim)) / np.sqrt(dim)
    x_true = rng.normal(size=dim)
    mask = rng.uniform(size=dim) < sparsity
    x_true[~mask] = 0.0
    targets = design @ x_true + noise * rng.normal(size=n)
    return LassoProblem(design, targets)


# -- problem kinds: generation from a config spec and flat JSON ---------------

# Problem kind -> (class, generator from a config spec and a stream); the
# class's `fields` name the dims of a spec and of a stored document.
_KINDS = {
    PortfolioProblem.kind: (
        PortfolioProblem,
        lambda spec, rng: PortfolioProblem(
            gen_gaussian_rewards(spec["n"], spec["N"], spec.get("kappa_cov", 2.0), rng)
        ),
    ),
    PolicyEvalProblem.kind: (
        PolicyEvalProblem,
        lambda spec, rng: PolicyEvalProblem(
            *gen_mdp(spec["S"], spec.get("num_actions", 10), rng),
            spec.get("gamma", 0.95),
        ),
    ),
    LinQuadProblem.kind: (
        LinQuadProblem,
        lambda spec, rng: gen_linquad(
            spec["n1"], spec["n2"], spec["M"], spec["N"], rng,
            spread=spec.get("spread", 0.3),
        ),
    ),
    LassoProblem.kind: (
        LassoProblem,
        lambda spec, rng: gen_lasso(
            spec["n"], spec["N"], rng,
            sparsity=spec.get("sparsity", 0.2), noise=spec.get("noise", 0.01),
        ),
    ),
}


def _kind(kind):
    if kind not in _KINDS:
        raise ValueError(f"unknown problem kind: {kind!r}")
    return _KINDS[kind]


def generate_problem(spec):
    """Generate the problem a config's problem block describes (seed 0 by default).

    Each dimension that names an axis of the kind's stored fields must be an
    integer >= 1; the generators check their own parameters.
    """
    cls, gen = _kind(spec.get("kind"))
    for axis in dict.fromkeys(a for axes in cls.fields.values() for a in axes):
        check_int(axis, spec.get(axis))
    return gen(spec, RngStream(spec.get("seed", 0)))


def problem_to_dict(prob):
    """Flat JSON-ready document: kind, dims, row-major data arrays."""
    kind = getattr(prob, "kind", None)
    if kind not in _KINDS or not isinstance(prob, _KINDS[kind][0]):
        raise TypeError(f"cannot serialize problem of type {type(prob).__name__}")
    doc = {"kind": kind, "dims": {}}
    for name, axes in prob.fields.items():
        value = getattr(prob, name)
        doc["dims"].update(zip(axes, np.shape(value)))
        doc[name] = value.ravel().tolist() if axes else value
    return doc


def problem_from_dict(doc):
    """The problem a `problem_to_dict` document describes; a missing or
    malformed kind, dim or field raises an error that names it. Here only the
    document's form is checked, and the constructor checks the arrays."""
    if not isinstance(doc, dict):
        raise TypeError(f"a stored problem must be a JSON object, got {type(doc).__name__}")
    cls, _ = _kind(doc.get("kind"))
    dims = doc.get("dims")
    if not isinstance(dims, dict):
        raise TypeError(f"dims must be an object, got {dims!r}")
    args = []
    for name, axes in cls.fields.items():
        if name not in doc:
            raise ValueError(f"stored {cls.kind} problem has no field {name!r}")
        shape = [check_int(f"dims.{d}", dims.get(d), 0) for d in axes]
        try:
            data = np.array(doc[name], dtype=np.float64) if axes else doc[name]
        except (TypeError, ValueError) as err:
            raise ValueError(f"{name} must be a flat list of numbers: {err}") from None
        if axes and data.ndim != 1:
            raise ValueError(f"{name} must be a flat list of numbers, got shape {data.shape}")
        if axes and data.size != np.prod(shape):
            raise ValueError(f"{name} must hold {' * '.join(axes)} = {np.prod(shape)} "
                             f"numbers, got {data.size}")
        args.append(data.reshape(shape) if axes else data)
    return cls(*args)


def save_problem(prob, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(problem_to_dict(prob), fh, sort_keys=True)
        fh.write("\n")


def load_problem(path):
    with open(path, encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))
