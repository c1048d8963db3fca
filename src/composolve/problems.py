"""Composition problems, their application embeddings, and data generators.

A composition problem exposes per-index evaluators for the inner maps
G_j : R^N -> R^M and the outer functions F_i : R^M -> R, with the
composite objective f(x) = (1/n1) sum_i F_i((1/n2) sum_j G_j(x)).
Evaluators come in batched form (an array of indices at one point) so
solvers stay vectorized; the per-index cost accounting in the oracle
module counts one query per index evaluated.
"""

import json

import numpy as np

from .numerics import RngStream, as_matrix, as_vector

# Bounds memory of the generic batched Jacobian average at large scale.
_JACOBIAN_CHUNK = 64


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

    # -- per-index evaluators -------------------------------------------------

    def inner_value_batch(self, js, x):
        """Stacked G_j(x) for each j in js, shape (len(js), M)."""
        raise NotImplementedError

    def inner_jacobian_batch(self, js, x):
        """Stacked Jacobians of G_j at x, shape (len(js), M, N)."""
        raise NotImplementedError

    def outer_value_batch(self, is_, y):
        """F_i(y) for each i in is_, shape (len(is_),)."""
        raise NotImplementedError

    def outer_gradient_batch(self, is_, y):
        """Stacked gradients of F_i at y, shape (len(is_), M)."""
        raise NotImplementedError

    # -- full-batch quantities ------------------------------------------------

    def _check_x(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim_x,):
            raise ValueError(f"x must have length {self.dim_x}, got shape {x.shape}")
        return x

    def full_inner_value(self, x):
        """G(x) = (1/n2) sum_j G_j(x); costs n2 inner-value queries."""
        x = self._check_x(x)
        vals = self.inner_value_batch(np.arange(self.n2), x)
        return vals.mean(axis=0)

    def full_inner_jacobian(self, x):
        """Mean inner Jacobian at x; costs n2 inner-Jacobian queries."""
        x = self._check_x(x)
        total = np.zeros((self.dim_y, self.dim_x))
        for start in range(0, self.n2, _JACOBIAN_CHUNK):
            js = np.arange(start, min(start + _JACOBIAN_CHUNK, self.n2))
            total += self.inner_jacobian_batch(js, x).sum(axis=0)
        return total / self.n2

    def mean_outer_gradient(self, y):
        """(1/n1) sum_i grad F_i(y); costs n1 outer-gradient queries."""
        return self.outer_gradient_batch(np.arange(self.n1), y).mean(axis=0)

    def full_gradient(self, x):
        """Chain-rule gradient of f at x; costs n2 + n2 + n1 queries."""
        x = self._check_x(x)
        g_bar = self.full_inner_value(x)
        jac = self.full_inner_jacobian(x)
        return jac.T @ self.mean_outer_gradient(g_bar)

    def objective_f(self, x):
        """f(x) = (1/n1) sum_i F_i(G(x)). Outer values are not oracle queries."""
        x = self._check_x(x)
        g_bar = self.full_inner_value(x)
        return float(self.outer_value_batch(np.arange(self.n1), g_bar).mean())


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

    def __init__(self, rewards):
        rewards = as_matrix(rewards, "rewards")
        if not np.all(rewards > 0):
            raise ValueError("all rewards must be strictly positive")
        self.rewards = rewards
        n, dim = rewards.shape
        self.n1 = self.n2 = n
        self.dim_x = dim
        self.dim_y = dim + 1
        self._eye = np.eye(dim)

    def inner_value_batch(self, js, x):
        out = np.empty((len(js), self.dim_y))
        out[:, : self.dim_x] = x
        out[:, self.dim_x] = self.rewards[js] @ x
        return out

    def inner_jacobian_batch(self, js, x):
        out = np.zeros((len(js), self.dim_y, self.dim_x))
        out[:, : self.dim_x, :] = self._eye
        out[:, self.dim_x, :] = self.rewards[js]
        return out

    def outer_value_batch(self, is_, y):
        w = y[: self.dim_x]
        z = y[self.dim_x]
        d = self.rewards[is_] @ w
        return -d + (d - z) ** 2

    def outer_gradient_batch(self, is_, y):
        w = y[: self.dim_x]
        z = y[self.dim_x]
        d = self.rewards[is_] @ w
        t = 2.0 * (d - z)
        out = np.empty((len(is_), self.dim_y))
        out[:, : self.dim_x] = (t - 1.0)[:, None] * self.rewards[is_]
        out[:, self.dim_x] = -t
        return out

    # Inner maps are affine, so the mean Jacobian has a closed form.
    def full_inner_jacobian(self, x):
        self._check_x(x)
        return np.vstack([self._eye, self.rewards.mean(axis=0)])

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

    def __init__(self, transition, reward, gamma):
        transition = as_matrix(transition, "transition")
        s = transition.shape[0]
        reward = as_matrix(reward, "reward", rows=s, cols=s)
        if transition.shape[1] != s:
            raise ValueError("transition matrix must be square")
        if not (0.0 < gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        row_sums = transition.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > 1e-9:
            raise ValueError("transition rows must sum to 1 within 1e-9")
        self.transition = transition
        self.reward = reward
        self.gamma = float(gamma)
        self.n_states = s
        self.n1 = self.n2 = s
        self.dim_x = s
        self.dim_y = 2 * s
        self._eye = np.eye(s)
        # expected one-step reward per state
        self.r_bar = (transition * reward).sum(axis=1)

    def inner_value_batch(self, js, x):
        s = self.n_states
        out = np.empty((len(js), 2 * s))
        out[:, :s] = x
        out[:, s:] = (
            s * self.transition[:, js] * (self.reward[:, js] + self.gamma * x[js])
        ).T
        return out

    def inner_jacobian_batch(self, js, x):
        s = self.n_states
        out = np.zeros((len(js), 2 * s, s))
        out[:, :s, :] = self._eye
        out[np.arange(len(js)), s:, js] = self.gamma * s * self.transition[:, js].T
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

    def full_inner_jacobian(self, x):
        self._check_x(x)
        return np.vstack([self._eye, self.gamma * self.transition])

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

    def __init__(self, q_mats, c_vecs, b_vecs):
        q_mats = np.asarray(q_mats, dtype=np.float64)
        c_vecs = np.asarray(c_vecs, dtype=np.float64)
        b_vecs = np.asarray(b_vecs, dtype=np.float64)
        if q_mats.ndim != 3 or c_vecs.ndim != 2 or b_vecs.ndim != 2:
            raise ValueError("expected stacked Q (n2,M,N), c (n2,M), b (n1,M)")
        n2, dim_y, dim_x = q_mats.shape
        if c_vecs.shape != (n2, dim_y):
            raise ValueError("c_vecs shape must match (n2, M)")
        if b_vecs.shape[1] != dim_y:
            raise ValueError("b_vecs must have M columns")
        for arr in (q_mats, c_vecs, b_vecs):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite problem data")
        self.q_mats = q_mats
        self.c_vecs = c_vecs
        self.b_vecs = b_vecs
        self.n1 = b_vecs.shape[0]
        self.n2 = n2
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.q_bar = q_mats.mean(axis=0)
        self.c_bar = c_vecs.mean(axis=0)
        self.b_bar = b_vecs.mean(axis=0)

    def inner_value_batch(self, js, x):
        return self.q_mats[js] @ x + self.c_vecs[js]

    def inner_jacobian_batch(self, js, x):
        return self.q_mats[js]

    def outer_value_batch(self, is_, y):
        d = y - self.b_vecs[is_]
        return 0.5 * (d * d).sum(axis=1)

    def outer_gradient_batch(self, is_, y):
        return y - self.b_vecs[is_]

    def full_inner_jacobian(self, x):
        self._check_x(x)
        return self.q_bar.copy()

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


class FiniteSumProblem:
    """Plain finite-sum problem min (1/n) sum_i f_i(x) for Proximal SVRG."""

    n = None
    dim_x = None

    def comp_value_batch(self, is_, x):
        raise NotImplementedError

    def comp_gradient_batch(self, is_, x):
        raise NotImplementedError

    def objective_f(self, x):
        return float(self.comp_value_batch(np.arange(self.n), x).mean())

    def full_gradient(self, x):
        """Mean component gradient; costs n gradient queries."""
        return self.comp_gradient_batch(np.arange(self.n), x).mean(axis=0)


class LassoProblem(FiniteSumProblem):
    """Least-squares components f_i(x) = 0.5 (<a_i, x> - y_i)^2."""

    kind = "lasso"

    def __init__(self, design, targets):
        design = as_matrix(design, "design")
        targets = as_vector(targets, "targets")
        if design.shape[0] != targets.shape[0]:
            raise ValueError("design rows and targets length must agree")
        self.design = design
        self.targets = targets
        self.n = design.shape[0]
        self.dim_x = design.shape[1]

    def comp_value_batch(self, is_, x):
        r = self.design[is_] @ x - self.targets[is_]
        return 0.5 * r * r

    def comp_gradient_batch(self, is_, x):
        r = self.design[is_] @ x - self.targets[is_]
        return r[:, None] * self.design[is_]

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
    if kappa_cov < 1:
        raise ValueError("kappa_cov must be >= 1")
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
    if n_states < 2:
        raise ValueError("need at least 2 states")
    if num_actions < 1:
        raise ValueError("need at least 1 action")
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
    design = rng.normal(size=(n, dim)) / np.sqrt(dim)
    x_true = rng.normal(size=dim)
    mask = rng.uniform(size=dim) < sparsity
    x_true[~mask] = 0.0
    targets = design @ x_true + noise * rng.normal(size=n)
    return LassoProblem(design, targets)


# -- problem kinds: generation from a config spec and flat JSON ---------------

# Problem kind -> (class, generator from a config spec and a stream, stored
# fields in constructor order with the dims that name their axes; a scalar
# field has none).
_KINDS = {
    PortfolioProblem.kind: (
        PortfolioProblem,
        lambda spec, rng: PortfolioProblem(
            gen_gaussian_rewards(spec["n"], spec["N"], spec.get("kappa_cov", 2.0), rng)
        ),
        {"rewards": ("n", "N")},
    ),
    PolicyEvalProblem.kind: (
        PolicyEvalProblem,
        lambda spec, rng: PolicyEvalProblem(
            *gen_mdp(spec["S"], spec.get("num_actions", 10), rng),
            spec.get("gamma", 0.95),
        ),
        {"transition": ("S", "S"), "reward": ("S", "S"), "gamma": ()},
    ),
    LinQuadProblem.kind: (
        LinQuadProblem,
        lambda spec, rng: gen_linquad(
            spec["n1"], spec["n2"], spec["M"], spec["N"], rng,
            spread=spec.get("spread", 0.3),
        ),
        {"q_mats": ("n2", "M", "N"), "c_vecs": ("n2", "M"), "b_vecs": ("n1", "M")},
    ),
    LassoProblem.kind: (
        LassoProblem,
        lambda spec, rng: gen_lasso(
            spec["n"], spec["N"], rng,
            sparsity=spec.get("sparsity", 0.2), noise=spec.get("noise", 0.01),
        ),
        {"design": ("n", "N"), "targets": ("n",)},
    ),
}


def _kind(kind):
    if kind not in _KINDS:
        raise ValueError(f"unknown problem kind: {kind!r}")
    return _KINDS[kind]


def generate_problem(spec):
    """Generate the problem a config's problem block describes (seed 0 by default)."""
    return _kind(spec["kind"])[1](spec, RngStream(spec.get("seed", 0)))


def problem_to_dict(prob):
    """Flat JSON-ready document: kind, dims, row-major data arrays."""
    kind = getattr(prob, "kind", None)
    if kind not in _KINDS or not isinstance(prob, _KINDS[kind][0]):
        raise TypeError(f"cannot serialize problem of type {type(prob).__name__}")
    doc = {"kind": kind, "dims": {}}
    for name, axes in _KINDS[kind][2].items():
        value = getattr(prob, name)
        doc["dims"].update(zip(axes, np.shape(value)))
        doc[name] = value.ravel().tolist() if axes else value
    return doc


def problem_from_dict(doc):
    cls, _, fields = _kind(doc["kind"])
    dims = doc["dims"]
    return cls(*(
        np.array(doc[name]).reshape([dims[d] for d in axes]) if axes else doc[name]
        for name, axes in fields.items()
    ))


def save_problem(prob, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(problem_to_dict(prob), fh, sort_keys=True)
        fh.write("\n")


def load_problem(path):
    with open(path, encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))
