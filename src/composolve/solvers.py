"""Variance-reduced compositional proximal solvers and baselines.

The main solver keeps an epoch snapshot of the inner value, inner
Jacobian, and composite gradient, and corrects minibatch estimates with
snapshot differences so their variance vanishes as iterates approach the
snapshot. Baselines: a two-timescale stochastic compositional gradient
method with decaying steps, proximal SVRG for plain finite sums, and a
deterministic proximal full-gradient reference.

Each solver supplies only its update rule, as a generator of iterates;
one shared loop (`_drive`) counts queries, records the trace and enforces
both budgets. The query and wall-clock budgets are checked before every
full pass and every step, and a full pass is paid only if a step can
follow it. A run whose iterate, or whose recorded objective, stops being
finite ends with `DivergedError`; numpy's overflow warnings are silenced
inside the loop, since that error reports the divergence.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .metrics import TraceRecord, TraceRecorder
from .numerics import RngStream, sample_with_replacement
from .oracle import QueryCounter, counted, full_gradient_cost


class DivergedError(RuntimeError):
    """An iterate or its objective stopped being finite; carries the finite trace."""

    def __init__(self, message, trace, x_last):
        super().__init__(message)
        self.trace = trace
        self.x_last = x_last


class InvalidConfigError(ValueError):
    """A parameter combination falls outside a formula's valid domain."""


@dataclass
class ProblemConstants:
    """Smoothness, convexity, and gradient-bound constants of an instance."""

    mu: float
    L_f: float
    L_F: float
    L_G: float
    B_F: float
    B_G: float

    def __post_init__(self):
        for name in ("mu", "L_f", "L_F", "L_G", "B_F", "B_G"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be positive")
        if self.L_f < self.mu:
            raise ValueError("L_f must be >= mu")


@dataclass
class VrscpgConfig:
    """Step size, loop sizes, and minibatch sizes of the main solver."""

    eta: float
    m: int
    S_epochs: int
    A: int
    B: int
    b1: int
    seed: int = 0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        for name in ("m", "S_epochs", "A", "B", "b1"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class Snapshot:
    """Epoch reference point with its full inner value, Jacobian, and gradient."""

    x_tilde: np.ndarray
    G_s: np.ndarray
    J_s: np.ndarray
    grad_f_s: np.ndarray


@dataclass
class SolveResult:
    x_final: np.ndarray
    trace: List[TraceRecord]
    counter: QueryCounter
    n_iters: int = 0


def compute_snapshot(problem, x_tilde):
    """Full pass at the epoch reference: n2 + n2 + n1 queries."""
    g_s = problem.full_inner_value(x_tilde)
    j_s = problem.full_inner_jacobian(x_tilde)
    grad = j_s.T @ problem.mean_outer_gradient(g_s)
    return Snapshot(x_tilde=x_tilde, G_s=g_s, J_s=j_s, grad_f_s=grad)


# -- snapshot-corrected estimators --------------------------------------------


def estimate_inner_value(snap, problem, x, a_indices):
    """Inner-value estimate G^s - mean_j (G_j(x_tilde) - G_j(x)); 2A queries."""
    if len(a_indices) == 0:
        raise ValueError("index set must be nonempty")
    at_ref = problem.inner_value_batch(a_indices, snap.x_tilde)
    at_x = problem.inner_value_batch(a_indices, x)
    return snap.G_s - (at_ref - at_x).mean(axis=0)


def estimate_inner_jacobian(snap, problem, x, b_indices):
    """Inner-Jacobian estimate with the same snapshot correction; 2B queries."""
    if len(b_indices) == 0:
        raise ValueError("index set must be nonempty")
    at_ref = problem.inner_jacobian_batch(b_indices, snap.x_tilde)
    at_x = problem.inner_jacobian_batch(b_indices, x)
    return snap.J_s - (at_ref - at_x).mean(axis=0)


def estimate_gradient_vt(snap, problem, g_hat, j_hat, i_indices):
    """Composite-gradient estimate built from the two inner estimates; 2 b1 queries.

    mean_i [ j_hat^T grad F_i(g_hat) - J_s^T grad F_i(G^s) ] + grad f(x_tilde).
    """
    if len(i_indices) == 0:
        raise ValueError("index set must be nonempty")
    outer_at_hat = problem.outer_gradient_batch(i_indices, g_hat)
    outer_at_ref = problem.outer_gradient_batch(i_indices, snap.G_s)
    correction = j_hat.T @ outer_at_hat.mean(axis=0) - snap.J_s.T @ outer_at_ref.mean(
        axis=0
    )
    return correction + snap.grad_f_s


# -- solvers ------------------------------------------------------------------


def _drive(problem, reg, eta, x0, x_star, trace_stride, budget_queries,
           budget_wall_s, steps):
    """Shared solver loop around steps(cp, x, room).

    steps yields (epoch, inner_iter, x) after each update, and returns when
    room(cost) before a full pass of cost queries, or room() before a step,
    is false.
    """
    cp, counter = counted(problem)
    x = np.zeros(problem.dim_x) if x0 is None else np.asarray(x0, dtype=np.float64)
    rec = TraceRecorder(problem, reg, eta, counter, x_star=x_star, stride=trace_stride)
    rec.record(0, 0, x, force=True)

    def room(cost=0):
        if budget_queries is not None and counter.total + cost >= budget_queries:
            return False
        return budget_wall_s is None or rec.elapsed_s() < budget_wall_s

    iters = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch, inner_iter, x in steps(cp, x, room):
            if not np.all(np.isfinite(x)):
                raise DivergedError("solver produced a non-finite iterate", rec.rows, x)
            iters += 1
            rec.record(epoch, inner_iter, x)
            if not math.isfinite(rec.rows[-1].objective):
                raise DivergedError("objective is no longer finite", rec.rows[:-1], x)
    return SolveResult(x_final=x, trace=rec.rows, counter=counter, n_iters=iters)


def vrsc_pg(
    problem,
    reg,
    cfg,
    x0=None,
    x_star=None,
    trace_stride=1,
    budget_queries=None,
    budget_wall_s=None,
):
    """Variance-reduced stochastic compositional proximal gradient.

    Per epoch: snapshot full pass, then m inner iterations each sampling
    the index sets A_t, B_t, I_t independently with replacement (in that
    fixed order), forming the three estimates and taking a proximal step.
    With m = 1 every step is taken at its own snapshot, where the estimates
    equal the full-batch values exactly, so the method is deterministic
    proximal gradient descent whatever the batch sizes.
    """

    def steps(cp, x, room):
        rng = RngStream(cfg.seed)
        for s in range(cfg.S_epochs):
            if not room(full_gradient_cost(problem.n1, problem.n2)):
                return
            snap = compute_snapshot(cp, x)
            for t in range(cfg.m):
                if not room():
                    return
                a_idx = sample_with_replacement(rng, problem.n2, cfg.A)
                b_idx = sample_with_replacement(rng, problem.n2, cfg.B)
                i_idx = sample_with_replacement(rng, problem.n1, cfg.b1)
                g_hat = estimate_inner_value(snap, cp, x, a_idx)
                j_hat = estimate_inner_jacobian(snap, cp, x, b_idx)
                v_t = estimate_gradient_vt(snap, cp, g_hat, j_hat, i_idx)
                x = reg.prox(x - cfg.eta * v_t, cfg.eta)
                yield s, t + 1, x

    return _drive(problem, reg, cfg.eta, x0, x_star, trace_stride,
                  budget_queries, budget_wall_s, steps)


def scpg_baseline(
    problem,
    reg,
    alpha0,
    beta0,
    exp_alpha,
    exp_beta,
    iters,
    seed,
    x0=None,
    x_star=None,
    trace_stride=1,
    budget_queries=None,
    budget_wall_s=None,
):
    """Two-timescale stochastic compositional proximal gradient baseline.

    Tracks the inner value with the auxiliary average
    y_{t+1} = (1 - beta_t) y_t + beta_t G_j(x_t) and takes decaying-step
    proximal updates; 3 oracle queries per iteration. Steps decay as
    alpha_t = alpha0 / (1+t)^exp_alpha and beta_t = beta0 / (1+t)^exp_beta.
    """
    if alpha0 <= 0 or beta0 <= 0:
        raise ValueError("alpha0 and beta0 must be positive")
    if not (0 < exp_alpha <= 1 and 0 < exp_beta <= 1):
        raise ValueError("decay exponents must lie in (0, 1]")

    def steps(cp, x, room):
        rng = RngStream(seed)
        y = np.zeros(problem.dim_y)
        for t in range(iters):
            if not room():
                return
            alpha_t = alpha0 / (1.0 + t) ** exp_alpha
            beta_t = min(beta0 / (1.0 + t) ** exp_beta, 1.0)
            j = sample_with_replacement(rng, problem.n2, 1)
            g_j = cp.inner_value_batch(j, x)[0]
            y = (1.0 - beta_t) * y + beta_t * g_j
            jac_j = cp.inner_jacobian_batch(j, x)[0]
            i = sample_with_replacement(rng, problem.n1, 1)
            grad_i = cp.outer_gradient_batch(i, y)[0]
            x = reg.prox(x - alpha_t * (jac_j.T @ grad_i), alpha_t)
            yield 0, t + 1, x

    return _drive(problem, reg, alpha0, x0, x_star, trace_stride,
                  budget_queries, budget_wall_s, steps)


def prox_svrg(
    fsp,
    reg,
    eta,
    m,
    S_epochs,
    seed,
    x0=None,
    x_star=None,
    trace_stride=1,
    budget_queries=None,
    budget_wall_s=None,
):
    """Proximal SVRG for plain finite sums.

    Each epoch computes the full gradient at the snapshot, then m inner
    steps with the corrected estimate grad f_i(x) - grad f_i(x_tilde) + f'.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")

    def steps(cp, x, room):
        rng = RngStream(seed)
        for s in range(S_epochs):
            if not room(fsp.n):
                return
            x_tilde = x
            f_prime = cp.full_gradient(x_tilde)
            for t in range(m):
                if not room():
                    return
                i = sample_with_replacement(rng, fsp.n, 1)
                v_t = (
                    cp.comp_gradient_batch(i, x)[0]
                    - cp.comp_gradient_batch(i, x_tilde)[0]
                    + f_prime
                )
                x = reg.prox(x - eta * v_t, eta)
                yield s, t + 1, x

    return _drive(fsp, reg, eta, x0, x_star, trace_stride,
                  budget_queries, budget_wall_s, steps)


def prox_full_gradient(
    problem,
    reg,
    eta,
    iters,
    tol=0.0,
    x0=None,
    x_star=None,
    trace_stride=1,
    budget_queries=None,
    budget_wall_s=None,
):
    """Deterministic proximal gradient descent; reference solver.

    Stops when the step norm drops to tol or the iteration cap is hit.
    Works on composition problems and plain finite sums alike.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")

    def steps(cp, x, room):
        for t in range(iters):
            if not room():
                return
            x_prev = x
            x = reg.prox(x - eta * cp.full_gradient(x), eta)
            yield t + 1, 0, x
            if np.linalg.norm(x - x_prev) <= tol:
                return

    return _drive(problem, reg, eta, x0, x_star, trace_stride,
                  budget_queries, budget_wall_s, steps)


def gradient_mapping(problem, reg, x, eta):
    """Stationarity measure (x - prox(x - eta * grad f(x))) / eta.

    Reduces to grad f(x) for the zero penalty and vanishes exactly at
    stationary points of the composite objective.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    g = problem.full_gradient(x)
    return (x - reg.prox(x - eta * g, eta)) / eta


# -- parameter schedules and rate checks --------------------------------------


def _floor_cbrt(n):
    r = int(round(n ** (1.0 / 3.0)))
    while r > 0 and r * r * r > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _ceil_23_power(n):
    """Smallest integer >= n^(2/3), exact for perfect cubes."""
    target = n * n
    r = _floor_cbrt(target)
    if r * r * r < target:
        r += 1
    return r


def suggest_params_strongly_convex(c):
    """Linear-rate parameter schedule (eta, m, A, B) for strongly convex f."""
    eta = 1.0 / (96.0 * c.L_f)
    m = math.ceil(16.0 * (1.0 + 96.0 * c.L_f / c.mu))
    a = math.ceil(2048.0 * c.B_G**4 * c.L_F**2 / c.mu**2)
    b = math.ceil(2048.0 * c.B_F**2 * c.L_G**2 / c.mu**2)
    return eta, m, a, b


def suggest_params_general(n1, n2, c):
    """Sublinear-rate schedule (eta, m, b1, A_min, B_min) for general f."""
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be >= 1")
    total = n1 + n2
    m = max(_floor_cbrt(total), 1)
    eta = 1.0 / (4.0 * c.L_f)
    b1 = _ceil_23_power(total)
    a_min = math.ceil(8.0 * m**2 * c.B_G**4 * c.L_F**2 / c.L_f)
    b_min = math.ceil(8.0 * m**2 * c.B_F**2 * c.L_G**2 / c.L_f)
    return eta, m, b1, a_min, b_min


def theorem1_rho(eta, m, a, b, c):
    """Per-epoch contraction factor of the strongly convex rate bound.

    Values >= 1 signal an invalid configuration but are still returned;
    a nonpositive denominator raises.
    """
    if eta <= 0 or m < 1 or a < 1 or b < 1:
        raise ValueError("eta, m, A, B must be positive")
    noise = (32.0 / c.mu) * (c.B_F**2 * c.L_G**2 / b + c.B_G**4 * c.L_F**2 / a)
    z = 6.0 * eta * c.L_f + (eta / 2.0 + 4.0 / c.mu) * noise
    denominator = 2.0 * eta * (7.0 / 8.0 - z) * m
    if denominator <= 0:
        raise InvalidConfigError(
            "contraction denominator is nonpositive; decrease eta or grow A, B"
        )
    numerator = 2.0 / c.mu + 2.0 * eta * z * (m + 1)
    return numerator / denominator


def theorem3_condition_holds(eta, m, a, b, b1, c):
    """Step-size condition of the general-problem rate bound (inclusive)."""
    lhs = 4.0 * (
        eta * m**2 * c.L_f**2 / b1
        + 2.0 * eta * m**2 * c.B_G**4 * c.L_F**2 / a
        + 2.0 * eta * m**2 * c.B_F**2 * c.L_G**2 / b
    ) + c.L_f / 2.0
    return bool(lhs <= 1.0 / (2.0 * eta))
