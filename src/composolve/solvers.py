"""Variance-reduced compositional proximal solvers and baselines.

The main solver keeps an epoch snapshot of the inner value, inner
Jacobian, and composite gradient, and corrects minibatch estimates with
snapshot differences so their variance vanishes as iterates approach the
snapshot. Each correction is the minibatch mean of a paired difference
f_j(x_tilde) - f_j(x) (`problems.paired_diff_mean`). The estimators here are
the generic default of the problem hook `variance_reduced_step`, which a
class may give in closed form, and the reference for those closed forms.
Baselines: a two-timescale stochastic compositional gradient method with
decaying steps, proximal SVRG for plain finite sums (compositions whose inner
map is the identity), and a deterministic proximal full-gradient reference.

Each solver supplies only its update rule, as a generator of iterates;
one shared loop (`_drive`) counts queries, records the trace and enforces
both budgets. Every solver passes its remaining keywords on to that loop,
whose run options (`x0`, `x_star`, `trace_stride`, `budget_queries`,
`budget_wall_s`) are declared and described there alone, and checked by
`check_run_options`. Each solver checks its own parameters before it
spends a query. The query and wall-clock budgets are checked before every
full pass and every step, and a full pass is paid only if a step can
follow it. Each run owns its query counter. The recorder evaluates trace
rows a block at a time (`metrics.TraceRecorder`), and the loop hands it
only the iterates it records. A row's wall time and queries are read when
its iterate is recorded, and its diagnostics up to _ROW_BLOCK_STEPS - 1
steps later, before the loop raises, or when the run ends, whichever comes
first. A non-finite iterate, or a row (the start row too) whose objective
the recorder finds non-finite, ends the run with `DivergedError`, which
carries the finite rows before it, that iterate and its query triple: the
run's, for a non-finite iterate, and the row's own for a row, although
steps after the row may have run before its block was evaluated; its
`total_queries` counts those steps too. numpy's overflow
warnings are silenced inside the loop, since that error reports the
divergence.

The stochastic solvers draw their index sets a block of steps at a time
(`_index_sets`), which replays bitwise the draws of one stream call per
index set.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .metrics import DivergedError, TraceRecord, TraceRecorder
from .numerics import RngStream, check_int, check_real, sample_with_replacement
from .oracle import QueryCounter, counted, full_gradient_cost
from .problems import FiniteSumProblem, nonempty, paired_diff_mean


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
        check_real("eta", self.eta, 0, open_low=True)
        for name in ("m", "S_epochs", "A", "B", "b1"):
            check_int(name, getattr(self, name))


@dataclass
class Snapshot:
    """Epoch reference point with its full inner value, Jacobian, and gradient;
    J_s is what `full_inner_jacobian` returned, dense or a class's operator data."""

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
    return Snapshot(x_tilde, *problem.full_pass(x_tilde))


# -- snapshot-corrected estimators --------------------------------------------


def estimate_inner_value(snap, problem, x, a_indices):
    """Inner-value estimate G^s - mean_j (G_j(x_tilde) - G_j(x)); 2A queries."""
    return snap.G_s - paired_diff_mean(problem.inner_value_batch, nonempty(a_indices),
                                       snap.x_tilde, x)


def estimate_inner_jacobian(snap, problem, x, b_indices):
    """Inner-Jacobian estimate with the same snapshot correction; 2B queries.

    The dense reference form, for a dense J_s: the solvers use only its product
    with an outer gradient, which `estimate_gradient_vt` forms without it.
    """
    if np.shape(snap.J_s) != (problem.dim_y, problem.dim_x):
        raise ValueError("estimate_inner_jacobian needs a dense J_s")
    return snap.J_s - paired_diff_mean(problem.inner_jacobian_batch, nonempty(b_indices),
                                       snap.x_tilde, x)


def estimate_gradient_vt(snap, problem, x, g_hat, b_indices, i_indices):
    """Composite-gradient estimate from transpose-Jacobian products; 2B + 2 b1 queries.

    With u = mean_i grad F_i(g_hat) and u_s = mean_i grad F_i(G^s) over I (each
    an axis-0 sum in index order), and the Jacobian estimate j_hat of
    `estimate_inner_jacobian` over B, this is
    j_hat^T u - J_s^T u_s + grad f(x_tilde)
      = J_s^T (u - u_s) - mean_j (J_j(x_tilde)^T u - J_j(x)^T u) + grad f(x_tilde):
    one product with the snapshot Jacobian, by the problem's `mean_inner_vjp`,
    and the Jacobian correction, the `paired_diff_mean` of `inner_vjp_batch`
    over B, which is exactly zero when that batch does not read x (affine inner
    maps); no Jacobian is built. At x = x_tilde and g_hat = G^s it is
    grad f(x_tilde) exactly.
    """
    k = len(nonempty(i_indices))
    u = problem.outer_gradient_batch(i_indices, g_hat).sum(axis=0) / k
    u_s = problem.outer_gradient_batch(i_indices, snap.G_s).sum(axis=0) / k
    correction = paired_diff_mean(lambda js, z: problem.inner_vjp_batch(js, z, u),
                                  nonempty(b_indices), snap.x_tilde, x)
    return problem.mean_inner_vjp(snap.J_s, u - u_s) - correction + snap.grad_f_s


# -- solvers ------------------------------------------------------------------

# Indices per stream call: bounds the block whatever the epoch length m.
_BLOCK_INDICES = 16384


def _index_sets(rng, groups, steps):
    """The index sets of `steps` steps, one array per (population, size) group.

    The indices come in blocks of whole steps, one stream call per block of
    at most _BLOCK_INDICES indices (or of one step, if a step needs more),
    and replay bitwise the per-step draws of each group in turn; see
    `sample_with_replacement`.
    """
    highs = np.repeat([n for n, _ in groups], [k for _, k in groups])
    cuts = np.cumsum([k for _, k in groups])[:-1]
    rows = max(1, _BLOCK_INDICES // len(highs))
    for start in range(0, steps, rows):
        block = sample_with_replacement(rng, highs, min(rows, steps - start))
        yield from zip(*np.split(block, cuts, axis=1))


def check_run_options(trace_stride=1, budget_queries=None, budget_wall_s=None):
    """Reject a run option of `_drive` outside its domain, naming it."""
    check_int("trace_stride", trace_stride)
    if budget_queries is not None:
        check_int("budget_queries", budget_queries)
    if budget_wall_s is not None:
        check_real("budget_wall_s", budget_wall_s, 0, open_low=True)


def _drive(problem, reg, eta, steps, x0=None, x_star=None, trace_stride=1,
           budget_queries=None, budget_wall_s=None):
    """Shared solver loop around steps(cp, x, room).

    steps yields (epoch, inner_iter, x) after each update, a fresh array
    that it does not change afterwards, and returns when room(cost) before a
    full pass of cost queries, or room() before a step, is false. The start
    point, every trace_stride-th iterate and the last one are recorded, so
    that the final row describes x_final: the loop calls the recorder on
    those iterates alone, and no other step pays a call. The run ends with a
    forced record of the last iterate, which evaluates the pending rows and
    adds a row only if the stride skipped that iterate.

    Run options, which every solver takes as keywords:
        x0              start point, copied (default: zeros)
        x_star          reference optimum; without it the trace's gap is NaN
        trace_stride    an integer >= 1: record every trace_stride-th
                        iterate (default 1)
        budget_queries  None (no cap) or an integer >= 1: take no step once
                        the query total reaches this, and no full pass once
                        the total plus its cost would
        budget_wall_s   None (no cap) or a number > 0: take no full pass or
                        step once this many seconds have passed
    An option outside its domain raises TypeError or ValueError before any
    query (`check_run_options`).
    """
    check_run_options(trace_stride, budget_queries, budget_wall_s)
    cp, counter = counted(problem)
    x = np.zeros(problem.dim_x) if x0 is None else np.array(x0, dtype=np.float64)
    rec = TraceRecorder(problem, reg, eta, counter, x_star=x_star, stride=trace_stride)

    def room(cost=0):
        if budget_queries is not None and counter.total + cost >= budget_queries:
            return False
        return budget_wall_s is None or rec.elapsed_s() < budget_wall_s

    iters = epoch = inner_iter = 0
    # x.dot(zeros) is NaN when an entry of x is inf or NaN (inf * 0 is NaN)
    # and 0 otherwise: one call, where np.isfinite(x).all() takes two, and
    # the method skips the ufunc dispatch of x @ zeros
    zeros = np.zeros(problem.dim_x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rec.record(0, 0, x, force=True)
        for epoch, inner_iter, x in steps(cp, x, room):
            if x.dot(zeros) != 0.0:
                rec.flush()  # a pending row that diverged first raises its own error
                raise DivergedError("solver produced a non-finite iterate", rec.rows, x,
                                    counter.snapshot(), counter.total)
            iters += 1
            if iters % trace_stride == 0:
                rec.record(epoch, inner_iter, x)
        # the last iterate: a new row if it fell between strides, and in any
        # case the evaluation of every pending row
        rec.record(epoch, inner_iter, x, force=True)
    return SolveResult(x_final=x, trace=rec.rows, counter=counter, n_iters=iters)


def vrsc_pg(problem, reg, cfg, **run):
    """Variance-reduced stochastic compositional proximal gradient.

    Per epoch: snapshot full pass, then m inner iterations each sampling
    the index sets A_t, B_t, I_t independently with replacement (in that
    fixed order), estimating the composite gradient from them in one
    `variance_reduced_step` call, and taking a proximal step. The Jacobian
    estimate enters only through its product with the outer gradient, so no
    Jacobian is built.
    With m = 1 every step is taken at its own snapshot, where the estimates
    equal the full-batch values exactly, so the method is deterministic
    proximal gradient descent whatever the batch sizes. `run`: the run
    options of `_drive`.
    """

    def steps(cp, x, room):
        rng = RngStream(cfg.seed)
        groups = ((problem.n2, cfg.A), (problem.n2, cfg.B), (problem.n1, cfg.b1))
        for s in range(cfg.S_epochs):
            if not room(full_gradient_cost(problem.n1, problem.n2)):
                return
            snap = compute_snapshot(cp, x)
            draws = _index_sets(rng, groups, cfg.m)
            for t in range(cfg.m):
                if not room():
                    return
                a_idx, b_idx, i_idx = next(draws)
                v_t = cp.variance_reduced_step(snap, a_idx, b_idx, i_idx, x)
                x = reg.prox(x - cfg.eta * v_t, cfg.eta)
                yield s, t + 1, x

    return _drive(problem, reg, cfg.eta, steps, **run)


def scpg_baseline(problem, reg, alpha0, beta0, exp_alpha, exp_beta, iters, seed, **run):
    """Two-timescale stochastic compositional proximal gradient baseline.

    Tracks the inner value with the auxiliary average
    y_{t+1} = (1 - beta_t) y_t + beta_t G_j(x_t) and takes decaying-step
    proximal updates x_{t+1} = prox(x_t - alpha_t v_t, alpha_t) along
    v_t = J_j(x_t)^T grad F_i(y_{t+1}). One
    `tracking_step(j, i, x_t, y_t, beta_t, alpha_t)` call returns y_{t+1} and
    the point x_t - alpha_t v_t, which goes to the prox as it is, so that a
    class whose v_t is sparse need not form it densely; 3 oracle queries per
    iteration. Steps decay as alpha_t = alpha0 / (1+t)^exp_alpha and
    beta_t = beta0 / (1+t)^exp_beta. `run`: the run options of `_drive`.
    """
    check_real("alpha0", alpha0, 0, open_low=True)
    check_real("beta0", beta0, 0, open_low=True)
    check_real("exp_alpha", exp_alpha, 0, 1, open_low=True)
    check_real("exp_beta", exp_beta, 0, 1, open_low=True)
    check_int("iters", iters)

    def steps(cp, x, room):
        draws = _index_sets(RngStream(seed), ((problem.n2, 1), (problem.n1, 1)), iters)
        y = np.zeros(problem.dim_y)
        for t in range(iters):
            if not room():
                return
            alpha_t = alpha0 / (1.0 + t) ** exp_alpha
            beta_t = min(beta0 / (1.0 + t) ** exp_beta, 1.0)
            j, i = next(draws)
            y, x = cp.tracking_step(j, i, x, y, beta_t, alpha_t)
            x = reg.prox(x, alpha_t)
            yield 0, t + 1, x

    return _drive(problem, reg, alpha0, steps, **run)


def prox_svrg(fsp, reg, eta, m, S_epochs, seed, **run):
    """Proximal SVRG for a plain finite sum (a `FiniteSumProblem`).

    Each epoch computes the full gradient f' at the snapshot, the mean of the
    n component gradients, then m inner steps with the corrected estimate
    f' - (grad f_i(x_tilde) - grad f_i(x)), one `comp_gradient_diff_mean`
    call, which the lasso's `vrsc_pg` step shares. `run`: the run options of
    `_drive`.
    """
    if not isinstance(fsp, FiniteSumProblem):
        raise TypeError(f"prox_svrg needs a FiniteSumProblem, got {type(fsp).__name__}")
    check_real("eta", eta, 0, open_low=True)
    check_int("m", m)
    check_int("S_epochs", S_epochs)

    def steps(cp, x, room):
        rng = RngStream(seed)
        for s in range(S_epochs):
            if not room(fsp.n):
                return
            x_tilde = x
            f_prime = cp.mean_outer_gradient(x_tilde)
            draws = _index_sets(rng, ((fsp.n, 1),), m)
            for t in range(m):
                if not room():
                    return
                (i,) = next(draws)
                v_t = f_prime - cp.comp_gradient_diff_mean(i, x_tilde, x)
                x = reg.prox(x - eta * v_t, eta)
                yield s, t + 1, x

    return _drive(fsp, reg, eta, steps, **run)


def prox_full_gradient(problem, reg, eta, iters, tol=0.0, **run):
    """Deterministic proximal gradient descent; reference solver.

    Stops when the step norm drops to tol or the iteration cap is hit. `run`:
    the run options of `_drive`.
    """
    check_real("eta", eta, 0, open_low=True)
    check_int("iters", iters)
    check_real("tol", tol, 0)

    def steps(cp, x, room):
        for t in range(iters):
            if not room():
                return
            x_prev = x
            x = reg.prox(x - eta * cp.full_gradient(x), eta)
            yield t + 1, 0, x
            if np.linalg.norm(x - x_prev) <= tol:
                return

    return _drive(problem, reg, eta, steps, **run)


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
    """Sublinear-rate schedule (eta, m, b1, A_min, B_min) for general f.

    The theorem's A_min = 8 m^2 B_G^4 L_F^2 / L_f is not a practical schedule:
    it exceeds n2 at every size probed (830 against n2 = 100 on the linquad
    instance of the general-rate acceptance test), so each step samples
    several full inner passes with replacement. It is returned uncapped,
    since a cap would change the theorem's condition, not enforce it.
    """
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
