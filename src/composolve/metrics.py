"""Convergence diagnostics and the per-run trace recorder, which vets its rows.

The diagnostics take one point x of shape (N,) or a stack of points of shape
(..., N), with one value per row; the recorder evaluates its rows a block at
a time, as one stack.
"""

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .numerics import l2_norm_sq, sample_with_replacement

# A recorded row waits for its diagnostics until at most this many record
# calls (its own included) have passed. At trace stride 1 one stacked pass
# then serves 16 rows, each at about a quarter of the cost of a lone row on
# the closed-form classes, and longer blocks save little more (BENCH_26.json);
# at stride 16 and above each row is evaluated at its own call.
_ROW_BLOCK_STEPS = 16


@dataclass
class TraceRecord:
    epoch: int
    inner_iter: int
    wall_ms: float
    q_inner_val: int
    q_inner_jac: int
    q_outer_grad: int
    objective: float
    gap: float  # NaN when no reference optimum is available
    grad_map_sq: float
    composite_grad_sq: float

    @property
    def queries(self):
        return self.q_inner_val + self.q_inner_jac + self.q_outer_grad

    def csv_row(self):
        return (
            f"{self.epoch},{self.inner_iter},{self.wall_ms:.17g},"
            f"{self.q_inner_val},{self.q_inner_jac},{self.q_outer_grad},"
            f"{self.objective:.17g},{self.gap:.17g},"
            f"{self.grad_map_sq:.17g},{self.composite_grad_sq:.17g}"
        )


# The trace CSV header: the record's fields, in declaration order.
CSV_COLUMNS = tuple(f.name for f in fields(TraceRecord))


def objective_H(problem, reg, x):
    """Composite objective: smooth part plus penalty."""
    return problem.objective_f(x) + reg.value(x)


def _mapping(reg, x, g, eta):
    """Gradient mapping at x, given g = grad f(x)."""
    return (x - reg.prox(x - eta * g, eta)) / eta


def _composite_sq(reg, x, g):
    """Squared composite-gradient norm at x, given g = grad f(x)."""
    return l2_norm_sq(g + reg.min_norm_subgradient(x, g))


def gradient_mapping(problem, reg, x, eta):
    """Stationarity measure (x - prox(x - eta * grad f(x))) / eta: grad f(x) for
    the zero penalty, and zero exactly at stationary points of the composite."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return _mapping(reg, x, problem.full_gradient(x), eta)


def composite_grad_sq(problem, reg, x):
    """Squared norm of grad f(x) plus the min-norm penalty subgradient."""
    return _composite_sq(reg, x, problem.full_gradient(x))


def verify_optimum(problem, reg, x_star, eta):
    """Gradient-mapping norm at a candidate optimum; small means verified."""
    return float(np.sqrt(l2_norm_sq(gradient_mapping(problem, reg, x_star, eta))))


def estimator_error(problem, snap, x, rng, draws):
    """The error e = v - grad f(x) of `draws` variance-reduced steps at x from
    the epoch snapshot snap, each over index sets A, B and I of 5 indices
    drawn from rng: (mean of e, its standard error per entry, mean of
    ||e||^2). On the raw problem it spends no counted query."""
    grad = problem.full_gradient(x)
    highs = np.repeat([problem.n2, problem.n2, problem.n1], 5)
    errors = np.array([problem.variance_reduced_step(snap, *np.split(row, 3), x) - grad
                       for row in sample_with_replacement(rng, highs, draws)])
    return (errors.mean(axis=0), errors.std(axis=0, ddof=1) / math.sqrt(draws),
            float(l2_norm_sq(errors).mean()))


class DivergedError(RuntimeError):
    """An iterate or its objective stopped being finite; carries the finite
    trace, the last iterate, queries (the query triple of the diverged
    iterate's row, or of the run when the iterate itself is not finite) and
    total_queries, the queries the run had spent when it stopped."""

    def __init__(self, message, trace, x_last, queries, total_queries):
        super().__init__(message)
        self.trace = trace
        self.x_last = x_last
        self.queries = queries
        self.total_queries = total_queries


class TraceRecorder:
    """Collects one finite row per recorded iterate, or raises `DivergedError`.

    Diagnostics (objective, gradient mapping, composite subgradient) come
    from a full pass on the raw problem, so instrumentation never perturbs
    the query counts; the counter passed in is the solver's counted handle.

    A recorded row is first kept pending: its epoch, inner iteration, wall
    time and query triple, read when it is recorded, and a reference to its
    iterate, which must not change in place meanwhile. Its diagnostics come
    later, with those of every pending row, in one stacked pass
    (`objective_and_gradient` of a stack) that equals the row's own pass
    bitwise. That pass runs at the record call of the row that fills a
    block, whose first row has then waited at most _ROW_BLOCK_STEPS record
    calls, its own included, at every forced record, and at `flush`. The
    first pending row whose objective is not finite raises `DivergedError`
    with the rows before it, its own iterate (the object recorded), its
    query triple and, as total_queries, the live counter's total, which
    counts the steps run while the row waited; the rows after it are
    dropped.
    """

    def __init__(self, problem, reg, eta, counter, x_star=None, stride=1):
        self.problem = problem
        self.reg = reg
        self.eta = float(eta)
        self.counter = counter
        self.stride = stride
        self.rows = []
        # without a reference optimum every gap is obj - NaN, a NaN
        self._h_star = math.nan if x_star is None else objective_H(problem, reg, x_star)
        self._t0 = time.perf_counter()
        self._seen = 0
        # rows per block: the first row of a full block was recorded
        # (block - 1) * stride calls before the last
        self._block = (_ROW_BLOCK_STEPS - 1) // stride + 1
        self._pending = []  # (epoch, inner_iter, wall_ms, query triple, x)
        self._newest = None  # ((epoch, inner_iter), x) of the last row recorded

    def record(self, epoch, inner_iter, x, force=False):
        """Record x as a row if this is the first of every stride calls, or if
        force; a forced record evaluates every pending row, and adds no row
        when (epoch, inner_iter, x) is the newest row already, x the same
        object. wall_ms is read here, before the row's diagnostics run."""
        self._seen += 1
        if not force and (self._seen - 1) % self.stride != 0:
            return
        at = (int(epoch), int(inner_iter))
        if force and self._newest is not None and self._newest[1] is x and self._newest[0] == at:
            self.flush()
            return
        self._newest = (at, x)
        wall_ms = (time.perf_counter() - self._t0) * 1e3
        self._pending.append((*at, wall_ms, self.counter.snapshot(), x))
        if force or len(self._pending) >= self._block:
            self.flush()

    def flush(self):
        """Evaluate the pending rows in one stacked pass and append them, up to
        the first whose objective is not finite, which raises `DivergedError`."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        # a lone row goes as one point: the same values as a stack of one, and
        # on the desk portfolio's rows 5 to 8 us of about 50 cheaper (BENCH_26.json)
        x = pending[0][-1] if len(pending) == 1 else np.array([row[-1] for row in pending])
        f, g = self.problem.objective_and_gradient(x)
        obj = f + self.reg.value(x)
        columns = (obj, obj - self._h_star, l2_norm_sq(_mapping(self.reg, x, g, self.eta)),
                   _composite_sq(self.reg, x, g))
        table = [columns] if x.ndim == 1 else np.transpose(columns).tolist()
        for (epoch, inner_iter, wall_ms, queries, x_row), values in zip(pending, table):
            if not math.isfinite(values[0]):
                raise DivergedError("objective is not finite", self.rows, x_row, queries,
                                    self.counter.total)
            self.rows.append(TraceRecord(epoch, inner_iter, wall_ms, *queries, *values))

    def elapsed_s(self):
        return time.perf_counter() - self._t0


def queries_to_threshold(trace, threshold, field="gap"):
    """First recorded query count at which the metric drops to the threshold.

    Returns None if the trace never reaches it.
    """
    for row in trace:
        value = getattr(row, field)
        if np.isfinite(value) and value <= threshold:
            return row.queries
    return None
