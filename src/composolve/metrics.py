"""Convergence diagnostics and the per-run trace recorder."""

import time
from dataclasses import dataclass, fields

import numpy as np

from .numerics import l2_norm_sq

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


def objective_gap(problem, reg, x, x_star):
    """H(x) - H(x_star); callers should verify x_star first."""
    return objective_H(problem, reg, x) - objective_H(problem, reg, x_star)


def composite_grad_sq(problem, reg, x):
    """Squared norm of grad f(x) plus the min-norm penalty subgradient."""
    g = problem.full_gradient(x)
    return l2_norm_sq(g + reg.min_norm_subgradient(x, g))


def verify_optimum(problem, reg, x_star, eta):
    """Gradient-mapping norm at a candidate optimum; small means verified."""
    g = problem.full_gradient(x_star)
    mapped = (x_star - reg.prox(x_star - eta * g, eta)) / eta
    return float(np.sqrt(l2_norm_sq(mapped)))


class TraceRecorder:
    """Collects one row per recorded iterate.

    Diagnostics (objective, gradient mapping, composite subgradient) are
    evaluated on the raw problem so instrumentation never perturbs the
    query counts; the counter passed in is the solver's counted handle.
    """

    def __init__(self, problem, reg, eta, counter, x_star=None, stride=1):
        self.problem = problem
        self.reg = reg
        self.eta = float(eta)
        self.counter = counter
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=np.float64)
        self.stride = max(int(stride), 1)
        self.rows = []
        self._h_star = (
            None if x_star is None else objective_H(problem, reg, self.x_star)
        )
        self._t0 = time.perf_counter()
        self._seen = 0

    def record(self, epoch, inner_iter, x, force=False):
        self._seen += 1
        if not force and (self._seen - 1) % self.stride != 0:
            return
        g = self.problem.full_gradient(x)
        mapped = (x - self.reg.prox(x - self.eta * g, self.eta)) / self.eta
        obj = objective_H(self.problem, self.reg, x)
        gap = float("nan") if self._h_star is None else obj - self._h_star
        qv, qj, qo = self.counter.snapshot()
        self.rows.append(
            TraceRecord(
                epoch=int(epoch),
                inner_iter=int(inner_iter),
                wall_ms=(time.perf_counter() - self._t0) * 1e3,
                q_inner_val=qv,
                q_inner_jac=qj,
                q_outer_grad=qo,
                objective=obj,
                gap=gap,
                grad_map_sq=l2_norm_sq(mapped),
                composite_grad_sq=l2_norm_sq(
                    g + self.reg.min_norm_subgradient(x, g)
                ),
            )
        )

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
