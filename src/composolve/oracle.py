"""Sampling-oracle query accounting.

The cost model charges one query per index evaluated, in three kinds:
an inner value G_j(x), an inner Jacobian of G_j at x, or an outer
gradient of F_i at y. Outer function values are diagnostics and are
never counted.
"""

from .problems import CompositionProblem, FiniteSumProblem


class QueryCounter:
    """Monotone tallies of the three query kinds; one run owns and writes it."""

    def __init__(self):
        self.inner_value_queries = 0
        self.inner_jacobian_queries = 0
        self.outer_gradient_queries = 0

    @property
    def total(self):
        return (
            self.inner_value_queries
            + self.inner_jacobian_queries
            + self.outer_gradient_queries
        )

    def add(self, inner_value=0, inner_jacobian=0, outer_gradient=0):
        self.inner_value_queries += inner_value
        self.inner_jacobian_queries += inner_jacobian
        self.outer_gradient_queries += outer_gradient

    def snapshot(self):
        """Immutable (inner_value, inner_jacobian, outer_gradient) triple."""
        return (
            self.inner_value_queries,
            self.inner_jacobian_queries,
            self.outer_gradient_queries,
        )


class CountedCompositionProblem(CompositionProblem):
    """Delegating wrapper that counts every per-index evaluator call.

    Numerical outputs are exactly those of the wrapped problem. A
    transpose-Jacobian product J_j^T u costs one inner-Jacobian query per
    index. The full-batch means come from the problem's own methods, closed
    forms or generic loops, at their per-index cost: n2 inner values, n2
    inner Jacobians, or n1 outer gradients. A step of a stochastic solver is
    charged once per call, whether the class evaluates every term or, as for
    the zero Jacobian correction of an affine class, not: a variance-reduced
    step over A, B and I costs 2 per index of each kind, and a two-timescale
    step over js and is_ one query of each kind per index. A step is charged
    once the class's hook has returned, so a step the hook rejects, such as
    one with an empty index set, costs nothing. The product with the mean
    Jacobian reuses what `full_inner_jacobian` paid for and costs nothing.
    """

    def __init__(self, problem):
        self._problem = problem
        self.counter = QueryCounter()
        self.n1 = problem.n1
        self.n2 = problem.n2
        self.dim_x = problem.dim_x
        self.dim_y = problem.dim_y

    def inner_value_batch(self, js, x):
        self.counter.add(inner_value=len(js))
        return self._problem.inner_value_batch(js, x)

    def inner_jacobian_batch(self, js, x):
        self.counter.add(inner_jacobian=len(js))
        return self._problem.inner_jacobian_batch(js, x)

    def inner_vjp_batch(self, js, x, u):
        self.counter.add(inner_jacobian=len(js))
        return self._problem.inner_vjp_batch(js, x, u)

    def full_inner_value(self, x):
        self.counter.add(inner_value=self.n2)
        return self._problem.full_inner_value(x)

    def full_inner_jacobian(self, x):
        self.counter.add(inner_jacobian=self.n2)
        return self._problem.full_inner_jacobian(x)

    def mean_inner_vjp(self, jac, v):
        return self._problem.mean_inner_vjp(jac, v)

    def outer_value_batch(self, is_, y):
        return self._problem.outer_value_batch(is_, y)

    def outer_gradient_batch(self, is_, y):
        self.counter.add(outer_gradient=len(is_))
        return self._problem.outer_gradient_batch(is_, y)

    def mean_outer_gradient(self, y):
        self.counter.add(outer_gradient=self.n1)
        return self._problem.mean_outer_gradient(y)

    # The two step hooks, called once per solver step, charge by attribute
    # increments, the charges of `QueryCounter.add` without its call.
    def variance_reduced_step(self, snap, a_idx, b_idx, i_idx, x):
        v = self._problem.variance_reduced_step(snap, a_idx, b_idx, i_idx, x)
        counter = self.counter
        counter.inner_value_queries += 2 * len(a_idx)
        counter.inner_jacobian_queries += 2 * len(b_idx)
        counter.outer_gradient_queries += 2 * len(i_idx)
        return v

    def tracking_step(self, js, is_, x, y, beta):
        y, v = self._problem.tracking_step(js, is_, x, y, beta)
        counter, k = self.counter, len(js)
        counter.inner_value_queries += k
        counter.inner_jacobian_queries += k
        counter.outer_gradient_queries += len(is_)
        return y, v


class CountedFiniteSumProblem(CountedCompositionProblem):
    """Counting wrapper for plain finite sums: a counted composition, plus the
    component gradients, each an outer gradient that costs one query of that
    kind, and the mean of their paired differences that a Proximal SVRG step
    reads, which costs two per index.
    """

    def comp_gradient_batch(self, is_, x):
        self.counter.add(outer_gradient=len(is_))
        return self._problem.comp_gradient_batch(is_, x)

    def comp_gradient_diff_mean(self, is_, x_tilde, x):
        # charged like the step hooks, once the hook has returned
        diff = self._problem.comp_gradient_diff_mean(is_, x_tilde, x)
        self.counter.outer_gradient_queries += 2 * len(is_)
        return diff


def counted(problem):
    """Wrap a problem for query accounting; returns (problem, counter)."""
    if isinstance(problem, FiniteSumProblem):
        wrapped = CountedFiniteSumProblem(problem)
    else:
        wrapped = CountedCompositionProblem(problem)
    return wrapped, wrapped.counter


def full_gradient_cost(n1, n2):
    """Queries for one full composite gradient: n2 values, n2 Jacobians, n1 outer."""
    return n1 + 2 * n2


def vrsc_pg_cost(n1, n2, m, a, b, b1, s_epochs):
    """Total queries of the variance-reduced solver.

    Each epoch pays a full pass (n1 + 2 n2) plus m inner iterations at
    2A + 2B + 2 b1 queries each.
    """
    return s_epochs * (n1 + 2 * n2 + m * (2 * a + 2 * b + 2 * b1))


def scpg_cost(iters):
    """Queries of the two-timescale baseline: 3 per iteration, by kind (1,1,1)."""
    return 3 * iters


def prox_svrg_cost(n, m, s_epochs):
    """Gradient queries of proximal SVRG: n per epoch plus 2 per inner step."""
    return s_epochs * (n + 2 * m)


def prox_full_gradient_cost(n1, n2, iters):
    """Queries of the deterministic reference: one full gradient per step."""
    return iters * full_gradient_cost(n1, n2)
