"""Built-in verification suite: the one definition of each core invariant.

Each check runs at desk scale over every problem class it applies to and
returns (name, passed, detail), passed a plain bool; `composolve check`
prints one line per check and exits nonzero on any failure. Tier-1 runs
each check once, unmodified, in `TestCheckCommand.test_builtin_check_passes`;
module tests add independent oracles and the cases a check leaves out.
"""

import math

import numpy as np

from . import metrics, oracle, problems, regularizers, solvers
from .numerics import (
    RngStream,
    central_difference_gradient,
    l2_norm_sq,
    sample_with_replacement,
)


# -- one small instance per problem class --------------------------------------


def _portfolio():
    return problems.PortfolioProblem(
        problems.gen_gaussian_rewards(15, 6, 2.0, RngStream(0))
    )


def _policy_eval(gamma=0.9, n_states=8):
    return problems.PolicyEvalProblem(
        *problems.gen_mdp(n_states, 4, RngStream(1)), gamma
    )


def _linquad(n2=8):
    # n1 != n2, so a sampler or counter that mixes the two populations shows
    return problems.gen_linquad(10, n2, 6, 5, RngStream(2))


def _lasso():
    return problems.gen_lasso(12, 6, RngStream(3))


def _compositions():
    return _portfolio(), _policy_eval(), _linquad(), _lasso()


def _generic_view(prob):
    """prob's four evaluators on a bare CompositionProblem, so that every other
    operation is the base class's generic default: a new class's only path."""
    view = problems.CompositionProblem()
    for name in ("n1", "n2", "dim_x", "dim_y", "inner_value_batch",
                 "inner_jacobian_batch", "outer_value_batch", "outer_gradient_batch"):
        setattr(view, name, getattr(prob, name))
    return view


def same_rows_modulo_wall(rows_a, rows_b):
    """Trace rows (column -> value mappings) equal in every column but
    wall_ms, NaN matching NaN: what a replayed run must reproduce."""
    return len(rows_a) == len(rows_b) and all(
        a[col] == b[col] or (math.isnan(a[col]) and math.isnan(b[col]))
        for a, b in zip(rows_a, rows_b) for col in a if col != "wall_ms"
    )


def _solver_runs(trial):
    """Every solver with sizes drawn for the trial: the compositional ones on
    a composition class chosen by the trial, proximal SVRG on the lasso. Yields
    (run, closed form): run takes the solvers' keyword options, and the
    closed form maps a result to its query triple by kind and its `oracle`
    total."""
    rng = RngStream(100 + trial)
    m, a, b, b1, s = (int(rng.integers(6)) + 1 for _ in range(5))
    iters = int(rng.integers(40)) + 1
    prob, fsp = _compositions()[trial % 4], _lasso()
    n1, n2, n = prob.n1, prob.n2, fsp.n
    reg = regularizers.L1Penalty(1e-3)
    cfg = solvers.VrscpgConfig(eta=0.05, m=m, S_epochs=s, A=a, B=b, b1=b1, seed=trial)
    yield (lambda **kw: solvers.vrsc_pg(prob, reg, cfg, **kw), lambda res: (
        (s * (n2 + 2 * m * a), s * (n2 + 2 * m * b), s * (n1 + 2 * m * b1)),
        oracle.vrsc_pg_cost(n1, n2, m, a, b, b1, s)))
    yield (lambda **kw: solvers.scpg_baseline(prob, reg, alpha0=0.02, beta0=1.0,
                                              exp_alpha=0.75, exp_beta=0.5,
                                              iters=iters, seed=trial, **kw),
           lambda res: ((iters,) * 3, oracle.scpg_cost(iters)))
    yield (lambda **kw: solvers.prox_svrg(fsp, reg, eta=0.4, m=m, S_epochs=s,
                                          seed=trial, **kw),
           lambda res: ((0, 0, s * (n + 2 * m)), oracle.prox_svrg_cost(n, m, s)))
    yield (lambda **kw: solvers.prox_full_gradient(prob, reg, eta=0.05, iters=iters, **kw),
           lambda res: ((res.n_iters * n2, res.n_iters * n2, res.n_iters * n1),
                        oracle.prox_full_gradient_cost(n1, n2, res.n_iters)))


# -- checks -------------------------------------------------------------------


def check_sampling_uniformity():
    draws = sample_with_replacement(RngStream(11), 10, 100_000)
    counts = np.bincount(draws, minlength=10)
    worst = float(np.abs(counts - 10_000).max() / np.sqrt(100_000 * 0.1 * 0.9))
    return "sampling uniformity (4 sigma)", worst <= 4.0, f"worst z = {worst:.2f}"


def check_finite_differences():
    """Every class's full gradient, and each lasso component gradient, against
    central differences of the matching value."""
    fsp = _lasso()
    cases = [(p.objective_f, p.full_gradient, p.dim_x) for p in _compositions()]
    for i in range(5):
        idx = np.array([i])
        cases.append((lambda x, idx=idx: float(fsp.comp_value_batch(idx, x)[0]),
                      lambda x, idx=idx: fsp.comp_gradient_batch(idx, x)[0], fsp.dim_x))
    rng = RngStream(12)
    worst = 0.0
    for value, gradient, dim in cases:
        for _ in range(20):
            x = rng.normal(size=dim)
            g = gradient(x)
            fd = central_difference_gradient(value, x)
            worst = max(worst, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0)))
    return "gradient vs finite differences", worst <= 1e-6, (
        f"worst rel = {worst:.2e}, every class"
    )


def check_prox_properties():
    """Soft thresholding is nonexpansive and beats perturbed candidates."""
    rng = RngStream(13)
    ok = True
    for _ in range(20):
        reg = regularizers.L1Penalty(0.01 + 2.0 * rng.uniform())
        eta = 0.01 + 3.0 * rng.uniform()
        a, b = rng.normal(size=(50, 5)), rng.normal(size=(50, 5))
        pa = reg.prox(a, eta)
        dist = np.linalg.norm(pa - reg.prox(b, eta), axis=1)
        ok &= bool(np.all(dist <= np.linalg.norm(a - b, axis=1) + 1e-12))

        def prox_objective(p):
            penalty = np.apply_along_axis(reg.value, -1, p)
            return penalty + ((p - a[:, None]) ** 2).sum(-1) / (2 * eta)

        cands = pa[:, None] + 0.2 * rng.normal(size=(50, 5, 5))
        ok &= bool(np.all(prox_objective(cands) >= prox_objective(pa[:, None]) - 1e-12))
    return "prox nonexpansive and optimal", ok, "1000 pairs, 5 candidates each"


def check_subgradient_membership():
    reg = regularizers.L1Penalty(0.9)
    rng = RngStream(14)
    ok = True
    for _ in range(200):
        x = rng.normal(size=5)
        x[np.abs(x) < 0.3] = 0.0
        g = reg.min_norm_subgradient(x, rng.normal(size=5))
        nz = x != 0
        ok &= bool(np.all(np.abs(g) <= reg.lam + 1e-15))
        ok &= np.array_equal(g[nz], reg.lam * np.sign(x[nz]))
    return "min-norm subgradient membership", ok, "200 random points"


def check_embedding_fidelity():
    rng = RngStream(15)
    worst = 0.0
    for prob in (_portfolio(), _policy_eval()):
        for _ in range(50):
            x = rng.normal(size=prob.dim_x)
            direct = prob.direct_objective(x)
            worst = max(worst, abs(prob.objective_f(x) - direct) / max(abs(direct), 1e-2))
    return "composition embeddings match direct objectives", worst <= 1e-10, (
        f"worst rel = {worst:.2e}"
    )


def check_policy_eval_zero_residual():
    pol = _policy_eval()
    value = pol.objective_f(pol.exact_value_function())
    return "Bellman solve has zero residual", value <= 1e-9, f"f(V*) = {value:.2e}"


def check_mdp_generation():
    p, r = problems.gen_mdp(25, 4, RngStream(16))
    ok = bool(np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12 and p.min() > 0
              and r.min() >= 0 and r.max() <= 1)
    return "generated MDP row-stochastic and ergodic", ok, f"min entry = {p.min():.2e}"


def check_query_exactness():
    """Every solver's live counter, total and by kind, equals its closed form."""
    runs = mismatches = 0
    for trial in range(20):
        for run, closed_form in _solver_runs(trial):
            res = run(trace_stride=10**9)  # rows spend no queries
            runs += 1
            mismatches += (res.counter.snapshot(), res.counter.total) != closed_form(res)
    return "live query counter matches closed form", mismatches == 0, (
        f"{mismatches} mismatches over {runs} runs, every solver"
    )


def check_counting_transparency():
    """The counted handle returns the raw problem's numbers bitwise and
    charges exactly the per-index cost model, for every class; a counted full
    pass on the lasso pays (1, 1, n), like any other with n2 = 1. Every public
    method the handle offers has a row, so that none escapes the check."""
    rng = RngStream(17)
    is_ = np.array([1, 0, 1, 2])  # repeated indices included
    k, same, untested = len(is_), True, set()

    def same_and_charged(cp, counter, prob, name, args, charge):
        before = counter.snapshot()
        result, raw = getattr(cp, name)(*args), getattr(prob, name)(*args)
        spent = tuple(b - a for a, b in zip(before, counter.snapshot()))
        if not isinstance(raw, tuple):  # full_pass and objective_and_gradient give tuples
            result, raw = (result,), (raw,)
        return bool(len(result) == len(raw) and spent == charge
                    and all(map(np.array_equal, result, raw)))

    # linquad's closed forms at n2 = 70 > 64, and the same instance through the
    # generic defaults alone, whose mean Jacobian is then a chunked loop
    wide = _linquad(n2=70)
    for prob in (*_compositions(), wide, _generic_view(wide)):
        cp, counter = oracle.counted(prob)
        n1, n2, js = prob.n1, prob.n2, is_ % prob.n2  # the lasso's js are all 0
        x, x_tilde = rng.normal(size=prob.dim_x), rng.normal(size=prob.dim_x)
        y, u = rng.normal(size=prob.dim_y), rng.normal(size=prob.dim_y)
        snap = solvers.compute_snapshot(prob, x_tilde)
        table = [
            # |A| = 4, |B| = 3, |I| = 2, so that each charge reads its own set
            ("variance_reduced_step", (snap, js, js[1:], is_[:2], x), (2 * k, 2 * (k - 1), 2 * 2)),
            ("tracking_step", (js[:1], is_[1:2], x, y, 0.3, 0.7), (1, 1, 1)),
            ("full_gradient", (x,), (n2, n2, n1)),
            ("full_pass", (x,), (n2, n2, n1)),
            ("objective_and_gradient", (x,), (n2, n2, n1)),
            ("objective_f", (x,), (n2, 0, 0)),
            ("full_inner_value", (x,), (n2, 0, 0)),
            ("full_inner_jacobian", (x,), (0, n2, 0)),
            ("mean_outer_gradient", (y,), (0, 0, n1)),
            ("mean_inner_vjp", (prob.full_inner_jacobian(x), u), (0, 0, 0)),
            ("inner_value_batch", (js, x), (k, 0, 0)),
            ("inner_jacobian_batch", (js, x), (0, k, 0)),
            ("inner_vjp_batch", (js, x, u), (0, k, 0)),
            ("outer_gradient_batch", (is_, y), (0, 0, k)),
            ("outer_value_batch", (is_, y), (0, 0, 0)),
        ]
        if isinstance(prob, problems.FiniteSumProblem):
            table += [("comp_gradient_batch", (is_, x), (0, 0, k)),
                      ("comp_gradient_diff_mean", (is_, x_tilde, x), (0, 0, 2 * k))]
        for name, args, charge in table:
            same &= same_and_charged(cp, counter, prob, name, args, charge)
        untested |= {name for name in dir(cp) if not name.startswith("_")
                     and callable(getattr(cp, name))} - {row[0] for row in table}
    return "counting wrapper changes no numbers", same and not untested, (
        "bitwise results and exact charges of every counted method, every class "
        "and the generic defaults" + (f"; no row for {sorted(untested)}" if untested else "")
    )


def check_closed_forms_match_generic():
    """Every closed-form override equals the base class's generic default,
    within 1e-13 of the default's largest entry (exactly, where the default
    is zero), for every class, part by part where it returns a tuple; the
    variance-reduced step at x != x_tilde, whose A, B and I differ, and the
    two-timescale step with both terms of its average nonzero, at j != i and
    at j = i (where policy evaluation's v puts both of its terms on one
    entry), whose parts are y_new and the point x - alpha v. The mean
    Jacobian, the class's own operator data, is applied by its
    `mean_inner_vjp` to a dense v, to a v with two nonzeros per half and to
    every unit vector, against the dense mean. The lasso's paired
    difference of component gradients is held to the finite sum's default."""
    rng = RngStream(20)
    is_ = np.array([1, 0, 1, 2])  # repeated indices included
    worst, where = 0.0, "none"

    def compare(label, fast, generic):
        nonlocal worst, where
        if isinstance(generic, tuple):
            for k, parts in enumerate(zip(fast, generic, strict=True)):
                compare(f"{label}[{k}]", *parts)
            return
        fast, generic = np.asarray(fast), np.asarray(generic)
        scale = max(float(np.max(np.abs(generic))), np.finfo(float).tiny)
        err = math.inf if fast.shape != generic.shape else float(
            np.max(np.abs(fast - generic)) / scale)
        if err > worst or math.isnan(err):  # a NaN stays the worst
            worst, where = err, label

    base = problems.CompositionProblem
    for prob in (_portfolio(), _policy_eval(n_states=24), _linquad(), _lasso()):
        js = is_ % prob.n2
        x, x_tilde, y, u = (rng.normal(size=d)
                            for d in (prob.dim_x, prob.dim_x, prob.dim_y, prob.dim_y))
        snap = solvers.compute_snapshot(prob, x_tilde)
        half = prob.dim_y // 2
        sparse = np.zeros(prob.dim_y)
        sparse[rng.integers(half, size=2)] = rng.normal(size=2)
        sparse[half + rng.integers(prob.dim_y - half, size=2)] = rng.normal(size=2)
        for name, args in (("full_inner_value", (x,)), ("mean_outer_gradient", (y,)),
                           ("variance_reduced_step", (snap, js, js[1:], is_ + 1, x)),
                           ("tracking_step", (js[3:], is_[1:2], x, y, 0.3, 0.7)),
                           ("tracking_step", (js[:1], is_[2:3], x, y, 0.3, 0.7)),
                           ("objective_and_gradient", (x,))):
            if getattr(type(prob), name) is getattr(base, name):
                continue  # no override: the default would meet itself
            compare(f"{prob.kind}.{name}", getattr(prob, name)(*args),
                    getattr(base, name)(prob, *args))
        if isinstance(prob, problems.FiniteSumProblem):
            compare(f"{prob.kind}.comp_gradient_diff_mean",
                    prob.comp_gradient_diff_mean(is_, x_tilde, x),
                    problems.FiniteSumProblem.comp_gradient_diff_mean(prob, is_, x_tilde, x))
        jac, dense = prob.full_inner_jacobian(x), base.full_inner_jacobian(prob, x)
        for v in (u, sparse, *np.eye(prob.dim_y)):
            compare(f"{prob.kind}.full_inner_jacobian", prob.mean_inner_vjp(jac, v),
                    dense.T @ v)
    return "closed forms equal the generic defaults", worst <= 1e-13, (
        f"worst rel = {worst:.1e} ({where}), every class; dense, sparse and unit v"
    )


def check_snapshot_cancellation():
    """At the epoch snapshot each estimator, and each class's
    variance-reduced step, equals its full-batch value; the dense Jacobian
    estimate on the generic view, whose J_s is dense."""
    probs = [(prob, _generic_view(prob)) for prob in _compositions()]
    rng = RngStream(18)
    exact = True
    for trial in range(99):
        prob, view = probs[trial % len(probs)]
        x = rng.normal(size=prob.dim_x)
        snap = solvers.compute_snapshot(prob, x)
        a = sample_with_replacement(rng, prob.n2, 4)
        b = sample_with_replacement(rng, prob.n2, 3)
        i = sample_with_replacement(rng, prob.n1, 5)
        exact &= np.array_equal(solvers.estimate_inner_value(snap, prob, x, a), snap.G_s)
        dense = solvers.compute_snapshot(view, x)
        exact &= np.array_equal(solvers.estimate_inner_jacobian(dense, view, x, b), dense.J_s)
        v = solvers.estimate_gradient_vt(snap, prob, x, snap.G_s, b, i)
        exact &= np.array_equal(v, snap.grad_f_s)
        v = prob.variance_reduced_step(snap, a, b, i, x.copy())
        exact &= np.array_equal(v, snap.grad_f_s)
    return "estimators cancel exactly at the snapshot", exact, (
        "value, Jacobian, gradient and step bitwise, every composition class"
    )


def check_variance_vanishes_at_snapshot():
    """The variance-reduced step's error v - grad f(x) has zero mean and a mean
    square that shrinks with the square of the distance from the snapshot, for
    every composition class: at radii 1e-1, 1e-2 and 1e-3 along one direction
    the log-log slope of the mean square lies in [1.8, 2.2], and at the
    largest radius every entry of the mean error lies within 4 standard
    errors of zero. The raw problem's hook runs, so every closed form is
    covered and no counted query is spent."""
    rng = RngStream(23)
    radii = (1e-1, 1e-2, 1e-3)
    slopes, worst_z = [], 0.0
    for prob in _compositions():
        x_tilde, direction = rng.normal(size=(2, prob.dim_x))
        snap = solvers.compute_snapshot(prob, x_tilde)
        unit = direction / np.linalg.norm(direction)
        errors = [metrics.estimator_error(prob, snap, x_tilde + r * unit, rng, 2000)
                  for r in radii]
        slopes.append(float(np.polyfit(np.log(radii), np.log([e[2] for e in errors]), 1)[0]))
        mean, stderr, _ = errors[0]
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero entry has no z
            z = np.where(mean == 0.0, 0.0, np.abs(mean) / stderr)
        worst_z = max(worst_z, float(z.max()))
    ok = all(1.8 <= s <= 2.2 for s in slopes) and worst_z <= 4.0
    return "variance vanishes at the snapshot", ok, (
        f"slopes {min(slopes):.3f} to {max(slopes):.3f}, worst z = {worst_z:.1f}, "
        "every composition class"
    )


def check_full_batch_degeneration():
    """With m = 1, vrsc_pg with full or single-index batches is proximal
    gradient descent: every row's objective within 1e-12, x_final bitwise."""
    reg = regularizers.L1Penalty(1e-3)
    eta, steps = 0.05, 50
    bitwise, worst = True, 0.0
    for prob in _compositions():
        ref = solvers.prox_full_gradient(prob, reg, eta, steps)
        for a, b, b1 in ((prob.n2, prob.n2, prob.n1), (1, 1, 1)):
            cfg = solvers.VrscpgConfig(eta=eta, m=1, S_epochs=steps, A=a, B=b, b1=b1)
            res = solvers.vrsc_pg(prob, reg, cfg)
            bitwise &= len(res.trace) == len(ref.trace)
            bitwise &= np.array_equal(res.x_final, ref.x_final)
            worst = max(worst, *(abs(r.objective - q.objective)
                                 for r, q in zip(res.trace, ref.trace)))
    return "vrsc_pg with m = 1 equals proximal gradient", bitwise and worst <= 1e-12, (
        f"max objective deviation {worst:.1e}, full and single batches"
    )


def check_determinism():
    """Every solver on every class replays its iterate and rows bitwise."""
    same, rows = True, 0
    for trial in range(3):
        for run, _ in _solver_runs(trial):
            r1, r2 = run(trace_stride=5), run(trace_stride=5)
            same &= np.array_equal(r1.x_final, r2.x_final)
            same &= same_rows_modulo_wall([vars(r) for r in r1.trace],
                                          [vars(r) for r in r2.trace])
            rows += len(r1.trace)
    return "same seed replays bitwise", same, f"{rows} trace rows, every solver and class"


def check_trace_blocks():
    """Trace rows evaluated as one block equal the same rows recorded one at a
    time, in every field but wall_ms, bitwise, for every class, with the L1
    penalty at iterates that hold exact zeros and with the zero penalty; and a
    block whose middle row's objective is not finite raises the error that row
    raises alone: the rows before it, that very iterate and its query triple."""
    rng = RngStream(22)
    same, rows = True, 0

    def recorded(prob, reg, points, one_at_a_time):
        counter = oracle.QueryCounter()
        rec = metrics.TraceRecorder(prob, reg, 0.3, counter, x_star=points[0], stride=1)
        try:
            for t, x in enumerate(points):
                counter.add(1, 2, 3)  # each row gets its own query triple
                rec.record(0, t, x, force=one_at_a_time or t == len(points) - 1)
        except metrics.DivergedError as err:
            return [vars(r) for r in err.trace], err.x_last, err.queries, str(err)
        return [vars(r) for r in rec.rows], None, None, None

    for prob in _compositions():
        points = [rng.normal(size=prob.dim_x) for _ in range(5)]
        for x in points[1:]:
            x[::2] = 0.0  # the L1 subgradient clamps here
        x_bad = np.full(prob.dim_x, 1e200)  # a finite iterate whose objective overflows
        for reg in (regularizers.L1Penalty(0.05), regularizers.ZeroPenalty()):
            with np.errstate(over="ignore", invalid="ignore"):
                for run in (points, [*points[:2], x_bad, *points[3:]]):
                    block, single = (recorded(prob, reg, run, one) for one in (False, True))
                    same &= same_rows_modulo_wall(block[0], single[0])
                    same &= block[1] is single[1] and block[2:] == single[2:]
                    rows += len(block[0])
            # the second run ends at x_bad, its third row, with two rows before it
            same &= block[1] is x_bad and len(block[0]) == 2 and block[2] == (3, 6, 9)
    return "trace blocks equal rows one at a time", bool(same), (
        f"{rows} rows bitwise and a mid-block divergence, every class, L1 and zero penalty"
    )


def check_stationarity_metrics():
    """The composite-gradient norm and the gradient mapping vanish at a
    regularized optimum, and the former does not away from it."""
    reg = regularizers.L1Penalty(1e-3)
    rng = RngStream(19)
    composite, mapping, away = 0.0, 0.0, math.inf
    # gamma = 0.5 keeps the policy-evaluation reference solve at 200 iterations
    probs = (_portfolio(), _policy_eval(gamma=0.5), _linquad(), _lasso())
    for prob, eta in zip(probs, (0.4, 2.0, 0.25, 2.0)):
        x_opt = solvers.prox_full_gradient(prob, reg, eta, 100_000, tol=1e-12,
                                           trace_stride=10**9).x_final
        composite = max(composite, metrics.composite_grad_sq(prob, reg, x_opt))
        mapping = max(mapping, l2_norm_sq(metrics.gradient_mapping(prob, reg, x_opt, eta)))
        for _ in range(20):
            x = x_opt + rng.normal(size=prob.dim_x)
            away = min(away, metrics.composite_grad_sq(prob, reg, x))
    ok = composite <= 1e-12 and mapping <= 1e-14 and away > 1e-6
    return "stationarity metrics vanish only at optima", ok, (
        f"at opt {composite:.1e}/{mapping:.1e}, away {away:.1e}, every class"
    )


def check_budget_respected():
    prob = _portfolio()
    reg = regularizers.ZeroPenalty()
    cfg = solvers.VrscpgConfig(eta=0.02, m=50, S_epochs=50, A=2, B=2, b1=2, seed=1)
    budget = 700
    res = solvers.vrsc_pg(prob, reg, cfg, budget_queries=budget)
    limit = budget + 2 * cfg.A + 2 * cfg.B + 2 * cfg.b1
    return "query budget respected", res.counter.total <= limit, (
        f"total {res.counter.total} vs limit {limit}"
    )


ALL_CHECKS = (
    check_sampling_uniformity,
    check_finite_differences,
    check_prox_properties,
    check_subgradient_membership,
    check_embedding_fidelity,
    check_policy_eval_zero_residual,
    check_mdp_generation,
    check_query_exactness,
    check_counting_transparency,
    check_closed_forms_match_generic,
    check_snapshot_cancellation,
    check_variance_vanishes_at_snapshot,
    check_full_batch_degeneration,
    check_determinism,
    check_trace_blocks,
    check_stationarity_metrics,
    check_budget_respected,
)


def run_all():
    """Run every check; returns a list of (name, passed, detail). A check that
    raises fails, under its function's name, with the exception's type and
    message as its detail, and the checks after it still run."""
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn())
        except Exception as err:
            results.append((fn.__name__, False, f"raised {type(err).__name__}: {err}"))
    return results
