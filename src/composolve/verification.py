"""Built-in verification suite: fast, seeded checks of the core invariants.

Each check runs at desk scale and returns (name, passed, detail). The CLI
`check` subcommand prints one line per check and exits nonzero on any
failure.
"""

import numpy as np

from . import metrics, oracle, problems, regularizers, solvers
from .numerics import (
    RngStream,
    central_difference_gradient,
    l2_norm_sq,
    sample_with_replacement,
)


def _toy_portfolio(seed=3, n=40, dim=8):
    rng = RngStream(seed)
    return problems.PortfolioProblem(
        problems.gen_gaussian_rewards(n, dim, 3.0, rng)
    )


def _toy_policy_eval(seed=4, n_states=12):
    rng = RngStream(seed)
    p, r = problems.gen_mdp(n_states, 4, rng)
    return problems.PolicyEvalProblem(p, r, 0.9)


def _toy_linquad(seed=5, n1=15, n2=15, dim_y=8, dim_x=6):
    rng = RngStream(seed)
    return problems.gen_linquad(n1, n2, dim_y, dim_x, rng)


def check_sampling_uniformity():
    rng = RngStream(11)
    draws = sample_with_replacement(rng, 10, 100_000)
    counts = np.bincount(draws, minlength=10)
    sigma = np.sqrt(100_000 * 0.1 * 0.9)
    worst = float(np.abs(counts - 10_000).max() / sigma)
    return "sampling uniformity (4 sigma)", worst <= 4.0, f"worst z = {worst:.2f}"


def check_finite_differences():
    prob = _toy_portfolio()
    rng = RngStream(12)
    worst = 0.0
    for _ in range(5):
        x = rng.normal(size=prob.dim_x)
        fd = central_difference_gradient(prob.objective_f, x)
        g = prob.full_gradient(x)
        worst = max(worst, np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0))
    return "gradient vs finite differences", worst <= 1e-5, f"worst rel = {worst:.2e}"


def check_prox_properties():
    reg = regularizers.L1Penalty(0.7)
    rng = RngStream(13)
    ok = True
    for _ in range(200):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        eta = 0.1 + 2.0 * rng.uniform()
        pa, pb = reg.prox(a, eta), reg.prox(b, eta)
        if np.linalg.norm(pa - pb) > np.linalg.norm(a - b) + 1e-12:
            ok = False
        obj = reg.value(pa) + l2_norm_sq(pa - a) / (2 * eta)
        for _ in range(20):
            cand = pa + 0.1 * rng.normal(size=6)
            if reg.value(cand) + l2_norm_sq(cand - a) / (2 * eta) < obj - 1e-12:
                ok = False
    return "prox nonexpansive and optimal", ok, "200 pairs, 20 candidates each"


def check_subgradient_membership():
    reg = regularizers.L1Penalty(0.4)
    rng = RngStream(14)
    ok = True
    for _ in range(100):
        x = rng.normal(size=5)
        x[rng.integers(5)] = 0.0
        g = reg.min_norm_subgradient(x, rng.normal(size=5))
        if np.any(np.abs(g) > reg.lam + 1e-15):
            ok = False
        nz = x != 0
        if not np.allclose(g[nz], reg.lam * np.sign(x[nz])):
            ok = False
    return "min-norm subgradient membership", ok, "100 random points"


def check_embedding_fidelity():
    port = _toy_portfolio()
    pol = _toy_policy_eval()
    rng = RngStream(15)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=port.dim_x)
        d = abs(port.objective_f(x) - port.direct_objective(x))
        worst = max(worst, d / max(abs(port.direct_objective(x)), 1.0))
        v = rng.normal(size=pol.dim_x)
        d = abs(pol.objective_f(v) - pol.direct_objective(v))
        worst = max(worst, d / max(abs(pol.direct_objective(v)), 1.0))
    return "composition embeddings match direct objectives", worst <= 1e-10, (
        f"worst rel = {worst:.2e}"
    )


def check_policy_eval_zero_residual():
    pol = _toy_policy_eval()
    value = pol.objective_f(pol.exact_value_function())
    return "Bellman solve has zero residual", value <= 1e-9, f"f(V*) = {value:.2e}"


def check_mdp_generation():
    rng = RngStream(16)
    p, _ = problems.gen_mdp(30, 5, rng)
    rows_ok = np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
    positive = p.min() > 0
    return "generated MDP row-stochastic and ergodic", rows_ok and positive, (
        f"min entry = {p.min():.2e}"
    )


def check_query_exactness():
    prob = _toy_linquad()
    reg = regularizers.L1Penalty(1e-3)
    cfg = solvers.VrscpgConfig(eta=0.05, m=7, S_epochs=3, A=4, B=3, b1=5, seed=2)
    res = solvers.vrsc_pg(prob, reg, cfg)
    want = oracle.vrsc_pg_cost(prob.n1, prob.n2, cfg.m, cfg.A, cfg.B, cfg.b1, 3)
    return "live query counter matches closed form", res.counter.total == want, (
        f"counted {res.counter.total}, predicted {want}"
    )


def check_counting_transparency():
    rng = RngStream(17)
    same = True
    # n2 = 70 > 64: a chunked generic Jacobian loop would sum in another order
    js = np.array([1, 0, 1, 2])
    for prob in (_toy_portfolio(), _toy_policy_eval(), _toy_linquad(n2=70)):
        wrapped, counter = oracle.counted(prob)
        x = rng.normal(size=prob.dim_x)
        for name in ("full_gradient", "full_inner_jacobian"):
            same &= np.array_equal(getattr(prob, name)(x), getattr(wrapped, name)(x))
        u = rng.normal(size=prob.dim_y)
        before = counter.snapshot()
        vjp = wrapped.inner_vjp_batch(js, x, u)
        charged = tuple(b - a for a, b in zip(before, counter.snapshot()))
        same &= np.array_equal(vjp, prob.inner_vjp_batch(js, x, u))
        same &= charged == (0, len(js), 0)
    return "counting wrapper changes no numbers", same, (
        "bitwise gradient, Jacobian and J^T u, every problem class"
    )


def check_snapshot_cancellation():
    prob = _toy_policy_eval()
    rng = RngStream(18)
    x = rng.normal(size=prob.dim_x)
    snap = solvers.compute_snapshot(prob, x)
    a_idx = sample_with_replacement(rng, prob.n2, 6)
    g_hat = solvers.estimate_inner_value(snap, prob, x, a_idx)
    j_hat = solvers.estimate_inner_jacobian(snap, prob, x, a_idx)
    v = solvers.estimate_gradient_vt(
        snap, prob, x, g_hat, a_idx, sample_with_replacement(rng, prob.n1, 4)
    )
    ok = (
        np.array_equal(g_hat, snap.G_s)
        and np.array_equal(j_hat, snap.J_s)
        and np.max(np.abs(v - snap.grad_f_s)) <= 1e-12
    )
    return "estimators cancel exactly at the snapshot", ok, "value/Jacobian/gradient"


def check_full_batch_degeneration():
    prob = _toy_linquad()
    reg = regularizers.L1Penalty(1e-3)
    eta = 0.1
    cfg = solvers.VrscpgConfig(eta=eta, m=1, S_epochs=10, A=prob.n2, B=prob.n2,
                               b1=prob.n1, seed=0)
    res = solvers.vrsc_pg(prob, reg, cfg)
    ref = solvers.prox_full_gradient(prob, reg, eta, 10)
    diff = float(np.max(np.abs(res.x_final - ref.x_final)))
    return "vrsc_pg with m = 1 equals proximal gradient", diff <= 1e-12, (
        f"max |dx| = {diff:.2e}"
    )


def check_determinism():
    prob = _toy_portfolio()
    reg = regularizers.L1Penalty(1e-3)
    cfg = solvers.VrscpgConfig(eta=0.05, m=10, S_epochs=3, A=3, B=3, b1=3, seed=9)
    r1 = solvers.vrsc_pg(prob, reg, cfg)
    r2 = solvers.vrsc_pg(prob, reg, cfg)
    same = np.array_equal(r1.x_final, r2.x_final) and all(
        a.objective == b.objective for a, b in zip(r1.trace, r2.trace)
    )
    return "same seed replays bitwise", same, f"{len(r1.trace)} trace rows"


def check_stationarity_metrics():
    prob = _toy_linquad()
    reg = regularizers.L1Penalty(1e-2)
    ref = solvers.prox_full_gradient(prob, reg, 0.1, 50_000, tol=1e-14)
    at_opt = metrics.composite_grad_sq(prob, reg, ref.x_final)
    gm_opt = l2_norm_sq(metrics.gradient_mapping(prob, reg, ref.x_final, 0.1))
    rng = RngStream(19)
    away = metrics.composite_grad_sq(prob, reg, ref.x_final + rng.normal(size=prob.dim_x))
    ok = at_opt <= 1e-12 and gm_opt <= 1e-12 and away > 1e-6
    return "stationarity metrics vanish only at optima", ok, (
        f"at opt {at_opt:.1e}/{gm_opt:.1e}, away {away:.1e}"
    )


def check_budget_respected():
    prob = _toy_portfolio()
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
    check_snapshot_cancellation,
    check_full_batch_degeneration,
    check_determinism,
    check_stationarity_metrics,
    check_budget_respected,
)


def run_all():
    """Run every check; returns a list of (name, passed, detail)."""
    return [fn() for fn in ALL_CHECKS]
