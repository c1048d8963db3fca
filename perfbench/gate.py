"""Correctness gate: what no speed-up may change.

For every completed solver call the query totals by kind must equal the
closed form of `composolve.oracle` for the epochs and iterations it
completed. For every seed run the iteration count, the queries needed to
reach the gap threshold (`vrsc_pg`) and the final objective must match
the values recorded in expected.json; the first two exactly, the
objective within `objective_rtol`.
"""

import hashlib
import math

from composolve import metrics, oracle

# floor of the objective check, far below every recorded objective; the
# check is relative (expected.json's objective_rtol) above it
OBJECTIVE_ATOL = 1e-15


def _ceil_div(a, b):
    return -(-a // b)


def closed_form_queries(call):
    """((inner_value, inner_jacobian, outer_gradient), total) for a finished call."""
    args, t = call.args, call.result.n_iters
    if call.solver == "vrsc_pg":
        p, cfg = args["problem"], args["cfg"]
        epochs = _ceil_div(t, cfg.m)
        per_iter = 2 * cfg.A + 2 * cfg.B + 2 * cfg.b1
        total = (oracle.vrsc_pg_cost(p.n1, p.n2, cfg.m, cfg.A, cfg.B, cfg.b1, epochs)
                 - (epochs * cfg.m - t) * per_iter)
        kinds = (epochs * p.n2 + 2 * cfg.A * t, epochs * p.n2 + 2 * cfg.B * t,
                 epochs * p.n1 + 2 * cfg.b1 * t)
    elif call.solver == "scpg":
        total, kinds = oracle.scpg_cost(t), (t, t, t)
    elif call.solver == "prox_svrg":
        n, m = args["fsp"].n, args["m"]
        epochs = _ceil_div(t, m)
        total = oracle.prox_svrg_cost(n, m, epochs) - (epochs * m - t) * 2
        kinds = (0, 0, epochs * n + 2 * t)
    else:
        p = args["problem"]
        total = oracle.prox_full_gradient_cost(p.n1, p.n2, t)
        kinds = (t * p.n2, t * p.n2, t * p.n1)
    return kinds, total


def observe(call, gap_threshold):
    """The invariants of one finished call, as plain data."""
    res = call.result
    obs = {
        "solver": call.solver,
        "phase": call.phase,
        "seed": call.seed,
        "wall_s": call.wall_s,
        "kernel_s": call.kernel_s,
        "diverged": call.diverged,
    }
    if res is None:
        return obs
    problem = call.args.get("problem", call.args.get("fsp"))
    obs.update(
        iters=res.n_iters,
        rows=len(res.trace),
        gap_finite=bool(res.trace) and math.isfinite(res.trace[-1].gap),
        queries=list(res.counter.snapshot()),
        total=res.counter.total,
        x_sha=hashlib.sha256(res.x_final.tobytes()).hexdigest(),
    )
    if call.phase == "seed":
        obs["objective"] = metrics.objective_H(problem, call.args["reg"], res.x_final)
        obs["queries_to_gap"] = metrics.queries_to_threshold(res.trace, gap_threshold)
        obs["time_to_gap_s"] = call.time_to_gap_s
    return obs


def check_call(call, obs):
    """Closed-form query accounting; returns a list of failure messages."""
    if call.result is None:
        return []
    kinds, total = closed_form_queries(call)
    if tuple(obs["queries"]) != kinds or obs["total"] != total:
        return [f"{call.solver} seed {obs['seed']}: queries {obs['queries']} "
                f"(total {obs['total']}), closed form {list(kinds)} (total {total})"]
    return []


def check_seed_run(obs, recorded, rtol):
    """A seed run against its recorded invariants."""
    where = f"{obs['solver']} seed {obs['seed']}"
    if obs["diverged"]:
        return [f"{where}: diverged"]
    if recorded is None:
        return [f"{where}: no recorded invariants"]
    failures = []
    if obs["iters"] != recorded["iters"]:
        failures.append(f"{where}: {obs['iters']} iterations, recorded {recorded['iters']}")
    if obs["queries"] != recorded["queries"]:
        failures.append(f"{where}: queries {obs['queries']}, recorded {recorded['queries']}")
    if "queries_to_gap" in recorded:
        if obs["queries_to_gap"] != recorded["queries_to_gap"]:
            failures.append(f"{where}: {obs['queries_to_gap']} queries to the gap, "
                            f"recorded {recorded['queries_to_gap']}")
        elif obs["time_to_gap_s"] is None:
            failures.append(f"{where}: gap crossing was not timed")
    if abs(obs["objective"] - recorded["objective"]) > rtol * abs(recorded["objective"]) + OBJECTIVE_ATOL:
        failures.append(f"{where}: final objective {obs['objective']!r}, "
                        f"recorded {recorded['objective']!r}")
    return failures


def check_round(seed_runs, info, seeds, expected):
    """(indices of failed seed runs, failure messages) for one round.

    A message with no failed seed run (tuned step sizes, the reference
    optimum) is a round-level failure.
    """
    by_seed = expected.get("seeds", {})
    failed, failures = set(), []
    for i, obs in enumerate(seed_runs):
        recorded = by_seed.get(str(obs["seed"]), {}).get(obs["solver"])
        msgs = check_seed_run(obs, recorded, expected["objective_rtol"])
        if msgs:
            failed.add(i)
            failures += msgs
    round_level = []
    want = by_seed.get(str(seeds[0]), {}).get("tuned", {})
    if info.get("tuned", want) != want:
        round_level.append(f"tuned step sizes {info['tuned']}, recorded {want}")
    if info.get("x_star_verified") is False:
        round_level.append("reference optimum unverified")
    if round_level:
        failed = set(range(len(seed_runs)))
    return failed, failures + round_level
