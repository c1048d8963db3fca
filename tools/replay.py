"""Fingerprint every solver call of one benchmark round, or diff two fingerprints.

    python tools/replay.py --out fp.json [--root CHECKOUT]
    python tools/replay.py --diff a.json b.json [--bound 1e-13]

`--out` runs, in one process, one round of each workload that
perfbench/workloads.py defines (the pool seeds that workload seed 0
visits first), then seven edge runs: on a small policy-evaluation
instance a `tol` stop, a query budget that ends an epoch midway, and a
divergence; then three shipped steps that no workload runs: `vrsc_pg` and
`scpg_baseline` on a small lasso, the finite sum's and the lasso's closed
forms, and `scpg_baseline`, the generic default, on a small linquad; last
`scpg_baseline` on the policy-evaluation instance under the L1 weight 1e-2,
whose x_final must hold an exact zero, so that a zero whose sign flips
changes its sha256.
Each edge instance and penalty is first solved by `cli.compute_reference`,
whose optimum the edge runs take as x_star, so that their rows have a gap.
Every call of the solvers' shared loop (`solvers._drive`), the step-size
sweeps' trials and reference solves included, gives one fingerprint: the
sha256 of x_final, the iteration count, the query triple, and every trace
field but wall_ms, with the values, so that a diff can size a change. A
diverged call gives its finite rows and the query triple its
`DivergedError` carries. `--root` runs another checkout's src/ and
perfbench/ instead of this one's, so that a change can be set against its
parent; record an older checkout with that checkout's own copy of this
tool, which matches the error and the edge runs of its sources.

`--diff` prints, as JSON, the first call and field that differ and the
largest relative change: |a - b| / |a| for a row value, but against the
largest |a| of the field over the call's rows for the squared norms
`grad_map_sq` and `composite_grad_sq`, which fall toward 0 near the
optimum, and max |a - b| / max |a| for x_final; a value that turns NaN or
stops being NaN changes by inf, as does any entry of an x_final that holds
a NaN or an infinity. A change that moves no value, a zero whose sign flips
or an x_final whose sha256 differs with every entry equal, is sized 5e-324
(the least positive double): it is a difference, and fails --bound 0 but
no positive bound. Per solver it also prints the largest change of each
value field, `x_final` and every float trace field (`per_field`, whose
largest entry is the solver's), and the largest change of any row's gap
relative to that row's objective, |gap_a - gap_b| / |objective_a|
(`gap_per_objective`): near the optimum the gap is a difference of two
close objectives, so its own relative change can be large while the
objectives move by rounding. It exits 1 when the calls,
iteration counts, query triples, divergence or row counts differ, or
when a value moves by more than --bound (default 0, bitwise);
`gap_per_objective` does not enter that decision.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Trace fields that must match exactly; the others are floats, compared
# by relative change.
EXACT_FIELDS = ("epoch", "inner_iter", "q_inner_val", "q_inner_jac", "q_outer_grad")

# Trace fields sized against their largest value over the call rather than
# their own: squared norms, whose values near the optimum are rounding-sized.
CALL_SCALED_FIELDS = ("grad_map_sq", "composite_grad_sq")

# The size of a change that moves no value, such as a zero whose sign flips.
LEAST_CHANGE = 5e-324


def record(root):
    """The fingerprint document of every solver call, run from root's sources."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import workloads
    from composolve import cli, metrics, problems, regularizers, solvers
    from composolve.numerics import RngStream

    fields = [f for f in metrics.CSV_COLUMNS if f != "wall_ms"]
    calls, stage = [], ["start"]
    drive = solvers._drive

    def fingerprint(solver, x, rows, queries, n_iters, diverged):
        x = np.ascontiguousarray(x, dtype=np.float64)
        calls.append({
            "call": f"{stage[0]} #{len(calls)} {solver}",
            "solver": solver,
            "n_iters": n_iters,
            "queries": list(queries),
            "diverged": diverged,
            "x_sha": hashlib.sha256(x.tobytes()).hexdigest(),
            "x_final": x.tolist(),
            "rows": [[getattr(r, f) for f in fields] for r in rows],
        })

    def fingerprinted(*args, **kwargs):
        solver = sys._getframe(1).f_code.co_name  # the solver whose loop this is
        try:
            res = drive(*args, **kwargs)
        except metrics.DivergedError as err:
            fingerprint(solver, err.x_last, err.trace, err.queries, None, str(err))
            raise
        fingerprint(solver, res.x_final, res.trace, res.counter.snapshot(), res.n_iters,
                    None)
        return res

    solvers._drive = fingerprinted
    try:
        for name, wl in workloads.WORKLOADS.items():
            stage[0] = f"{name}/setup"
            state = wl.setup()
            stage[0] = f"{name}/round"
            with tempfile.TemporaryDirectory() as tmp:
                wl.round(state, workloads.seed_order(0)[: wl.seeds_per_round], Path(tmp))

        def reference(name, prob, reg):
            stage[0] = f"edge/{name}_reference"
            return cli.compute_reference(prob, reg, {})[0]

        prob = problems.PolicyEvalProblem(*problems.gen_mdp(50, 4, RngStream(7)), 0.5)
        reg = regularizers.L1Penalty(1e-3)
        x_star = reference("policy_eval", prob, reg)
        stage[0] = "edge/tol"
        res = solvers.prox_full_gradient(prob, reg, eta=1.0, iters=10**5, tol=1e-10,
                                         x_star=x_star, trace_stride=7)
        if res.n_iters == 10**5:
            raise RuntimeError("the tol run must stop on its tolerance")
        stage[0] = "edge/budget"  # epochs of 50 + 2 * 50 + 40 * 30 queries
        cfg = solvers.VrscpgConfig(eta=0.5, m=40, S_epochs=10, A=5, B=5, b1=5, seed=3)
        solvers.vrsc_pg(prob, reg, cfg, x_star=x_star, trace_stride=9, budget_queries=2000)
        stage[0] = "edge/diverge"
        try:
            solvers.vrsc_pg(prob, reg, dataclasses.replace(cfg, eta=1e4), x_star=x_star,
                            trace_stride=3)
        except metrics.DivergedError:
            pass
        else:
            raise RuntimeError("the divergence run must diverge")

        lasso, reg = problems.gen_lasso(40, 8, RngStream(12)), regularizers.L1Penalty(1e-2)
        x_star = reference("lasso", lasso, reg)
        stage[0] = "edge/lasso_vrsc_pg"
        cfg = solvers.VrscpgConfig(eta=0.3, m=20, S_epochs=5, A=2, B=2, b1=3, seed=4)
        solvers.vrsc_pg(lasso, reg, cfg, x_star=x_star, trace_stride=3)
        scpg = dict(alpha0=0.1, beta0=1.0, exp_alpha=0.75, exp_beta=0.5, iters=200,
                    seed=5, trace_stride=7)
        stage[0] = "edge/lasso_scpg"
        solvers.scpg_baseline(lasso, reg, x_star=x_star, **scpg)
        linquad = problems.gen_linquad(12, 9, 6, 5, RngStream(8))
        x_star = reference("linquad", linquad, reg)
        stage[0] = "edge/linquad_scpg"
        solvers.scpg_baseline(linquad, reg, x_star=x_star, **scpg)
        # the policy-evaluation instance again, under an L1 penalty that the
        # baseline's iterate meets: an exact zero of x_final, whose sign the
        # sha256 pins
        x_star = reference("policy_eval_l1", prob, reg)
        stage[0] = "edge/policy_eval_scpg"
        res = solvers.scpg_baseline(prob, reg, x_star=x_star,
                                    **dict(scpg, alpha0=10.0, iters=2000))
        if not np.any(res.x_final == 0.0):
            raise RuntimeError("the policy-evaluation scpg run must end with an exact zero")
    finally:
        solvers._drive = drive
    return {"fields": fields, "calls": calls}


def _rel(a, b, scale=None):
    """Change from a to b relative to |scale|, by default |a|. NaN against NaN
    is no change, and a zero whose sign flips is the least one; a change with
    no finite size (a value that turns NaN or stops being NaN, one to or from
    an infinity, or one against a zero or non-finite scale) is an infinite one,
    so that no comparison or max drops it."""
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if a == b:
        return 0.0 if math.copysign(1.0, a) == math.copysign(1.0, b) else LEAST_CHANGE
    scale = abs(a if scale is None else scale)
    rel = abs(a - b) / scale if 0.0 < scale < math.inf else math.inf
    return math.inf if math.isnan(rel) else rel


def _rel_vec(xa, xb):
    """Largest change from xa to xb, relative to xa's largest entry; any change
    of an iterate with a non-finite entry is an infinite one."""
    scale = max(map(abs, xa)) if all(map(math.isfinite, xa)) else math.inf
    return max(_rel(a, b, scale) for a, b in zip(xa, xb))


def diff(doc_a, doc_b, bound):
    """The comparison report of two fingerprint documents."""
    report = {"calls": len(doc_a["calls"]), "structure": None, "first_difference": None,
              "largest": {"rel": 0.0, "call": None, "field": None},
              "per_field": {}, "gap_per_objective": {}}
    names_a = [c["call"] for c in doc_a["calls"]]
    names_b = [c["call"] for c in doc_b["calls"]]
    if doc_a["fields"] != doc_b["fields"] or names_a != names_b:
        report["structure"] = "the trace fields or the solver calls differ"
        report["within_bound"] = False
        return report
    fields = doc_a["fields"]
    gap, objective = fields.index("gap"), fields.index("objective")

    def note(call, field, a, b, rel):
        if rel and report["first_difference"] is None:
            report["first_difference"] = {"call": call["call"], "field": field, "a": a, "b": b}
        per_field = report["per_field"].setdefault(call["solver"], {})
        name = field.rpartition(".")[2]  # rows[i].gap -> gap
        per_field[name] = max(per_field.get(name, 0.0), rel)
        if rel > report["largest"]["rel"]:
            report["largest"] = {"rel": rel, "call": call["call"], "field": field}

    for ca, cb in zip(doc_a["calls"], doc_b["calls"]):
        for key in ("n_iters", "queries", "diverged"):
            if ca[key] != cb[key]:
                report["structure"] = f"{ca['call']}: {key} {ca[key]} != {cb[key]}"
        if len(ca["rows"]) != len(cb["rows"]) or len(ca["x_final"]) != len(cb["x_final"]):
            report["structure"] = f"{ca['call']}: row or iterate counts differ"
        if report["structure"]:
            report["within_bound"] = False
            return report
        same = ca["x_sha"] == cb["x_sha"]
        note(ca, "x_final", ca["x_sha"], cb["x_sha"],
             0.0 if same else max(_rel_vec(ca["x_final"], cb["x_final"]), LEAST_CHANGE))
        worst = report["gap_per_objective"].get(ca["solver"], 0.0)
        for ra, rb in zip(ca["rows"], cb["rows"]):
            worst = max(worst, _rel(ra[gap], rb[gap], ra[objective]))
        report["gap_per_objective"][ca["solver"]] = worst
        scale = {f: max((abs(r[k]) for r in ca["rows"] if math.isfinite(r[k])), default=0.0)
                 for k, f in enumerate(fields) if f in CALL_SCALED_FIELDS}
        for i, (ra, rb) in enumerate(zip(ca["rows"], cb["rows"])):
            for field, a, b in zip(fields, ra, rb):
                if field not in EXACT_FIELDS:
                    note(ca, f"rows[{i}].{field}", a, b, _rel(a, b, scale.get(field)))
                elif a != b:
                    report["structure"] = f"{ca['call']}: rows[{i}].{field} {a} != {b}"
                    report["within_bound"] = False
                    return report
    report["within_bound"] = report["largest"]["rel"] <= bound
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the fingerprints here")
    mode.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the checkout whose src/ and perfbench/ --out runs")
    parser.add_argument("--bound", type=float, default=0.0,
                        help="largest relative change --diff accepts")
    args = parser.parse_args(argv)
    if args.out:
        doc = record(args.root.resolve())
        args.out.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        n_div = sum(c["diverged"] is not None for c in doc["calls"])
        print(f"wrote {len(doc['calls'])} fingerprints ({n_div} diverged) to {args.out}")
        return 0
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in args.diff]
    report = diff(*docs, args.bound)
    print(json.dumps(report, indent=1))
    return 0 if report["within_bound"] else 1


if __name__ == "__main__":
    sys.exit(main())
