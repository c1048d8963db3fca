"""Time one solver step and one lone trace row on six fixed instances.

    python tools/step_cost.py [--steps 20000] [--repeats 5] [--root CHECKOUT]

Prints, per instance, the microseconds per step of `vrsc_pg` (m = 2000, or
--steps if fewer, and A = B = b1 = 5, so one snapshot per m steps, charged to
the steps; whole epochs, up to --steps steps) and of `scpg_baseline` (--steps
steps), with no trace rows but the start and the last, and the microseconds
of one trace row evaluated alone (`TraceRecorder.record` with force, at the
scpg run's final iterate). On the lasso, a plain finite sum, `vrsc_pg` takes
A = B = b1 = 1, and `prox_svrg` runs the same epochs at the same step; the
compositions leave its column blank. Each figure is the best of --repeats
runs in this one process, with one BLAS thread. The instances are the desk
portfolio of configs/portfolio_desk.json (200 x 50), policy evaluation at
S = 400 and S = 50 (gamma 0.95), a 100 x 100 linquad (M = 40, N = 30) and
the 256 x 24 lasso of the benchmark's linquad_dense_trace, each with the
configs' L1 weight 1e-3, and policy evaluation at S = 400 once more with the
zero penalty of the benchmark's policy_eval_s400, whose prox is the identity
and returns its argument uncopied, at fixed steps at which no run diverges.
`--root` runs another checkout's src/ instead of this one's, so that a
change can be timed beside its parent. A diverged run raises; no timing is checked.
"""

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The BLAS thread count is read when numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

POLICY_EVAL_S400 = {"kind": "policy_eval", "S": 400, "num_actions": 10, "gamma": 0.95,
                    "seed": 1}
L1 = ("l1", 1e-3)

# name -> (problem spec, penalty (kind, weight), vrsc_pg eta, scpg alpha0)
INSTANCES = {
    "portfolio_desk": ({"kind": "portfolio", "n": 200, "N": 50, "kappa_cov": 2, "seed": 1},
                       L1, 0.01, 0.1),
    "policy_eval_s400": (POLICY_EVAL_S400, L1, 1.0, 1e-3),
    "policy_eval_s50": ({"kind": "policy_eval", "S": 50, "num_actions": 10,
                         "gamma": 0.95, "seed": 1}, L1, 1.0, 1e-3),
    "linquad_100": ({"kind": "linquad", "n1": 100, "n2": 100, "M": 40, "N": 30, "seed": 1},
                    L1, 0.1, 0.1),
    "lasso_256": ({"kind": "lasso", "n": 256, "N": 24, "seed": 2}, L1, 0.3, 0.1),
    "policy_eval_s400_zero": (POLICY_EVAL_S400, ("zero", 0.0), 1.0, 1e-3),
}

ROWS = 64  # lone rows per timed repeat


def best_us(run, count, repeats):
    """The best of repeats calls of run(), in microseconds per count."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best / count * 1e6


def measure(spec, penalty, eta, alpha0, steps, repeats):
    from composolve import metrics, problems, solvers
    from composolve.regularizers import make_regularizer

    prob, reg = problems.generate_problem(spec), make_regularizer(*penalty)
    finite_sum = isinstance(prob, problems.FiniteSumProblem)
    m, batch = min(2000, steps), 1 if finite_sum else 5
    cfg = solvers.VrscpgConfig(eta=eta, m=m, S_epochs=steps // m, A=batch, B=batch, b1=batch,
                               seed=0)
    quiet = {"trace_stride": steps + 1}
    out = {}

    def vr():
        out["vr"] = solvers.vrsc_pg(prob, reg, cfg, **quiet)

    def base():
        out["base"] = solvers.scpg_baseline(prob, reg, alpha0=alpha0, beta0=1.0,
                                            exp_alpha=0.75, exp_beta=0.5, iters=steps,
                                            seed=0, **quiet)

    def svrg():
        out["svrg"] = solvers.prox_svrg(prob, reg, eta, m, cfg.S_epochs, seed=0, **quiet)

    vr_steps = cfg.m * cfg.S_epochs
    vr_us = best_us(vr, vr_steps, repeats)
    base_us = best_us(base, steps, repeats)
    svrg_us = best_us(svrg, vr_steps, repeats) if finite_sum else None
    # a run cut short would be timed per step it did not take
    assert (out["vr"].n_iters, out["base"].n_iters) == (vr_steps, steps)
    assert not finite_sum or out["svrg"].n_iters == vr_steps

    xs = [out["base"].x_final.copy() for _ in range(ROWS)]

    def rows():
        rec = metrics.TraceRecorder(prob, reg, alpha0, out["base"].counter)
        for k, x in enumerate(xs):
            rec.record(0, k, x, force=True)

    return vr_us, base_us, best_us(rows, ROWS, repeats), svrg_us


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=20_000, help="steps per solver run")
    ap.add_argument("--repeats", type=int, default=5, help="runs per figure; the best counts")
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ to time")
    args = ap.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        ap.error("--steps and --repeats must be >= 1")
    sys.path.insert(0, str(args.root.resolve() / "src"))

    print(f"{'instance':<22} {'vrsc_pg us/step':>16} {'scpg us/step':>13} {'us/row':>8} "
          f"{'prox_svrg us/step':>18}")
    for name, (spec, penalty, eta, alpha0) in INSTANCES.items():
        vr_us, base_us, row_us, svrg_us = measure(spec, penalty, eta, alpha0, args.steps,
                                                  args.repeats)
        svrg = "" if svrg_us is None else f"{svrg_us:.2f}"
        print(f"{name:<22} {vr_us:>16.2f} {base_us:>13.2f} {row_us:>8.2f} {svrg:>18}")


if __name__ == "__main__":
    main()
