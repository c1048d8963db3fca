"""composolve benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload portfolio_desk --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 0               # every workload, one after another
    python3 perfbench/run.py --record               # re-record perfbench/expected.json

Every measurement runs in a fresh worker process (perfbench/worker.py),
one at a time, with BLAS threads capped at 1 and `src` first on the
import path. `setup_s` is the median over several fresh processes, each
timed from before its imports up to the first solver query. With
--trace 1 the worker runs every round twice, untraced and then traced;
the per-layer metrics come from the traced rounds, their query totals
and final iterates must equal the untraced twins' bit for bit, and the
median ratio of their wall times is reported as the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `attempted` counts seed runs and
`failed` those that diverged or failed the correctness gate (gate.py), so
failed / attempted is the failed fraction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("portfolio_desk", "policy_eval_s400", "linquad_dense_trace")
SOLVERS = ("vrsc_pg", "scpg", "prox_svrg", "prox_full_gradient")
LAYERS = ("problems", "oracle", "solvers", "numerics", "regularizers", "metrics", "cli")
SETUP_PROBES = 4
SETUP_TIMEOUT_S = 15
# set-up probes plus the measuring worker of one workload, under a 180 s limit;
# the worker may finish a round (a pair when traced) that starts before --seconds
RUN_DEADLINE_S = 170
RECORD_TIMEOUT_S = 900
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker(root, args, timeout):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(args)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args['mode']} worker for {args['workload']} exited with "
                         f"code {proc.returncode}")
    return json.loads(lines[-1])


def seed_runs(result):
    return [c for r in result["rounds"] for c in r["calls"] if c["phase"] == "seed"]


def median(values):
    """The median; 0 when a failed run left nothing to measure (its result says so)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def done(calls):
    """The calls that returned a result: not diverged, not cut short by an error."""
    return [c for c in calls if "total" in c]


def pooled_rate(calls):
    done_calls = done(calls)
    wall = sum(c["wall_s"] for c in done_calls)
    return sum(c["total"] for c in done_calls) / wall if wall > 0 else 0.0


def scaled_rounds(result):
    """(round wall time, solver calls) per round, scaled to the nominal core speed.

    Each solver call is scaled by the kernel time measured around it; the
    rest of a round (set-up inside cmd_run, output) by their mean.
    """
    nominal = result["nominal_kernel_s"]
    out = []
    for r in result["rounds"]:
        calls = [dict(c) for c in r["calls"]]
        inside = sum(c["wall_s"] for c in calls)
        for c in calls:
            factor = nominal / c["kernel_s"]
            c["wall_s"] *= factor
            if c.get("time_to_gap_s") is not None:
                c["time_to_gap_s"] *= factor
        kernel = statistics.mean(c["kernel_s"] for c in calls) if calls else nominal
        rest = (r["wall_s"] - inside) * nominal / kernel
        out.append((rest + sum(c["wall_s"] for c in calls), calls))
    return out


def end_to_end(main, setup_samples):
    rounds = [(wall, [c for c in calls if c["phase"] == "seed"])
              for wall, calls in scaled_rounds(main)]
    vr = [c for _, calls in rounds for c in done(calls) if c["solver"] == "vrsc_pg"]
    # without a timed crossing (the gate then fails the run) the solve time stands in
    ttg = [c["time_to_gap_s"] for c in vr if c["time_to_gap_s"] is not None] or [
        c["wall_s"] for c in vr]
    return {
        "setup_s": median(s["setup_s"] * s["nominal_kernel_s"] / s["kernel_s"]
                          for s in setup_samples),
        "solve_s": median(sum(c["wall_s"] for c in calls) for _, calls in rounds),
        "run_wall_s": median(wall for wall, _ in rounds),
        "queries_per_s": median(pooled_rate(calls) for _, calls in rounds),
        "vrsc_pg.queries_per_s": median(c["total"] / c["wall_s"] for c in vr),
        "vrsc_pg.time_to_gap_s": median(ttg),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(res):
    """Per-layer metrics from a traced worker's result, per traced round."""
    traced = dict(res, rounds=res["traced_rounds"])
    n = len(traced["rounds"])
    spans, counts = traced["spans"], traced["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0] / n

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1] / n

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2] / n

    def count(key):
        return counts.get(key, 0) / n

    every = [c for r in traced["rounds"] for c in r["calls"]]
    m = {}
    for ev in ("inner_value_batch", "inner_jacobian_batch", "outer_gradient_batch",
               "full_gradient", "comp_gradient_batch"):
        m[f"problems.{ev}.calls"] = calls(f"problems.{ev}")
        m[f"problems.{ev}.s"] = incl(f"problems.{ev}")
    m["problems.inner_jacobian_batch.bytes"] = count("problems.inner_jacobian_batch.bytes")
    # every completed solver call's own counter: reference, tuning trials, seed runs
    for k, kind in enumerate(("inner_value", "inner_jacobian", "outer_gradient")):
        m[f"oracle.queries.{kind}"] = sum(c["queries"][k] for c in every if "queries" in c) / n
    m["oracle.counted.calls"] = calls("oracle.counted")
    m["oracle.counted.self_s"] = own("oracle.counted")
    m["oracle.full_inner_jacobian.s"] = incl("oracle.full_inner_jacobian")
    solver_s = sum(incl(f"solvers.{s}") for s in SOLVERS)
    for s in SOLVERS:
        iters = count(f"solvers.{s}.iters")
        m[f"solvers.{s}.s"] = incl(f"solvers.{s}")
        m[f"solvers.{s}.iters"] = iters
        m[f"solvers.{s}.us_per_iter"] = 1e6 * incl(f"solvers.{s}") / iters if iters else 0.0
        m[f"solvers.{s}.self_s"] = own(f"solvers.{s}")
        m[f"solvers.{s}.queries_per_s"] = pooled_rate(
            [c for _, calls in scaled_rounds(res) for c in calls
             if c["solver"] == s and c["phase"] == "seed"])
    m["solvers.compute_snapshot.calls"] = calls("solvers.compute_snapshot")
    m["solvers.compute_snapshot.s"] = incl("solvers.compute_snapshot")
    for est in ("inner_value", "inner_jacobian", "gradient_vt"):
        m[f"solvers.estimate_{est}.s"] = incl(f"solvers.estimate_{est}")
    vr_s = incl("solvers.vrsc_pg")
    m["solvers.vrsc_pg.snapshot_jacobian_share"] = (
        (incl("solvers.compute_snapshot") + incl("solvers.estimate_inner_jacobian")) / vr_s
        if vr_s else 0.0)
    m["numerics.sample_with_replacement.calls"] = calls("numerics.sample_with_replacement")
    m["numerics.sample_with_replacement.s"] = incl("numerics.sample_with_replacement")
    m["regularizers.prox.calls"] = calls("regularizers.prox")
    m["regularizers.prox.s"] = incl("regularizers.prox")
    m["metrics.record.rows"] = sum(c.get("rows", 0) for c in every) / n
    m["metrics.record.s"] = incl("metrics.record")
    m["metrics.record.share"] = incl("metrics.record") / solver_s if solver_s else 0.0
    m["cli.compute_reference.s"] = incl("cli.compute_reference")
    m["cli.reference.iters"] = sum(c.get("iters", 0) for c in every
                                   if c["phase"] == "reference") / n
    m["cli.tune_step_size.s"] = incl("cli.tune_step_size")
    tune = [c for c in every if c["phase"] == "tune"]
    m["cli.tune.trials"] = len(tune) / n
    m["cli.tune.diverged"] = sum(not c.get("gap_finite") for c in tune) / n
    m["cli.write_trace_csv.s"] = incl("cli.write_trace_csv")
    m["cli.write_trace_csv.bytes"] = count("cli.write_trace_csv.bytes")
    m["cli.numpy_warnings"] = sum(r["warnings"] for r in traced["rounds"]) / n
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(v[2] for k, v in spans.items()
                                         if k.startswith(layer + ".")) / n
    # span times are scaled to the nominal core speed like the end-to-end times
    kernel = median(c["kernel_s"] for c in seed_runs(traced)) or traced["nominal_kernel_s"]
    for name in m:
        if name.endswith((".s", "self_s", ".us_per_iter")):
            m[name] *= traced["nominal_kernel_s"] / kernel
    # each traced round ran right after an untraced round of the same seeds
    overhead = median(t["wall_s"] / u["wall_s"] - 1.0
                      for u, t in zip(res["rounds"], res["traced_rounds"]))
    m["trace.overhead_frac"] = overhead
    m["trace.overhead_s"] = overhead * median(w for w, _ in scaled_rounds(res))
    m["trace.spans"] = traced["n_spans"] / n
    m["trace.rounds"] = float(n)
    return m


def bitwise_mismatches(res):
    """Each traced round must match its untraced twin in query totals and final iterates."""
    def key(c):
        return (c["solver"], c["phase"], c["seed"], c.get("queries"), c.get("x_sha"))

    out = []
    for a, b in zip(res["rounds"], res["traced_rounds"]):
        if [key(c) for c in a["calls"]] != [key(c) for c in b["calls"]]:
            out.append(f"traced round with seeds {b['seeds']} differs from the untraced one")
    return out


def run_workload(root, spec, name, seed, seconds, trace):
    out = root / ".perfbench_scratch" / name  # overwritten by the next run
    out.mkdir(parents=True, exist_ok=True)
    base = {"workload": name, "seed": seed}
    t0 = time.monotonic()
    setups = [worker(root, dict(base, mode="setup"), SETUP_TIMEOUT_S)
              for _ in range(SETUP_PROBES)]
    timeout = RUN_DEADLINE_S - (time.monotonic() - t0)
    main = worker(root, dict(base, mode="run", seconds=seconds, trace=trace,
                             out_dir=str(out / f"trace{trace}")), timeout)
    rounds = main["rounds"] + main.get("traced_rounds", [])
    if trace:
        failures = bitwise_mismatches(main)
        metrics = per_layer(main)
        wanted = spec["per_layer"]
    else:
        failures = []
        setups.append({"setup_s": main["setup_s"], "kernel_s": main["setup_kernel_s"],
                       "nominal_kernel_s": main["setup_nominal_kernel_s"]})
        metrics = end_to_end(main, setups)
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise BenchError(f"computed metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} "
                         "do not match BENCHMARK.json")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed_runs"] for r in rounds)
    failures += [f for r in rounds for f in r["failures"]]
    if failures and not failed:
        failed = attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    report(name, seed, trace, main, setups, failures, result)
    with open(out / f"result_seed{seed}_trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "env": main["env"], "failures": failures,
                   "setup_samples": setups, "rounds": rounds}, fh, indent=1)
    return result


def report(name, seed, trace, main, setups, failures, result):
    env = main["env"]
    print(f"== {name} seed {seed} trace {trace}: {len(main['rounds'])} rounds, "
          f"{result['attempted']} seed runs, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    print(f"   python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']} "
          f"({env['blas_threads']} thread), {env['cpus_usable']} of {env['cpu_count']} cores")
    samples = ", ".join(f"{s['setup_s']:.4f}" for s in setups)
    print(f"   setup samples (s): {samples}")
    for metric, v in result["metrics"].items():
        print(f"   {metric:45s} {v['value']:>14.6g} {v['unit']}")
    kernel = [c["kernel_s"] for r in main["rounds"] for c in r["calls"]]
    print(f"   reference kernel: median {1e3 * median(kernel):.2f} ms, "
          f"min {1e3 * min(kernel, default=0.0):.2f} ms, nominal {1e3 * main['nominal_kernel_s']:.2f} ms "
          "(times are scaled by nominal / kernel)")
    if not trace:
        rounds = scaled_rounds(main)
        tune = [sum(c["wall_s"] for c in calls if c["phase"] == "tune") for _, calls in rounds]
        print(f"   {'tune_s':45s} {median(tune):>14.6g} s")
        raw = [sum(c["wall_s"] for c in r["calls"] if c["phase"] == "seed")
               for r in main["rounds"]]
        print(f"   {'solve_s / run_wall_s, unscaled':45s} {median(raw):>14.6g} / "
              f"{median(r['wall_s'] for r in main['rounds']):.6g} s")
        seed = [c for _, calls in rounds for c in calls if c["phase"] == "seed"]
        for s in SOLVERS:
            calls = [c for c in seed if c["solver"] == s]
            if calls:
                print(f"   {s + '.queries_per_s':45s} {pooled_rate(calls):>14.6g} 1/s")
    for f in failures:
        print(f"   FAIL {f}")


def record(root, names):
    """Re-record the invariants of every pool seed (perfbench/expected.json)."""
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        out = root / ".perfbench_scratch" / name / "record"
        res = worker(root, {"workload": name, "seed": 0, "mode": "record",
                            "out_dir": str(out)}, RECORD_TIMEOUT_S)
        seeds = {}
        for r in res["rounds"]:
            if r["failures"]:
                raise BenchError(f"{name}: {r['failures']}")
            if "tuned" in r["info"]:
                seeds.setdefault(str(r["seeds"][0]), {})["tuned"] = r["info"]["tuned"]
            for c in seed_runs({"rounds": [r]}):
                if c["solver"] == "vrsc_pg" and c["queries_to_gap"] is None:
                    raise BenchError(f"{name}: vrsc_pg seed {c['seed']} never reaches the gap")
                inv = {k: c[k] for k in ("iters", "queries", "objective")}
                if c["solver"] == "vrsc_pg":
                    inv["queries_to_gap"] = c["queries_to_gap"]
                old = seeds.setdefault(str(c["seed"]), {}).setdefault(c["solver"], inv)
                if old != inv:
                    raise BenchError(f"{name}: seed {c['seed']} {c['solver']} is not "
                                     f"deterministic: {old} != {inv}")
        expected[name] = {"objective_rtol": 1e-9, "seeds": seeds}
        print(f"recorded {name}: {len(seeds)} seeds")
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "composolve" / "__init__.py").is_file():
        print("perfbench: run from the root of a composolve checkout (src/composolve "
              "not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record:
        record(root, names)
        return 0
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results = {n: run_workload(root, spec, n, args.seed, seconds, args.trace) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
