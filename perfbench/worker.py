"""One benchmark process: a set-up sample, or a measured run of one workload.

Started by run.py in a fresh interpreter with BLAS threads capped at 1.
The set-up clock starts before numpy and composolve are imported. The
last line of standard output is this process's result as JSON.

    python3 perfbench/worker.py '{"mode": "setup" | "run" | "record", ...}'
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_round(wl, state, seeds, probe, out_dir, expected):
    """One round under the given probe; the record of its seed runs and checks."""
    import gate

    probe.install()
    calibration_s = probe.calibration_s
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        try:
            info, failures = wl.round(state, seeds, out_dir / "round"), []
        except Exception as err:  # noqa: BLE001 -- a divergence or any other error fails the round
            info, failures = None, [f"round with seeds {seeds}: {type(err).__name__}: {err}"]
        wall_s = time.perf_counter() - t0 - (probe.calibration_s - calibration_s)
    probe.uninstall()
    calls, probe.calls = probe.calls, []
    observed = []
    for call in calls:
        obs = gate.observe(call, wl.gap_threshold)
        if obs["seed"] is None:
            obs["seed"] = seeds[0]
        failures += gate.check_call(call, obs)
        observed.append(obs)
    seed_runs = [o for o in observed if o["phase"] == "seed"]
    round_failed = bool(failures)  # query accounting, or a round that raised
    failed = set()
    if expected is not None:
        failed, more = gate.check_round(seed_runs, info or {}, seeds, expected)
        failures += more
    # a round cut short by an error attempted every seed run it was to make
    attempted = max(len(seed_runs), wl.seed_runs_per_round) if info is None else len(seed_runs)
    if round_failed:
        failed = set(range(attempted))
    return {
        "seeds": seeds,
        "attempted": attempted,
        "wall_s": wall_s,
        "info": info or {},
        "calls": observed,
        "warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
        "failures": failures,
        "failed_runs": len(failed),
    }


def main():
    args = json.loads(sys.argv[1])
    import workloads  # imports numpy and composolve

    wl = workloads.WORKLOADS[args["workload"]]
    state = wl.setup()
    setup_s = time.perf_counter() - T0
    import calibration

    # set-up is mostly imports, Python work, so every workload scales it by
    # the mixed kernel
    kernel_s = calibration.measure(calibration.kernel_s)
    if args["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s,
                          "nominal_kernel_s": calibration.NOMINAL_S}))
        return 0

    import tracing

    record = args["mode"] == "record"
    expected = None
    if not record:
        with open(Path(__file__).with_name("expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)[wl.name]
    solver_kernel, solver_nominal = calibration.KERNELS[wl.kernel]
    calibrate = functools.partial(calibration.measure, solver_kernel)
    probe = tracing.Probe(wl.gap_threshold, calibrate)
    tracer = tracing.Tracer(wl.gap_threshold, calibrate) if args.get("trace") else None
    out_dir = Path(args["out_dir"])
    order = workloads.seed_order(args["seed"])
    per = wl.seeds_per_round
    rounds, traced_rounds = [], []
    t_start = time.perf_counter()
    k = 0
    while True:
        if record:  # every pool seed leads one round, so each tunes once
            seeds = [(k + i) % workloads.POOL for i in range(per)]
        else:
            seeds = [order[(k * per + i) % workloads.POOL] for i in range(per)]
        rounds.append(run_round(wl, state, seeds, probe, out_dir, expected))
        if tracer is not None:  # the same seeds again, traced, right after
            tracer.round_id = k
            traced_rounds.append(run_round(wl, state, seeds, tracer, out_dir, expected))
        k += 1
        if record:
            if k >= workloads.POOL:
                break
        elif time.perf_counter() - t_start >= args["seconds"]:
            break
    result = {
        "setup_s": setup_s,
        "setup_kernel_s": kernel_s,
        "setup_nominal_kernel_s": calibration.NOMINAL_S,
        "nominal_kernel_s": solver_nominal,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["traced_rounds"] = traced_rounds
        result["spans"] = {name: list(v) for name, v in tracer.totals().items()}
        result["counts"] = tracer.counts
        result["n_spans"] = len(tracer.span_start)
        tracer.write(out_dir / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
