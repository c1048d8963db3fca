"""Config-driven experiment runner: gen, run, plot, check subcommands."""

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, problems, solvers, verification
from .metrics import CSV_COLUMNS, verify_optimum
from .numerics import RngStream, check_int, check_real
from .regularizers import make_regularizer

# Learning-rate grid used by the tuning sweep.
DEFAULT_ETA_GRID = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)

LOG_FLOOR = 1e-16  # log-scale plots clip nonpositive values here


def load_config(path):
    """The parsed JSON config; the code that reads each value checks it."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _typed(name, value, kind):
    """value, if it is a kind (a JSON object, array or string); else TypeError."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def build_problem(spec):
    """Instantiate the problem named by a config's problem block."""
    if "path" in _typed("problem", spec, dict):
        return problems.load_problem(_typed("path", spec["path"], str))
    return problems.generate_problem(spec)


def estimate_lipschitz(problem):
    """Crude gradient-Lipschitz estimate: the steepest of five random secants."""
    rng = RngStream(0)
    best = 1e-12
    for _ in range(5):
        x = rng.normal(size=problem.dim_x)
        d = rng.normal(size=problem.dim_x)
        d /= np.linalg.norm(d)
        g1 = problem.full_gradient(x)
        g2 = problem.full_gradient(x + 1e-3 * d)
        best = max(best, np.linalg.norm(g2 - g1) / 1e-3)
    return best


def compute_reference(problem, reg, ref_cfg):
    """High-accuracy optimum via the deterministic reference solver."""
    eta = ref_cfg.get("eta")
    source = "reference.eta"
    if eta is None:
        eta, source = 1.0 / estimate_lipschitz(problem), "the Lipschitz estimate"
    try:
        res = solvers.prox_full_gradient(
            problem, reg, eta,
            iters=ref_cfg.get("iters", 100_000),
            tol=ref_cfg.get("tol", 1e-12),
            trace_stride=10**9,
        )
    except solvers.DivergedError as err:
        raise RuntimeError(
            f"the reference solve diverged at step size {eta:g} (from {source})"
        ) from err
    return res.x_final, verify_optimum(problem, reg, res.x_final, eta), eta


# Solver name -> (step-size key, function in `solvers`, spec and seed ->
# keyword arguments, the problem family it solves: any composition, or only a
# plain finite sum). The function is looked up by name at call time, so a
# solver replaced on the module (for instrumentation) is the one called. A
# missing parameter reaches the solver as None, which its own check rejects.
_SOLVERS = {
    "vrsc_pg": ("eta", "vrsc_pg", lambda spec, seed: dict(cfg=solvers.VrscpgConfig(
        eta=spec.get("eta"), m=spec.get("m"), S_epochs=spec.get("S_epochs"),
        A=spec.get("A"), B=spec.get("B"), b1=spec.get("b1"), seed=seed,
    )), problems.CompositionProblem),
    "scpg": ("alpha0", "scpg_baseline", lambda spec, seed: dict(
        alpha0=spec.get("alpha0"), beta0=spec.get("beta0", 1.0),
        exp_alpha=spec.get("exp_alpha", 0.75), exp_beta=spec.get("exp_beta", 0.5),
        iters=spec.get("iters", 10**9), seed=seed,
    ), problems.CompositionProblem),
    "prox_svrg": ("eta", "prox_svrg", lambda spec, seed: dict(
        eta=spec.get("eta"), m=spec.get("m"), S_epochs=spec.get("S_epochs"), seed=seed,
    ), problems.FiniteSumProblem),
    "prox_full_gradient": ("eta", "prox_full_gradient", lambda spec, seed: dict(
        eta=spec.get("eta"), iters=spec.get("iters", 10_000), tol=spec.get("tol", 0.0),
    ), problems.CompositionProblem),
}


def _solver(name):
    if name not in _SOLVERS:
        raise ValueError(f"unknown solver name: {name!r}")
    return _SOLVERS[name]


def _outcome(spec, problem, reg, seed, x_star, run):
    """One solver call on one seed, finished or diverged: its summary fields
    (`diverged`, `final_gap` when it finished, `total_queries`) and its trace.
    run holds `_drive`'s run options."""
    _, fn_name, kwargs, _ = _solver(spec["name"])
    try:
        res = getattr(solvers, fn_name)(
            problem, reg, **kwargs(spec, seed), x_star=x_star, **run
        )
    except solvers.DivergedError as err:
        return {"diverged": True, "total_queries": err.total_queries}, err.trace
    return ({"diverged": False, "final_gap": res.trace[-1].gap,
             "total_queries": res.counter.total}, res.trace)


def tune_step_size(solver_spec, problem, reg, seed, x_star, run):
    """Pick the grid step size with the best final objective gap.

    Each trial runs with the run options run, its query budget replaced by
    the spec's tune_queries, else a fifth of run's budget_queries, else none.
    A trial that diverged, or took no step (its budget is below one full
    pass), is not ranked.
    """
    name = solver_spec["name"]
    if x_star is None:
        raise ValueError(
            f"tuning the step size of {name} needs a reference "
            "optimum (x_star) to measure the objective gap"
        )
    key = _solver(name)[0]
    grid = solver_spec.get("eta_grid", list(DEFAULT_ETA_GRID))
    queries = run.get("budget_queries")
    trial_run = {**run, "budget_queries": solver_spec.get(
        "tune_queries", None if queries is None else max(queries // 5, 1))}
    best_eta, best_gap, diverged = None, float("inf"), 0
    for eta in grid:
        fields, trace = _outcome({**solver_spec, key: eta}, problem, reg, seed,
                                 x_star, trial_run)
        diverged += fields["diverged"]
        if not fields["diverged"] and len(trace) > 1 and fields["final_gap"] < best_gap:
            best_eta, best_gap = eta, fields["final_gap"]
    if diverged == len(grid):
        raise RuntimeError(f"every step size in the grid diverged for {name}")
    if best_eta is None:
        raise RuntimeError(
            f"no trial of the step-size sweep for {name} took a step without "
            f"diverging (trial query budget {trial_run['budget_queries']})"
        )
    return best_eta


def write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in trace:
            fh.write(row.csv_row() + "\n")


def read_trace_csv(path):
    """Rows as dicts keyed by the fixed column schema; rejects drift."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV schema in {path}: {header}")
        rows = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise ValueError(f"row with {len(parts)} fields under a header of "
                                 f"{len(header)} in {path}: {line.strip()!r}")
            rows.append({k: float(v) for k, v in zip(header, parts)})
    return rows


def cmd_gen(config, out_dir):
    prob = build_problem(_typed("config", config, dict).get("problem"))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "problem.json"
    problems.save_problem(prob, path)
    return path


def _check_solver_spec(spec, prob):
    """Reject what only `cmd_run` reads of a solver block: its name, label
    (a string without a path separator), step size ("tune" or a number > 0),
    tuning knobs and problem family; return the label. The solver checks its
    own parameters when it is called."""
    name = _typed("solver", spec, dict).get("name")
    key, _, _, family = _solver(name)
    label = _typed("label", spec.get("label", name), str)
    if "/" in label or "\\" in label:
        raise ValueError(f"label must not contain a path separator, got {label!r}")
    if spec.get(key) != "tune":
        check_real(key, spec.get(key), 0, open_low=True)
    if "eta_grid" in spec:
        if not _typed("eta_grid", spec["eta_grid"], list):
            raise ValueError("eta_grid must not be empty")
        for eta in spec["eta_grid"]:
            check_real("eta_grid entry", eta, 0, open_low=True)
    if "tune_queries" in spec:
        check_int("tune_queries", spec["tune_queries"])
    if not isinstance(prob, family):
        raise ValueError(f"solver {name} cannot run on a {type(prob).__name__}")
    return label


def _check_distinct(name, values):
    """Reject a value that occurs twice: two seed runs would share a CSV name."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name} must be distinct, got {value!r} twice")


def cmd_run(config, out_dir):
    """Run every solver of the config on each seed; write the traces and a summary.

    Every config-level value is checked before the reference solve, labels
    and seeds distinct among them, and each solver's own parameters in that
    solver before it spends a query. trace_stride and budget become
    `_drive`'s run options here, for the sweep trials and the seed runs alike.
    Every step-size sweep runs before out_dir is made, so a failed sweep
    leaves no output behind; the sweeps write nothing.
    """
    prob = build_problem(_typed("config", config, dict).get("problem"))
    reg_spec = _typed("regularizer", config.get("regularizer", {"kind": "zero"}), dict)
    reg = make_regularizer(reg_spec.get("kind"), reg_spec.get("lambda", 0.0))
    budget = _typed("budget", config.get("budget", {}), dict)
    run = {"trace_stride": config.get("trace_stride", 1),
           "budget_queries": budget.get("max_queries"),
           "budget_wall_s": budget.get("max_wall_s")}
    solvers.check_run_options(**run)
    seeds = _typed("seeds", config.get("seeds"), list)
    if not seeds:
        raise ValueError("seeds must not be empty")
    for seed in seeds:
        check_int("seed", seed, 0)
    _check_distinct("seeds", seeds)
    specs = _typed("solvers", config.get("solvers", []), list)
    labels = [_check_solver_spec(spec, prob) for spec in specs]
    _check_distinct("labels", labels)

    x_star, residual, ref_eta = compute_reference(
        prob, reg, _typed("reference", config.get("reference", {}), dict)
    )
    if residual > 1e-7:
        warnings.warn(
            f"reference optimum unverified: gradient-mapping norm {residual:.2e}"
        )
    elif not x_star.any():
        warnings.warn("reference optimum is the start point (zeros): every run "
                      "starts at its optimum, and its gap column is zero")

    specs = [dict(spec) for spec in specs]
    for spec in specs:
        key = _solver(spec["name"])[0]
        if spec.get(key) == "tune":
            spec[key] = tune_step_size(spec, prob, reg, seeds[0], x_star, run)

    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "config": config,
        "versions": {"composolve": __version__, "numpy": np.__version__},
        "x_star": x_star.tolist(),
        "x_star_residual": residual,
        "x_star_verified": residual <= 1e-7,
        "reference_eta": ref_eta,
        "runs": [],
    }

    for spec, label in zip(specs, labels):
        key = _solver(spec["name"])[0]
        for seed in seeds:
            fields, trace = _outcome(spec, prob, reg, seed, x_star, run)
            csv_path = out_dir / f"{label}_seed{seed}.csv"
            write_trace_csv(csv_path, trace)
            summary["runs"].append({"label": label, "solver": spec["name"], "seed": seed,
                                    key: spec.get(key), **fields, "trace": csv_path.name})

    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# -- SVG plotting -------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_convergence(series, x_label, y_label, width=720, height=480):
    """Standalone SVG with a linear x axis and log-10 y axis."""
    import html  # here, so that a run, which never plots, loads no entity tables

    left, right, top, bottom = 70, 160, 20, 50
    pw, ph = width - left - right, height - top - bottom
    clipped = 0
    cleaned = []
    for name, xs, ys in series:
        ys = np.asarray(ys, dtype=np.float64)
        clipped += int(np.sum(ys <= LOG_FLOOR))
        cleaned.append((name, np.asarray(xs, dtype=np.float64),
                        np.maximum(ys, LOG_FLOOR)))
    if clipped:
        warnings.warn(f"clipped {clipped} nonpositive values at {LOG_FLOOR:g}")
    x_max = max(float(xs.max()) for _, xs, _ in cleaned) or 1.0
    y_lo = min(float(np.log10(ys.min())) for _, _, ys in cleaned)
    y_hi = max(float(np.log10(ys.max())) for _, _, ys in cleaned)
    if y_hi - y_lo < 1e-9:
        y_hi = y_lo + 1.0
    y_lo, y_hi = np.floor(y_lo), np.ceil(y_hi)

    def sx(x):
        return left + pw * x / x_max

    def sy(ly):
        return top + ph * (y_hi - ly) / (y_hi - y_lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black"/>',
    ]
    step = max(int((y_hi - y_lo) // 8), 1)
    for tick in np.arange(y_lo, y_hi + 0.5, step):
        y = sy(tick)
        out.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{left + pw}" y2="{y:.2f}" '
            'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12">1e{int(tick)}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + pw * frac
        out.append(
            f'<text x="{x:.2f}" y="{top + ph + 18}" text-anchor="middle" '
            f'font-size="12">{frac * x_max:.3g}</text>'
        )
    out.append(
        f'<text x="{left + pw / 2:.2f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{top + ph / 2:.2f}" font-size="13" '
        f'transform="rotate(-90 18 {top + ph / 2:.2f})" '
        f'text-anchor="middle">{y_label}</text>'
    )
    for k, (name, xs, ys) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{sx(x):.2f},{sy(np.log10(y)):.2f}" for x, y in zip(xs, ys)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = top + 16 + 18 * k
        out.append(
            f'<line x1="{left + pw + 10}" y1="{ly}" x2="{left + pw + 34}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(  # a name is a config label, which may hold &, < and >
            f'<text x="{left + pw + 40}" y="{ly + 4}" font-size="12">'
            f'{html.escape(name, quote=False)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_plot(csv_paths, out_path, x_axis="queries", y_field="gap"):
    if not csv_paths:
        raise ValueError("no CSV files to plot")
    y_col = {"gap": "gap", "gradnorm": "composite_grad_sq"}[y_field]
    series = []
    for path in csv_paths:
        rows = read_trace_csv(path)
        if not rows:
            raise ValueError(f"empty trace CSV: {path}")
        if x_axis == "queries":
            xs = [r["q_inner_val"] + r["q_inner_jac"] + r["q_outer_grad"]
                  for r in rows]
            x_label = "sampling-oracle queries"
        else:
            xs = [r["wall_ms"] for r in rows]
            x_label = "wall time (ms)"
        ys = [r[y_col] for r in rows]
        if not np.isfinite(ys).all():  # a gap recorded without x_star is NaN
            raise ValueError(f"column {y_col} of {path} holds a non-finite value")
        series.append((Path(path).stem, xs, ys))
    y_label = "objective gap" if y_col == "gap" else "composite gradient norm sq"
    svg = _svg_convergence(series, x_label, y_label)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return out_path


def cmd_check():
    results = verification.run_all()
    failures = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failures += not ok
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return failures


def _output_dir(config, out):
    """--out, else the config's output_dir, else "out"."""
    if out:
        return Path(out)
    config = _typed("config", config, dict)
    return Path(_typed("output_dir", config.get("output_dir", "out"), str))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="composolve",
        description="Variance-reduced compositional proximal optimization bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate and store problem data")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", default=None)

    p_run = sub.add_parser("run", help="run solver sweeps, write CSV traces")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_plot = sub.add_parser("plot", help="render convergence curves as SVG")
    p_plot.add_argument("csvs", nargs="*", help="trace CSV files")
    p_plot.add_argument("--config", default=None,
                        help="plot every trace in the config's output dir")
    p_plot.add_argument("--out", default="plot.svg")
    p_plot.add_argument("--x-axis", choices=("queries", "wall"), default="queries")
    p_plot.add_argument("--y", choices=("gap", "gradnorm"), default="gap")

    sub.add_parser("check", help="run the built-in verification suite")

    args = parser.parse_args(argv)
    if args.command == "gen":
        config = load_config(args.config)
        path = cmd_gen(config, _output_dir(config, args.out))
        print(f"wrote {path}")
        return 0
    if args.command == "run":
        config = load_config(args.config)
        out = _output_dir(config, args.out)
        summary = cmd_run(config, out)
        n_div = sum(r["diverged"] for r in summary["runs"])
        print(f"wrote {len(summary['runs'])} traces to {out} ({n_div} diverged)")
        return 0
    if args.command == "plot":
        csvs = list(args.csvs)
        if args.config:
            out_dir = _output_dir(load_config(args.config), None)
            csvs.extend(sorted(str(p) for p in out_dir.glob("*.csv")))
        path = cmd_plot(csvs, args.out, x_axis=args.x_axis, y_field=args.y)
        print(f"wrote {path}")
        return 0
    if args.command == "check":
        return 1 if cmd_check() else 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
