"""Config-driven experiment runner: gen, run, plot, check subcommands."""

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, problems, solvers, verification
from .metrics import CSV_COLUMNS, verify_optimum
from .numerics import RngStream
from .regularizers import make_regularizer

# Learning-rate grid used by the tuning sweep.
DEFAULT_ETA_GRID = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)

LOG_FLOOR = 1e-16  # log-scale plots clip nonpositive values here

_SCHEMA_PATH = Path(__file__).resolve().parents[2] / "schema" / "experiment_config.schema.json"


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    try:  # jsonschema is a test extra; the schema ships with the repo, not the wheel
        import jsonschema

        with open(_SCHEMA_PATH, encoding="utf-8") as fh:
            schema = json.load(fh)
    except (ImportError, FileNotFoundError) as err:
        warnings.warn(f"config not validated: {err}")
        return cfg
    jsonschema.validate(cfg, schema)
    return cfg


def build_problem(spec):
    """Instantiate the problem named by a config's problem block."""
    if "path" in spec:
        return problems.load_problem(spec["path"])
    return problems.generate_problem(spec)


def estimate_lipschitz(problem, seed=0, trials=5):
    """Crude gradient-Lipschitz estimate by random secants."""
    rng = RngStream(seed)
    best = 1e-12
    for _ in range(trials):
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
    if eta is None:
        eta = 1.0 / estimate_lipschitz(problem)
    res = solvers.prox_full_gradient(
        problem, reg, eta,
        iters=ref_cfg.get("iters", 100_000),
        tol=ref_cfg.get("tol", 1e-12),
        trace_stride=10**9,
    )
    residual = verify_optimum(problem, reg, res.x_final, eta)
    return res.x_final, residual, eta


# Solver name -> (step-size key, function in `solvers`, spec and seed ->
# keyword arguments). The function is looked up by name at call time, so a
# solver replaced on the module (for instrumentation) is the one called.
_SOLVERS = {
    "vrsc_pg": ("eta", "vrsc_pg", lambda spec, seed: dict(cfg=solvers.VrscpgConfig(
        eta=spec["eta"], m=spec["m"], S_epochs=spec["S_epochs"],
        A=spec["A"], B=spec["B"], b1=spec["b1"], seed=seed,
    ))),
    "scpg": ("alpha0", "scpg_baseline", lambda spec, seed: dict(
        alpha0=spec["alpha0"], beta0=spec.get("beta0", 1.0),
        exp_alpha=spec.get("exp_alpha", 0.75), exp_beta=spec.get("exp_beta", 0.5),
        iters=spec.get("iters", 10**9), seed=seed,
    )),
    "prox_svrg": ("eta", "prox_svrg", lambda spec, seed: dict(
        eta=spec["eta"], m=spec["m"], S_epochs=spec["S_epochs"], seed=seed,
    )),
    "prox_full_gradient": ("eta", "prox_full_gradient", lambda spec, seed: dict(
        eta=spec["eta"], iters=spec.get("iters", 10_000), tol=spec.get("tol", 0.0),
    )),
}


def _solver(name):
    if name not in _SOLVERS:
        raise ValueError(f"unknown solver name: {name!r}")
    return _SOLVERS[name]


def _run_one(solver_spec, problem, reg, seed, budget, x_star, stride):
    _, fn_name, kwargs = _solver(solver_spec["name"])
    return getattr(solvers, fn_name)(
        problem, reg, **kwargs(solver_spec, seed), x_star=x_star,
        trace_stride=stride, budget_queries=budget.get("max_queries"),
        budget_wall_s=budget.get("max_wall_s"),
    )


def tune_step_size(solver_spec, problem, reg, seed, budget, x_star, stride):
    """Pick the grid step size with the best final objective gap."""
    key = _solver(solver_spec["name"])[0]
    grid = solver_spec.get("eta_grid", list(DEFAULT_ETA_GRID))
    tune_budget = dict(budget)
    if budget.get("max_queries"):
        tune_budget["max_queries"] = solver_spec.get(
            "tune_queries", max(budget["max_queries"] // 5, 1)
        )
    best_eta, best_gap = None, None
    for eta in grid:
        trial = dict(solver_spec)
        trial[key] = eta
        try:
            res = _run_one(trial, problem, reg, seed, tune_budget, x_star, stride)
        except solvers.DivergedError:
            continue
        gap = res.trace[-1].gap if res.trace else float("inf")
        if not np.isfinite(gap):
            continue
        if best_gap is None or gap < best_gap:
            best_eta, best_gap = eta, gap
    if best_eta is None:
        raise RuntimeError(
            f"every step size in the grid diverged for {solver_spec['name']}"
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
            rows.append({k: float(v) for k, v in zip(header, parts)})
    return rows


def cmd_gen(config, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    prob = build_problem(config["problem"])
    path = out_dir / "problem.json"
    problems.save_problem(prob, path)
    return path


def cmd_run(config, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    prob = build_problem(config["problem"])
    reg_spec = config.get("regularizer", {"kind": "zero"})
    reg = make_regularizer(reg_spec["kind"], reg_spec.get("lambda", 0.0))
    budget = config.get("budget", {})
    stride = config.get("trace_stride", 1)
    seeds = config["seeds"]

    x_star, residual, ref_eta = compute_reference(
        prob, reg, config.get("reference", {})
    )
    summary = {
        "config": config,
        "versions": {"composolve": __version__, "numpy": np.__version__},
        "x_star": x_star.tolist(),
        "x_star_residual": residual,
        "x_star_verified": residual <= 1e-7,
        "reference_eta": ref_eta,
        "runs": [],
    }
    if residual > 1e-7:
        warnings.warn(
            f"reference optimum unverified: gradient-mapping norm {residual:.2e}"
        )

    for spec in config.get("solvers", []):
        spec = dict(spec)
        label = spec.get("label", spec["name"])
        key = _solver(spec["name"])[0]
        if spec.get(key) == "tune":
            spec[key] = tune_step_size(
                spec, prob, reg, seeds[0], budget, x_star, stride
            )
        for seed in seeds:
            entry = {"label": label, "solver": spec["name"], "seed": seed,
                     key: spec.get(key)}
            try:
                res = _run_one(spec, prob, reg, seed, budget, x_star, stride)
                trace = res.trace
                entry["diverged"] = False
                entry["final_gap"] = trace[-1].gap if trace else None
                entry["total_queries"] = res.counter.total
            except solvers.DivergedError as err:
                trace = err.trace
                entry["diverged"] = True
            csv_path = out_dir / f"{label}_seed{seed}.csv"
            write_trace_csv(csv_path, trace)
            entry["trace"] = csv_path.name
            summary["runs"].append(entry)

    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# -- SVG plotting -------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_convergence(series, x_label, y_label, width=720, height=480):
    """Standalone SVG with a linear x axis and log-10 y axis."""
    left, right, top, bottom = 70, 160, 20, 50
    pw, ph = width - left - right, height - top - bottom
    clipped = 0
    cleaned = []
    for name, xs, ys in series:
        ys = np.asarray(ys, dtype=np.float64)
        n_bad = int(np.sum(~(ys > LOG_FLOOR)))
        clipped += n_bad
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
        out.append(
            f'<text x="{left + pw + 40}" y="{ly + 4}" font-size="12">{name}</text>'
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
        series.append((Path(path).stem, xs, [r[y_col] for r in rows]))
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
        out = Path(args.out or config.get("output_dir", "out"))
        path = cmd_gen(config, out)
        print(f"wrote {path}")
        return 0
    if args.command == "run":
        config = load_config(args.config)
        out = Path(args.out or config.get("output_dir", "out"))
        summary = cmd_run(config, out)
        n_div = sum(r["diverged"] for r in summary["runs"])
        print(f"wrote {len(summary['runs'])} traces to {out} ({n_div} diverged)")
        return 0
    if args.command == "plot":
        csvs = list(args.csvs)
        if args.config:
            config = load_config(args.config)
            out_dir = Path(config.get("output_dir", "out"))
            csvs.extend(sorted(str(p) for p in out_dir.glob("*.csv")))
        path = cmd_plot(csvs, args.out, x_axis=args.x_axis, y_field=args.y)
        print(f"wrote {path}")
        return 0
    if args.command == "check":
        return 1 if cmd_check() else 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
