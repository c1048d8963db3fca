"""The benchmark's tracer wraps functions and methods of the program by name:
each solver must still be found, traced and put back."""

import importlib.util
from pathlib import Path

from composolve import (cli, metrics, numerics, oracle, problems, regularizers, solvers,
                        verification)
from composolve.numerics import RngStream

TOOL = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("tracing", TOOL)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

MODULES = (cli, metrics, numerics, oracle, problems, regularizers, solvers)


def namespaces():
    """Every module the tracer may patch, and every class defined in one."""
    classes = [c for m in MODULES for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    return (*MODULES, *classes)


def tiny_runs():
    prob = problems.gen_linquad(10, 8, 6, 5, RngStream(2))
    fsp = problems.gen_lasso(12, 6, RngStream(3))
    reg = regularizers.L1Penalty(1e-3)
    cfg = solvers.VrscpgConfig(eta=0.05, m=3, S_epochs=2, A=2, B=2, b1=2, seed=1)
    # on the lasso's evaluators alone, whose step is the generic default, the
    # solvers' estimators: every shipped class's step is a closed form
    solvers.vrsc_pg(verification._generic_view(fsp), reg, cfg, trace_stride=2)
    solvers.scpg_baseline(prob, reg, 0.05, 1.0, 0.75, 0.5, iters=5, seed=2)
    solvers.prox_svrg(fsp, reg, 0.1, 3, 2, seed=3, budget_queries=20)
    solvers.prox_full_gradient(prob, reg, 0.05, 4)


def test_tracer_spans_every_solver_and_restores_what_it_patched():
    before = [dict(vars(ns)) for ns in namespaces()]
    tracer = tracing.Tracer(1e-6, lambda: 0.0)
    try:
        tracer.install()
        tiny_runs()
    finally:
        tracer.uninstall()
    assert [dict(vars(ns)) for ns in namespaces()] == before
    totals = tracer.totals()
    for label in tracing.SOLVER_NAMES.values():
        assert totals[f"solvers.{label}"][0] == 1, label
    for name in ("compute_snapshot", "estimate_inner_value", "estimate_gradient_vt"):
        assert totals[f"solvers.{name}"][0] > 0, name
    assert totals["metrics.record"][0] > 0
    assert [(c.solver, c.seed) for c in tracer.calls] == [
        ("vrsc_pg", 1), ("scpg", 2), ("prox_svrg", 3), ("prox_full_gradient", None)]
    assert all(c.result is not None and not c.diverged for c in tracer.calls)
