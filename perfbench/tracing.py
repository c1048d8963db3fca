"""Instrumentation installed from outside the program.

`Probe` is always on. It wraps only the solver entry points and the two
CLI phases that call them (reference solve, step-size sweep), so it can
attribute every solver call to a phase, time it, run the calibration
kernel just before and after it (and, in a long call, about once a
second at an iteration boundary, with that time left out of the call's
times), capture its result for the correctness gate, and time the first
trace row at which a seed run of `vrsc_pg` reaches the gap threshold.
Its cost inside the timed region is one wrapper call per solver call
plus one per `TraceRecorder.record` call.

`Tracer` adds spans at every layer boundary named in DESIGN.md: the
per-index evaluators (`problems`), the counting wrapper (`oracle`), the
snapshot and estimators (`solvers`), index sampling (`numerics`), the
prox (`regularizers`), the trace recorder (`metrics`) and the CLI
pipeline (`cli`). Spans are kept in memory as flat lists and written out
once, at the end of the run.
"""

import functools
import inspect
import os
import time

import numpy as np

from composolve import cli, metrics, numerics, oracle, problems, regularizers, solvers

SOLVER_NAMES = {
    "vrsc_pg": "vrsc_pg",
    "scpg_baseline": "scpg",
    "prox_svrg": "prox_svrg",
    "prox_full_gradient": "prox_full_gradient",
}

_INHERITED = object()  # a patched class attribute that the class itself did not define


class SolverCall:
    """One call of a solver entry point, as seen from outside."""

    def __init__(self, solver, phase, args):
        self.solver = solver
        self.phase = phase  # "reference", "tune" or "seed"
        self.args = args
        self.wall_s = None
        self.kernel_s = None  # mean reference-kernel time just before and after
        self.result = None
        self.diverged = False
        self.time_to_gap_s = None

    @property
    def seed(self):
        if self.solver == "vrsc_pg":
            return self.args["cfg"].seed
        return self.args.get("seed")


class Probe:
    """Solver-level observation; see the module docstring."""

    calibrated_phases = ("reference", "tune", "seed")
    # within a calibrated call the kernel runs again at the first iteration
    # boundary after this many seconds, so that a long call is scaled by the
    # core's speed over its whole length, not only at its ends
    sample_every_s = 1.0

    def __init__(self, gap_threshold, calibrate):
        self.gap_threshold = gap_threshold
        self.calibrate = calibrate
        self.calibration_s = 0.0  # time spent in calibrate(), left out of round times
        self.calls = []
        self._phase = "seed"
        self._watch = None  # the vrsc_pg seed run whose gap crossing is timed
        self._t_watch = 0.0
        self._samples = None  # kernel times of the calibrated call in progress
        self._next_sample = 0.0
        self._in_call_s = 0.0  # kernel time inside the call in progress
        self._saved = []

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr, make):
        """Wrap owner.attr as resolved now, inherited or not; uninstall undoes it."""
        if isinstance(owner, type):  # keep the class's own descriptor, if any
            saved = owner.__dict__.get(attr, _INHERITED)
            original = getattr(owner, attr) if saved is _INHERITED else saved
        else:
            saved = original = getattr(owner, attr)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, make(original))

    def install(self):
        for fn_name, label in SOLVER_NAMES.items():
            self.patch(solvers, fn_name, lambda fn, label=label: self._solver_wrapper(fn, label))
        self.patch(cli, "compute_reference", lambda fn: self._phase_wrapper(fn, "reference"))
        self.patch(cli, "tune_step_size", lambda fn: self._phase_wrapper(fn, "tune"))
        self.patch(metrics.TraceRecorder, "record", self._record_wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- wrappers -------------------------------------------------------------

    def _phase_wrapper(self, fn, phase):
        def wrapper(*args, **kwargs):
            outer, self._phase = self._phase, phase
            try:
                return fn(*args, **kwargs)
            finally:
                self._phase = outer

        return wrapper

    def _solver_wrapper(self, fn, label):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            call = SolverCall(label, self._phase, dict(bound.arguments))
            self.calls.append(call)
            watch = label == "vrsc_pg" and call.phase == "seed"
            if watch:
                self._watch = call
            calibrated = call.phase in self.calibrated_phases
            samples = [self._calibrate()] if calibrated else None
            if self.sample_every_s is not None:
                self._samples = samples
            self._in_call_s = 0.0
            t0 = time.perf_counter()
            self._t_watch = t0
            self._next_sample = t0 + (self.sample_every_s or 0.0)
            try:
                call.result = fn(*args, **kwargs)
            except solvers.DivergedError:
                call.diverged = True
                raise
            finally:
                call.wall_s = time.perf_counter() - t0 - self._in_call_s
                self._samples = None
                if watch:
                    self._watch = None
                if calibrated:
                    samples.append(self._calibrate())
                    call.kernel_s = sum(samples) / len(samples)
            return call.result

        return wrapper

    def _calibrate(self):
        t0 = time.perf_counter()
        kernel_s = self.calibrate()
        self.calibration_s += time.perf_counter() - t0
        return kernel_s

    def _record_wrapper(self, fn):
        probe = self

        def record(rec, epoch, inner_iter, x, force=False):
            before = len(rec.rows)
            fn(rec, epoch, inner_iter, x, force)
            now = time.perf_counter()
            call = probe._watch
            if (
                call is not None
                and call.time_to_gap_s is None
                and len(rec.rows) > before
                and rec.rows[-1].gap <= probe.gap_threshold
            ):
                call.time_to_gap_s = now - probe._t_watch - probe._in_call_s
            if probe._samples is not None and now >= probe._next_sample:
                spent = probe.calibration_s
                probe._samples.append(probe._calibrate())
                probe._in_call_s += probe.calibration_s - spent
                probe._next_sample = time.perf_counter() + probe.sample_every_s

        return record


# -- spans ----------------------------------------------------------------------


class Tracer(Probe):
    """Probe plus spans at every layer boundary."""

    # tuning and reference solves run inside CLI spans, where the kernel's
    # time would count as CLI self time; seed runs are top-level. Inside a
    # seed run it would count as solver self time, so it runs only around it.
    calibrated_phases = ("seed",)
    sample_every_s = None

    def __init__(self, gap_threshold, calibrate):
        super().__init__(gap_threshold, calibrate)
        self.names = []
        self._name_ids = {}
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.span_run = []
        self._stack = [-1]
        self.counts = {}
        self.round_id = 0  # the run id of new spans

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, after=None, name_of=None):
        """Wrap fn so that every call records one span.

        name_of(args) may pick the span name per call; after(args, result)
        may record counts from the call's arguments and result.
        """
        fixed_id = self._name_id(name)
        stack = self._stack
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_run = self.span_parent, self.span_run
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(fixed_id if name_of is None else self._name_id(name_of(args)))
            span_parent.append(stack[-1])
            span_run.append(self.round_id)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        # spans go on first, so that the probe's wrappers, and the
        # calibration kernel they run around each seed run, sit outside them
        for fn_name, label in SOLVER_NAMES.items():
            self.patch(solvers, fn_name, lambda fn, label=label: self.span(
                f"solvers.{label}", fn, after=self._after_solver(label)))
        for fn_name in ("compute_snapshot", "estimate_inner_value",
                        "estimate_inner_jacobian", "estimate_gradient_vt"):
            self.patch(solvers, fn_name, lambda fn, n=fn_name: self.span(f"solvers.{n}", fn))
        for owner in (solvers, numerics):
            self.patch(owner, "sample_with_replacement",
                       lambda fn: self.span("numerics.sample_with_replacement", fn))
        for cls in (regularizers.L1Penalty, regularizers.ZeroPenalty):
            self.patch(cls, "prox", lambda fn: self.span("regularizers.prox", fn))
        self.patch(metrics.TraceRecorder, "record",
                   lambda fn: self.span("metrics.record", fn))
        self._install_problems()
        self._install_oracle()
        self._install_cli()
        return super().install()

    def _install_problems(self):
        def nbytes(args, result):
            self.count("problems.inner_jacobian_batch.bytes", result.nbytes)

        for cls in (problems.PortfolioProblem, problems.PolicyEvalProblem,
                    problems.LinQuadProblem):
            self.patch(cls, "inner_value_batch",
                       lambda fn: self.span("problems.inner_value_batch", fn))
            self.patch(cls, "inner_jacobian_batch",
                       lambda fn: self.span("problems.inner_jacobian_batch", fn, after=nbytes))
            self.patch(cls, "outer_gradient_batch",
                       lambda fn: self.span("problems.outer_gradient_batch", fn))
        self.patch(problems.LassoProblem, "comp_gradient_batch",
                   lambda fn: self.span("problems.comp_gradient_batch", fn))

        def counted_or_raw(layer_name):
            def name_of(args):
                counted = isinstance(args[0], (oracle.CountedCompositionProblem,
                                               oracle.CountedFiniteSumProblem))
                return f"{'oracle' if counted else 'problems'}.{layer_name}"

            return name_of

        for cls in (problems.CompositionProblem, problems.FiniteSumProblem):
            self.patch(cls, "full_gradient", lambda fn: self.span(
                "problems.full_gradient", fn, name_of=counted_or_raw("full_gradient")))

    def _install_oracle(self):
        # query totals by kind come from each call's own counter (gate.observe),
        # so a new counted evaluator cannot escape them; these spans only time
        # the wrapper
        for cls, attr in ((oracle.CountedCompositionProblem, "inner_value_batch"),
                          (oracle.CountedCompositionProblem, "inner_jacobian_batch"),
                          (oracle.CountedCompositionProblem, "outer_gradient_batch"),
                          (oracle.CountedFiniteSumProblem, "comp_gradient_batch")):
            self.patch(cls, attr, lambda fn: self.span("oracle.counted", fn))
        # the counted snapshot Jacobian: the generic per-index loop today, or
        # whatever the counted class resolves it to later
        self.patch(oracle.CountedCompositionProblem, "full_inner_jacobian",
                   lambda fn: self.span("oracle.full_inner_jacobian", fn))

    def _install_cli(self):
        for fn_name in ("compute_reference", "tune_step_size"):
            self.patch(cli, fn_name, lambda fn, n=fn_name: self.span(f"cli.{n}", fn))

        def csv_bytes(args, result):
            self.count("cli.write_trace_csv.bytes", os.path.getsize(args[0]))

        self.patch(cli, "write_trace_csv",
                   lambda fn: self.span("cli.write_trace_csv", fn, after=csv_bytes))

    def _after_solver(self, label):
        def after(args, result):
            self.count(f"solvers.{label}.iters", result.n_iters)

        return after

    # -- results ---------------------------------------------------------------

    def arrays(self):
        start = np.asarray(self.span_start)
        end = np.asarray(self.span_end)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        name = np.asarray(self.span_name, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, start, end, parent, np.asarray(self.span_run, dtype=np.int64), dur, dur - child

    def totals(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        name, _, _, _, _, dur, self_s = self.arrays()
        out = {}
        for idx, label in enumerate(self.names):
            mask = name == idx
            out[label] = (int(mask.sum()), float(dur[mask].sum()), float(self_s[mask].sum()))
        return out

    def write(self, path):
        name, start, end, parent, run, _, _ = self.arrays()
        np.savez_compressed(
            path, names=np.asarray(self.names), name=name, start=start, end=end,
            parent=parent, run=run,
        )
