"""Spans around monocal's public calls, recorded from outside the package.

A Tracer replaces a module function or class method with a wrapper that
records one span (name, start, end, parent) per call and, optionally,
a few facts about the call (iteration counts, sizes) in the span's info
dict. Spans stay in memory; the worker writes them out when its run
ends. `layer_metrics` turns one operation's spans into the per-layer
figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import time
from pathlib import Path

# One GMRES call in this many has its residual recomputed from outside.
RESIDUAL_SAMPLE_EVERY = 97


# Fact recorders: (tracer, span info, call args, call kwargs, result).

def _bytes_written(tracer, info, args, kwargs, result) -> None:
    info["bytes"] = Path(args[0]).stat().st_size


def _solver_size(tracer, info, args, kwargs, result) -> None:
    info["nnz"] = int(args[0].plan.nnz)


def _run_plan(tracer, info, args, kwargs, result) -> None:
    solver, plan = args[0], args[1]
    info["dt"] = float(solver.params.dt)
    info["first_onset"] = float(plan.onsets.min()) if plan.onsets.size \
        else 0.0


def _points(tracer, info, args, kwargs, result) -> None:
    info["points"] = len(result.points)


def _iterations(tracer, info, args, kwargs, result) -> None:
    info["iterations"] = len(result.iterations)


def _gmres_facts(tracer, info, args, kwargs, result) -> None:
    matrix, rhs = args[0], args[1]
    info["iterations"] = int(result.iterations)
    info["basis_bytes"] = (kwargs.get("restart", 200) + 1) * len(rhs) * 8
    if tracer.check_residual is not None \
            and tracer.gmres_calls % RESIDUAL_SAMPLE_EVERY == 0:
        index = tracer.open("bench.residual_check")
        try:
            tracer.check_residual(matrix, rhs, result.x,
                                  kwargs.get("rel_tol", 1e-10))
        finally:
            tracer.close(index)
    tracer.gmres_calls += 1


# Every wrapped call: (module, attribute path, span name, fact recorder).
TRACED_CALLS = (
    ("vtkio", "read_mesh", "vtkio.read", None),
    ("vtkio", "read_fields", "vtkio.read", None),
    ("vtkio", "write_fields", "vtkio.write", _bytes_written),
    ("fibers", "generate_fibers", "fibers.generate", None),
    ("fem", "solve_dirichlet", "fem.solve_dirichlet", None),
    ("solver", "simulate", "solver.simulate", None),
    ("solver", "MonodomainSolver.__init__", "solver.init", _solver_size),
    ("solver", "MonodomainSolver.simulate", "solver.run", _run_plan),
    ("solver", "MonodomainSolver.step", "solver.step", None),
    ("ionic", "step_gating", "ionic.gating", None),
    ("ionic", "reaction_coefficients", "ionic.reaction", None),
    ("fem", "gmres_solve", "fem.gmres", _gmres_facts),
    ("registration", "read_measurements", "registration.read", _points),
    ("registration", "read_reference_pairs", "registration.read", None),
    ("registration", "rigid_from_three_pairs", "registration.fit", None),
    ("registration", "nns_project", "registration.project", None),
    ("registration", "split_groups", "registration.split", None),
    ("activation", "extract_activation_at", "activation.extract", None),
    ("calibration", "calibrate", "calibration.calibrate", _iterations),
)


class Tracer:
    """Records spans in memory; `install` patches, `restore` unpatches."""

    def __init__(self, check_residual=None):
        # spans are [name, start, end, parent index or -1, info dict]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.gmres_calls = 0
        self.check_residual = check_residual

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, recorder=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if recorder is not None:
                recorder(self, self.spans[index][4], args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every call in TRACED_CALLS."""
        for module, path, name, recorder in TRACED_CALLS:
            owner = importlib.import_module(f"monocal.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.wrap(owner, attr, name, recorder)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class FirstStepClock:
    """Untraced runs: note when the first time step starts, then get out
    of the way by putting the original method back."""

    def __init__(self, solver_class):
        self.time: float | None = None
        original = solver_class.step

        def first_step(solver, *args, **kwargs):
            self.time = time.perf_counter()
            solver_class.step = original
            return original(solver, *args, **kwargs)

        solver_class.step = first_step


def _children(spans):
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    return kids


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one operation from its spans.

    Layers the operation never entered read zero.
    """
    kids = _children(spans)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(dur(i) for i in named(name))

    def self_time(i):
        return dur(i) - sum(dur(k) for k in kids[i])

    steps = named("solver.step")
    n_steps = len(steps)
    per_step = 1e3 / n_steps if n_steps else 0.0
    gmres = named("fem.gmres")
    iters = [spans[i][4]["iterations"] for i in gmres]

    setup = quiet_s = loop_s = bookkeeping = 0.0
    quiet_steps = 0
    for run in named("solver.run"):
        info = spans[run][4]
        run_steps = [k for k in kids[run] if spans[k][0] == "solver.step"]
        if not run_steps:
            continue
        first, last = spans[run_steps[0]], spans[run_steps[-1]]
        setup += first[1] - spans[run][1]
        loop = last[2] - first[1]
        loop_s += loop
        bookkeeping += loop - sum(dur(k) for k in run_steps)
        quiet = [k for n, k in enumerate(run_steps, start=1)
                 if n * info["dt"] < info["first_onset"]]
        quiet_steps += len(quiet)
        if quiet:
            # the quiet lead-in lasts until the first active step starts
            following = run_steps[len(quiet)] if len(quiet) < len(run_steps) \
                else None
            end = spans[following][1] if following is not None \
                else spans[quiet[-1]][2]
            quiet_s += end - first[1]
    setup += total("solver.init")

    calibrations = named("calibration.calibrate")
    cal_iterations = sum(spans[i][4]["iterations"] for i in calibrations)
    cal_sims = [k for c in calibrations for k in kids[c]
                if spans[k][0] == "solver.simulate"]
    registration = sum(total(f"registration.{part}")
                       for part in ("read", "fit", "project", "split"))
    return {
        "cli.wall_s": total("cli"),
        "vtkio.read_s": total("vtkio.read"),
        "vtkio.write_s": total("vtkio.write"),
        "vtkio.bytes_written": sum(spans[i][4]["bytes"]
                                   for i in named("vtkio.write")),
        "fibers.generate_s": total("fibers.generate"),
        "fibers.laplace_s": total("fem.solve_dirichlet"),
        "fibers.laplace_solves": len(named("fem.solve_dirichlet")),
        "fem.nnz": max((spans[i][4]["nnz"] for i in named("solver.init")),
                       default=0),
        "fem.gmres_calls": len(gmres),
        "fem.gmres_s": total("fem.gmres"),
        "fem.gmres_ms_per_call": 1e3 * total("fem.gmres") / len(gmres)
        if gmres else 0.0,
        "fem.gmres_iters_mean": sum(iters) / len(iters) if iters else 0.0,
        "fem.gmres_iters_max": max(iters, default=0),
        "fem.gmres_basis_mb": max((spans[i][4]["basis_bytes"] for i in gmres),
                                  default=0) / 1e6,
        "fem.residual_checks": len(named("bench.residual_check")),
        "ionic.gating_ms_per_step": total("ionic.gating") * per_step,
        "ionic.reaction_ms_per_step": total("ionic.reaction") * per_step,
        "solver.setup_s": setup,
        "solver.steps": n_steps,
        "solver.quiet_steps": quiet_steps,
        "solver.quiet_s": quiet_s,
        # the sampled residual checks are child spans, so not self time
        "solver.system_ms_per_step": sum(self_time(i) for i in steps)
        * per_step,
        "solver.bookkeeping_ms_per_step": bookkeeping * per_step,
        "solver.loop_s": loop_s,
        "registration.s": registration,
        "registration.points": sum(spans[i][4].get("points", 0)
                                   for i in named("registration.read")),
        "activation.extract_s": total("activation.extract"),
        "activation.extract_calls": len(named("activation.extract")),
        "calibration.iterations": cal_iterations,
        "calibration.simulations": len(cal_sims),
        "calibration.useful_ratio": cal_iterations / len(cal_sims)
        if cal_sims else 0.0,
        "calibration.simulate_s": sum(dur(k) for k in cal_sims),
    }
