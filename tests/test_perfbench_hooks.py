"""The monocal names the benchmark patches from outside the package exist.

perfbench/spans.py wraps every call listed in TRACED_CALLS, and
perfbench/worker.py also wraps build_lv_mesh in geometry and twin and
times MonodomainSolver.step. A deleted or renamed target would otherwise
surface only when `perfbench/run.py --trace 1` runs. The spans a traced
calibration leaves must also count what calibrate does: one simulation
per iteration; and a traced solver set-up must report the size of the
solver's assembly plan.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

from oracles import single_plan

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def _target(module: str, path: str):
    owner = importlib.import_module(f"monocal.{module}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_call_resolves_and_is_restored(spans):
    names = [(module, path) for module, path, _, _ in spans.TRACED_CALLS]
    originals = [_target(*name) for name in names]
    missing = [".".join(name) for name, target in zip(names, originals)
               if not callable(target)]
    assert missing == []

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(_target(*name) is not original
                   for name, original in zip(names, originals))
    finally:
        tracer.restore()
    assert all(_target(*name) is original
               for name, original in zip(names, originals))


def test_worker_hooks_exist():
    from monocal import geometry, solver, twin

    assert callable(geometry.build_lv_mesh)
    assert twin.build_lv_mesh is geometry.build_lv_mesh
    assert callable(solver.MonodomainSolver.step)


def test_traced_calibration_runs_one_simulation_per_iteration(spans):
    from monocal import activation as act
    from monocal import calibration as cal
    from monocal import geometry
    from monocal import solver as slv
    from monocal.registration import RawCloud

    mesh = geometry.build_slab_mesh((0.6, 0.1, 0.05), 0.05)
    plan = slv.StimulusPlan(points=np.array([[0.0, 0.0, 0.0]]),
                            onsets=np.array([0.0]))
    params = slv.SolverParams(sigma=(1.0, 1.0, 1.0), dt=0.025, t_end=40.0,
                              stop_when_activated=True, stimulus_radius=0.08,
                              stimulus_amplitude=225000.0)
    points = np.array([[0.2, 0.05, 0.05], [0.3, 0.0, 0.0], [0.4, 0.1, 0.05],
                       [0.5, 0.05, 0.0], [0.55, 0.0, 0.05]])
    # data 0.5 ms later than the start's own times: the search takes
    # both of its iterations without converging
    output = slv.simulate(mesh, None, params, plan)
    taus = act.extract_activation_at(mesh, output.activation, points) + 0.5
    cloud = RawCloud(points=points, taus=taus, sites=[act.Site.EPI_VEIN] * 5)
    config = cal.CalibrationConfig(beta=(9.0, 2.0, 1.0), max_iters=2,
                                   tol_ms=0.01)

    tracer = spans.Tracer()
    tracer.install()
    try:
        cal.calibrate(cal.Evaluator(mesh, None, plan, params),
                      cloud.subset(np.arange(3)), config,
                      val=cloud.subset(np.arange(3, 5)))
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["calibration.iterations"] == 2
    assert metrics["calibration.simulations"] == 2
    assert metrics["calibration.useful_ratio"] == 1.0


def test_traced_solver_reports_its_plan_size(spans):
    from monocal import geometry
    from monocal import solver as slv

    mesh = geometry.build_slab_mesh((0.2, 0.1, 0.05), 0.05)
    tracer = spans.Tracer()
    tracer.install()
    try:
        solver = slv.MonodomainSolver(mesh, None, slv.SolverParams(t_end=1.0))
        solver.simulate(single_plan((0.0, 0.0, 0.0)))
    finally:
        tracer.restore()
    assert spans.layer_metrics(tracer.spans)["fem.nnz"] == solver.plan.nnz
