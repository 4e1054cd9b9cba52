"""The monocal names the benchmark patches from outside the package exist.

perfbench/spans.py wraps every call listed in TRACED_CALLS, and
perfbench/worker.py also wraps build_lv_mesh in geometry and twin and
times MonodomainSolver.step. A deleted or renamed target would otherwise
surface only when `perfbench/run.py --trace 1` runs.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

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
