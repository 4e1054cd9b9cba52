"""End-to-end and per-layer benchmark of the monocal CLI.

    python3 perfbench/run.py --workload forward_twin --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. Inputs are generated first, untimed,
with `monocal gen-mesh` / `monocal gen-twin` (the seed goes to
`gen-twin --seed`). Then the workload's subcommand is run until
--seconds have passed and at least MIN_OPS times, each time in a fresh
worker process with BLAS threads fixed to 1; every operation's output
is checked (see checks.py). `fine_window` is not in
BENCHMARK.json (see README.md) but runs the same way.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (medians over the operations); with --trace 1 they are the
per-layer ones derived from spans (see spans.py). Metric names and
units come from BENCHMARK.json next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The simulate workloads' inputs, pinned here: the twin's true
# conductivities, fiber angles and septal pacing targets (monocal.twin)
TWIN_SIGMA = (1.27, 0.28, 0.045)
FIBER_ANGLES = {"alpha_endo": 60.0, "alpha_epi": -60.0,
                "beta_endo": -20.0, "beta_epi": 20.0}
SEPTAL_TARGETS = ((-0.36, 0.00, -0.36), (-0.39, 0.06, 0.00),
                  (-0.36, -0.06, 0.18))
FORWARD_T_END_MS = 150.0
FINE_H_CM = 0.025
FINE_WINDOW_MS = 8.0
# input generation and MIN_OPS operations (each about 30 s at most)
# stay within the 180 s one run may take
WORKER_TIMEOUT_S = 75.0
# A run makes at least this many operations, so even a workload whose
# operation outlasts --seconds reports the median of more than one
MIN_OPS = 2


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed input)."""


def worker(args: list[str], result: Path, trace: int = 0,
           gen: bool = False) -> dict:
    """Run one monocal subcommand in a fresh worker process."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--result", str(result), "--trace", str(trace)]
    if gen:
        cmd.append("--gen")
    result.unlink(missing_ok=True)
    proc = subprocess.run(cmd + ["--"] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    (result.parent / (result.stem + ".log")).write_text(proc.stdout
                                                       + proc.stderr)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker for {' '.join(args[:1])} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(result.read_text())


def septal_sites(mesh_path: Path):
    """The twin's three septal pacing targets, snapped to the nearest
    endocardial nodes of the given mesh as gen-twin does."""
    from scipy.spatial import cKDTree

    from monocal import vtkio
    from monocal.geometry import SurfaceTag

    mesh = vtkio.read_mesh(mesh_path)
    endo = mesh.boundary_node_ids(int(SurfaceTag.ENDO))
    _, idx = cKDTree(mesh.nodes[endo]).query(SEPTAL_TARGETS)
    return mesh, mesh.nodes[endo[idx]]


class Forward:
    """`simulate` on a ventricle mesh paced at the twin's septal sites,
    with the twin's true conductivities and fiber angles."""

    def __init__(self, work: Path, h: float, onsets, t_end: float,
                 whole_map: bool = True):
        self.work = work
        self.h = h
        self.onsets = list(onsets)
        self.t_end = t_end
        self.whole_map = whole_map

    def prepare(self, seed: int) -> dict:
        inputs = self.work / "inputs"
        gen = worker(["gen-mesh", "--kind", "ventricle", "--h", str(self.h),
                      "--out", str(inputs)], self.work / "gen.json", gen=True)
        mesh, self.sites = septal_sites(inputs / "mesh.vtk")
        self.nodes = mesh.nodes
        config = {"mesh": str(inputs / "mesh.vtk"),
                  "fiber_angles": FIBER_ANGLES,
                  "solver": {"sigma": list(TWIN_SIGMA), "t_end": self.t_end,
                             "stop_when_activated": True},
                  "stimulus_points": self.sites.tolist(),
                  "stimulus_onsets": self.onsets,
                  "out": str(self.work / "out")}
        config_path = self.work / "simulate.json"
        config_path.write_text(json.dumps(config, indent=1))
        self.args = ["simulate", "--config", str(config_path)]
        return gen["geometry"]

    def check(self) -> list[str]:
        from checks import check_activation_map

        from monocal import vtkio
        from monocal.solver import SolverParams

        fields = vtkio.read_fields(self.work / "out" / "activation.vtk")
        p = SolverParams()
        return check_activation_map(
            fields["activation"], self.nodes, self.sites, self.onsets,
            p.stimulus_radius, p.stimulus_duration, self.h,
            reach=None if self.whole_map else p.stimulus_radius)


class Calibrate:
    """`calibrate` with the bundled test_a_standard scenario on the twin."""

    def __init__(self, work: Path):
        self.work = work

    def prepare(self, seed: int) -> dict:
        self.inputs = self.work / "inputs"
        gen = worker(["gen-twin", "--seed", str(seed),
                      "--out", str(self.inputs)],
                     self.work / "gen.json", gen=True)
        self.args = ["calibrate", "--config", "test_a_standard.json",
                     "--mesh", str(self.inputs / "mesh.vtk"),
                     "--measurements", str(self.inputs / "measurements.csv"),
                     "--references", str(self.inputs / "references.csv"),
                     "--out", str(self.work / "out")]
        return gen["geometry"]

    def check(self) -> list[str]:
        from checks import check_calibration, read_correlation

        out = self.work / "out"
        truth = json.loads((self.inputs / "truth.json").read_text())
        return check_calibration(
            json.loads((out / "validation.json").read_text()),
            read_correlation(out / "correlation.csv"), truth["sigma"])


WORKLOADS = {
    # the twin's h and septal onsets
    "forward_twin": lambda work: Forward(work, 0.05, (30.0, 40.0, 50.0),
                                         FORWARD_T_END_MS),
    "calibrate_twin": Calibrate,
    # not in BENCHMARK.json: two of its operations per run do not fit the
    # time all of the benchmark's runs may take (README.md)
    "fine_window": lambda work: Forward(work, FINE_H_CM, (0.0, 0.0, 0.0),
                                        FINE_WINDOW_MS, whole_map=False),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "monocal" / "cli.py").is_file():
        print(f"error: no monocal sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from spans import layer_metrics

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work)
    geometry = workload.prepare(args.seed)

    attempted = failed = 0
    problems: list[str] = []
    samples: list[dict] = []
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < args.seconds:
        attempted += 1
        result_path = work / f"op{attempted}.json"
        try:
            result = worker(workload.args, result_path, trace=args.trace)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"operation {attempted} failed: {exc}", file=sys.stderr)
            result = {"ok": False}
        if not result["ok"]:
            failed += 1
            continue
        found = workload.check()
        if args.trace:
            audit = result["residual"]
            if audit["checked"] == 0 or audit["failed"]:
                found.append(f"residual audit: {audit}")
            samples.append(layer_metrics(
                json.loads(Path(result["spans"]).read_text())))
        else:
            samples.append({"wall_s": result["wall_s"],
                            "setup_s": result["setup_s"],
                            "peak_rss_mb": result["peak_rss_mb"]})
        problems += [f"operation {attempted}: {p}" for p in found]

    if not samples:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in declared[kind]:
        name = spec["name"]
        if name.startswith("geometry."):
            value = geometry[name.split(".", 1)[1]]
        else:
            value = statistics.median(s[name] for s in samples)
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload} {name} = {value:.6g} {spec['unit']}")
    print(f"{args.workload}: {attempted} attempted, {failed} failed, "
          f"{len(problems)} check failures")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
