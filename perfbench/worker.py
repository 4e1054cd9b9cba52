"""Run one monocal subcommand in-process and report how it went.

    python3 perfbench/worker.py --src SRC --result OUT.json --trace 0|1 \
        [--gen] -- <monocal arguments>

The worker lives for exactly one subcommand, so its peak resident memory
is that subcommand's. With --trace 0 only the start of the first time
step is noted (for set-up time); with --trace 1 every call listed in
spans.TRACED_CALLS is wrapped, sampled GMRES residuals are recomputed
here, and the spans are written next to the result. --gen marks input
generation: only the mesh build is timed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from checks import residual_excess
from spans import FirstStepClock, Tracer


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ResidualAudit:
    """Recomputes ||b - A x|| for sampled solves and keeps the worst."""

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.worst = 0.0

    def __call__(self, matrix, rhs, x, rel_tol) -> None:
        excess = residual_excess(matrix, rhs, x, rel_tol)
        self.checked += 1
        self.failed += excess > 1.0
        self.worst = max(self.worst, excess)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gen", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import monocal
    if Path(monocal.__file__).resolve().parent != src / "monocal":
        print(f"monocal imported from {monocal.__file__}, not {src}",
              file=sys.stderr)
        return 2
    # every monocal module (and the scipy parts they use) is imported
    # before the clock starts, so timings cover the program's work only
    from monocal import calibration, cli, geometry, solver, twin  # noqa: F401

    tracer = clock = audit = None
    if args.gen:
        tracer = Tracer()
        for owner in (geometry, twin):
            tracer.wrap(owner, "build_lv_mesh", "geometry.build",
                        lambda tracer, info, a, k, mesh: info.update(
                            n_nodes=mesh.n_nodes, n_elems=mesh.n_elems))
    elif args.trace:
        audit = ResidualAudit()
        tracer = Tracer(check_residual=audit)
        tracer.install()
    else:
        clock = FirstStepClock(solver.MonodomainSolver)

    cli_span = tracer.open("cli") if tracer else None
    start = time.perf_counter()
    try:
        cli.main(argv)
        ok = True
    except SystemExit as exc:
        ok = exc.code in (0, None)
    end = time.perf_counter()
    if tracer:
        tracer.close(cli_span)
        tracer.restore()
    result = {"ok": ok, "wall_s": end - start, "peak_rss_mb": peak_rss_mb()}

    if clock is not None:
        result["setup_s"] = None if clock.time is None else clock.time - start
    if args.gen:
        build = next(s for s in tracer.spans if s[0] == "geometry.build")
        result["geometry"] = dict(build[4], build_s=build[2] - build[1])
    elif args.trace:
        spans_path = Path(args.result).with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans"] = str(spans_path)
        result["residual"] = {"checked": audit.checked,
                              "failed": audit.failed,
                              "worst_over_tol": audit.worst}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
