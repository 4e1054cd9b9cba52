"""Command-line entry point for the calibration pipeline.

One binary with subcommands covering the whole workflow: mesh and fiber
generation, measurement registration, forward simulation, conductivity
calibration, result reporting and synthetic fixture generation. Each
subcommand is one `_COMMANDS` entry: handler, help line, config keys
with their types, and the keys that are also flags (`--max-cal-points`
sets `max_cal_points`, typed like the key). The parser, the `--help`
epilog, the config check and the flag-over-config merge all derive from
that table; handlers receive the merged config. A subcommand rejects
unknown config keys and values of the wrong type, and removes partially
written outputs when it fails so reruns start clean.

Relative paths inside a config are resolved against the current working
directory, which keeps bundled scenario configs usable from any checkout
once the fixture has been generated next to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import InvalidArgumentError, MonocalError

SCENARIOS_DIR = Path(__file__).parent / "scenarios"


def _fail(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(1)


class _OutputTracker:
    """Records files a subcommand writes so failures can undo them."""

    def __init__(self):
        self.paths: list[Path] = []

    def add(self, *paths) -> None:
        self.paths.extend(Path(p) for p in paths)

    def discard_all(self) -> None:
        for p in self.paths:
            with suppress(OSError):
                p.unlink(missing_ok=True)


def _load_config(path: str | None, allowed: dict[str, type],
                 command: str) -> dict:
    """Read a JSON config and reject keys the subcommand does not consume.

    Each value must have its key's declared type; an integer counts as a
    float, a boolean never counts as a number, and null means unset. A
    name that does not exist on disk but matches a bundled scenario file
    resolves to the copy shipped inside the package.
    """
    if path is None:
        return {}
    p = Path(path)
    if not p.exists() and (SCENARIOS_DIR / path).exists():
        p = SCENARIOS_DIR / path
    if not p.exists():
        raise InvalidArgumentError(f"config file {p} does not exist")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"config file {p} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"config file {p} must hold a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise InvalidArgumentError(
            f"unknown config key(s) for {command}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}")
    for key, value in raw.items():
        expected = allowed[key]
        accepted = (int, float) if expected is float else expected
        wrong_bool = isinstance(value, bool) and expected is not bool
        if value is not None and (wrong_bool or not isinstance(value, accepted)):
            raise InvalidArgumentError(
                f"config key '{key}' for {command} must be of type "
                f"{expected.__name__}, got {type(value).__name__}")
    return raw


def _require(config: dict, key: str, command: str):
    if config.get(key) is None:
        raise InvalidArgumentError(
            f"{command} needs '{key}' (config key or matching flag)")
    return config[key]


def _existing_path(config: dict, key: str, command: str) -> Path:
    p = Path(_require(config, key, command))
    if not p.exists():
        raise InvalidArgumentError(f"{key} file {p} does not exist")
    return p


def _out_dir(config: dict, command: str) -> Path:
    out = Path(_require(config, "out", command))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_keys(spec: dict, cls, what: str) -> None:
    """Reject keys of a nested config dict that cls has no field for."""
    fields = set(cls.__dataclass_fields__)
    unknown = sorted(set(spec) - fields)
    if unknown:
        raise InvalidArgumentError(
            f"unknown {what} key(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(fields))}")


@contextmanager
def _reported_as_invalid(what: str):
    """Turn a TypeError/ValueError from a mistyped value into an
    InvalidArgumentError naming what was being built."""
    try:
        yield
    except InvalidArgumentError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"invalid {what}: {exc}") from exc


def _numbers(config: dict, key: str, default=None):
    """A list-valued config key as a float array (default when unset)."""
    import numpy as np

    value = config.get(key)
    with _reported_as_invalid(f"config key '{key}'"):
        return np.asarray(default if value is None else value, dtype=float)


def _solver_params(config: dict):
    from . import solver as slv

    raw = dict(config.get("solver") or {})
    _check_keys(raw, slv.SolverParams, "solver")
    raw.setdefault("t_end", 150.0)
    raw.setdefault("stop_when_activated", True)
    with _reported_as_invalid("solver parameters"):
        if "sigma" in raw:
            raw["sigma"] = tuple(raw["sigma"])
        return slv.SolverParams(**raw)


def _fiber_angles(spec: dict):
    from .fibers import FiberAngles

    _check_keys(spec, FiberAngles, "fiber_angles")
    with _reported_as_invalid("fiber_angles"):
        return FiberAngles(**spec)


def _load_fiber_field(config: dict, mesh):
    """Fiber input: a fields file, inline angles, or none (isotropic)."""
    import numpy as np

    from . import vtkio
    from .fibers import FiberField, generate_fibers

    if config.get("fibers") is not None:
        path = Path(config["fibers"])
        if not path.exists():
            raise InvalidArgumentError(f"fibers file {path} does not exist")
        fields = vtkio.read_fields(path)
        for name in ("fiber", "sheet", "normal"):
            if name not in fields:
                raise InvalidArgumentError(
                    f"fibers file {path} lacks the '{name}' vector field")
        singular = fields.get("singular", np.zeros(mesh.n_nodes))
        ff = FiberField(f=fields["fiber"], s=fields["sheet"],
                        n=fields["normal"], singular=singular > 0.5)
        ff.validate()
        return ff
    if config.get("fiber_angles") is not None:
        return generate_fibers(mesh, _fiber_angles(dict(config["fiber_angles"])))
    return None


def _read_mesh(config: dict, command: str):
    from . import vtkio

    return vtkio.read_mesh(_existing_path(config, "mesh", command))


def cmd_gen_mesh(config: dict, tracker: _OutputTracker) -> None:
    from . import vtkio
    from .geometry import build_lv_mesh, build_slab_mesh

    kind = config.get("kind", "slab")
    if kind not in ("slab", "ventricle"):
        raise InvalidArgumentError(
            f"kind must be 'slab' or 'ventricle', got {kind!r}")
    h = float(_require(config, "h", "gen-mesh"))
    if kind == "slab":
        mesh = build_slab_mesh(_numbers(config, "extents", (1.0, 1.0, 0.5)), h)
    else:
        mesh = build_lv_mesh(_numbers(config, "endo_axes", (0.45, 0.45, 1.05)),
                             _numbers(config, "epi_axes", (0.6, 0.6, 1.2)),
                             config.get("truncation_height", 0.3), h)
    out = _out_dir(config, "gen-mesh")
    mesh_path = out / "mesh.vtk"
    tracker.add(mesh_path, vtkio.surface_path(mesh_path))
    vtkio.write_mesh(mesh_path, mesh)
    print(f"wrote {mesh_path} ({mesh.n_nodes} nodes, {mesh.n_elems} cells)")


def cmd_gen_fibers(config: dict, tracker: _OutputTracker) -> None:
    from . import vtkio
    from .fibers import generate_fibers

    mesh = _read_mesh(config, "gen-fibers")
    angles = _fiber_angles({k: float(config[k]) for k in
                            ("alpha_endo", "alpha_epi", "beta_endo", "beta_epi")
                            if config.get(k) is not None})
    field = generate_fibers(mesh, angles)
    path = _out_dir(config, "gen-fibers") / "fibers.vtk"
    tracker.add(path)
    vtkio.write_fields(path, mesh, {
        "fiber": field.f, "sheet": field.s, "normal": field.n,
        "singular": field.singular.astype(float)})
    print(f"wrote {path} ({int(field.singular.sum())} singular nodes)")


def cmd_register(config: dict, tracker: _OutputTracker) -> None:
    from . import registration as reg

    mesh = _read_mesh(config, "register")
    merged, samples, stats = reg.register(
        mesh, _existing_path(config, "measurements", "register"),
        _existing_path(config, "references", "register"))
    out = _out_dir(config, "register")
    csv_path = out / "registered.csv"
    json_path = out / "registration.json"
    tracker.add(csv_path, json_path)
    reg.write_measurements(csv_path, merged,
                           groups=[s.group.value for s in samples])
    _write_json(json_path, stats)
    print(f"wrote {csv_path} and {json_path}")


def cmd_simulate(config: dict, tracker: _OutputTracker) -> None:
    from . import solver as slv
    from . import vtkio

    mesh = _read_mesh(config, "simulate")
    fiber_field = _load_fiber_field(config, mesh)
    params = _solver_params(config)
    for key in ("stimulus_points", "stimulus_onsets"):
        _require(config, key, "simulate")
    plan = slv.StimulusPlan(points=_numbers(config, "stimulus_points"),
                            onsets=_numbers(config, "stimulus_onsets"))
    snapshot_times = _numbers(config, "snapshot_times", ()).tolist()

    output = slv.simulate(mesh, fiber_field, params, plan,
                          snapshot_times=snapshot_times)
    out = _out_dir(config, "simulate")
    act_path = out / "activation.vtk"
    manifest_path = out / "manifest.json"
    tracker.add(act_path, manifest_path)
    vtkio.write_fields(act_path, mesh, {"activation": output.activation,
                                        "peak": output.peak_u})
    if snapshot_times:
        snap_path = out / "snapshots.vtk"
        tracker.add(snap_path)
        vtkio.write_fields(snap_path, mesh, {
            f"u_{t:g}ms".replace(".", "_"): u
            for t, u in sorted(output.snapshots.items())})
    manifest = dict(output.manifest)
    manifest["n_not_activated"] = output.n_not_activated
    _write_json(manifest_path, manifest)
    print(f"wrote {act_path} ({output.n_not_activated} nodes not activated)")


def _calibration_config(config: dict):
    from . import calibration as cal

    spec = dict(config.get("box") or {})
    _check_keys(spec, cal.ConductivityBox, "box")
    with _reported_as_invalid("box"):
        box = cal.ConductivityBox(**{k: tuple(v) for k, v in spec.items()})
    kwargs = {k: config[k] for k in ("tol_ms", "max_iters", "isotropic",
                                     "max_cal_points")
              if config.get(k) is not None}
    with _reported_as_invalid("calibration parameters"):
        for key in ("initial_sigma", "beta"):
            if config.get(key) is not None:
                kwargs[key] = tuple(config[key])
        return cal.CalibrationConfig(solver=_solver_params(config), box=box,
                                     **kwargs)


def cmd_calibrate(config: dict, tracker: _OutputTracker) -> None:
    import csv as csv_mod

    import numpy as np

    from . import calibration as cal
    from . import registration as reg

    mesh = _read_mesh(config, "calibrate")
    fiber_field = _load_fiber_field(config, mesh)
    cal_config = _calibration_config(config)
    if fiber_field is None and not cal_config.isotropic:
        raise InvalidArgumentError(
            "calibrate needs 'fibers' or 'fiber_angles' unless isotropic")
    _, samples, reg_stats = reg.register(
        mesh, _existing_path(config, "measurements", "calibrate"),
        _existing_path(config, "references", "calibrate"))
    inputs, cal_samples, val_samples, plan = reg.split_samples(samples)

    result = cal.calibrate(mesh, fiber_field, plan, cal_samples, cal_config,
                           val_samples)

    out = _out_dir(config, "calibrate")
    trace_path = out / "trace.csv"
    validation_path = out / "validation.json"
    correlation_path = out / "correlation.csv"
    manifest_path = out / "manifest.json"
    tracker.add(trace_path, validation_path, correlation_path, manifest_path)

    cal.write_trace(trace_path, result)
    report = result.validation
    payload = {
        "sigma_hat": [float(v) for v in result.sigma_hat],
        "converged": result.converged,
        "iterations": len(result.iterations),
        "validation": None if report is None else {
            "mean_rel": report.mean_rel,
            "mean_rel_pointwise": report.mean_rel_pointwise,
            "std_rel": report.std_rel,
            "std_rel_pointwise": report.std_rel_pointwise,
            "five_number_rel": list(report.summary),
            "slope": report.slope,
            "r_squared": report.r_squared,
            "n_used": report.n_used,
            "n_not_activated": report.n_not_activated,
        },
    }
    _write_json(validation_path, payload)

    with open(correlation_path, "w", newline="") as handle:
        writer = csv_mod.writer(handle)
        writer.writerow(("group", "tau_measured_ms", "tau_computed_ms"))
        rows = [("I", s.tau, c) for s, c in
                zip(result.calibration_samples, result.calibration_computed)]
        rows += [("II", s.tau, c) for s, c in
                 zip(val_samples, result.validation_computed)]
        for group, tau, computed in rows:
            val = "" if not np.isfinite(computed) else f"{computed:.9g}"
            writer.writerow((group, f"{tau:.9g}", val))

    manifest = {"registration": reg_stats, "mesh_hash": mesh.content_hash(),
                "n_input": len(inputs), "n_cal": len(cal_samples),
                "n_val": len(val_samples)}
    _write_json(manifest_path, manifest)
    sig = ", ".join(f"{v:.4f}" for v in result.sigma_hat)
    print(f"sigma_hat = ({sig})  converged={result.converged}  "
          f"iterations={len(result.iterations)}")
    if report is not None:
        print(f"validation mean relative error = {100 * report.mean_rel:.2f}%")
    print(f"wrote {trace_path}, {validation_path}, {correlation_path}")


def cmd_report(config: dict, tracker: _OutputTracker) -> None:
    import csv as csv_mod

    import numpy as np

    from .activation import five_number_summary, regression_stats

    results = Path(_require(config, "results", "report"))
    trace_path = results / "trace.csv"
    if not trace_path.exists():
        raise InvalidArgumentError(
            f"no calibration results found: missing trace file {trace_path}")

    with open(trace_path, newline="") as handle:
        trace = list(csv_mod.DictReader(handle))
    validation_path = results / "validation.json"
    validation = json.loads(validation_path.read_text()) \
        if validation_path.exists() else {}

    lines = ["calibration report", "==================", "",
             "iteration trace (sigma in mS/cm, E in ms, F in ms^2):"]
    for row in trace:
        lines.append(
            f"  {row['iter']:>3}  sigma=({float(row['sigma_f']):.4f}, "
            f"{float(row['sigma_s']):.4f}, {float(row['sigma_n']):.4f})  "
            f"E={float(row['E_ms']):+9.3f}  F={float(row['F_ms2']):10.3f}  "
            f"eI={float(row['eI_pct']):6.3f}%")
    if validation:
        sig = ", ".join(f"{v:.4f}" for v in validation.get("sigma_hat", []))
        lines += ["", f"estimated conductivities (mS/cm): {sig}",
                  f"converged: {validation.get('converged')} "
                  f"after {validation.get('iterations')} iterations"]
        rep = validation.get("validation")
        if rep:
            five = ", ".join(f"{100 * v:.2f}" for v in rep["five_number_rel"])
            lines += [
                "", "validation (group II):",
                f"  mean relative error: {100 * rep['mean_rel']:.3f}%",
                "  mean pointwise relative error: "
                f"{100 * rep['mean_rel_pointwise']:.3f}%",
                f"  std of relative errors: {100 * rep['std_rel']:.3f}%",
                f"  five-number summary of relative errors (%): {five}",
                f"  regression slope {rep['slope']:.4f}, "
                f"R^2 {rep['r_squared']:.4f} over {rep['n_used']} points"]

    correlation_path = results / "correlation.csv"
    if correlation_path.exists():
        with open(correlation_path, newline="") as handle:
            rows = [r for r in csv_mod.DictReader(handle)
                    if r["tau_computed_ms"]]
        for label, keep in (("pooled", ("I", "II")), ("group I", ("I",))):
            pairs = [(float(r["tau_measured_ms"]), float(r["tau_computed_ms"]))
                     for r in rows if r["group"] in keep]
            if len(pairs) >= 3:
                measured, computed = map(np.array, zip(*pairs))
                slope, r2 = regression_stats(computed, measured)
                errors = np.abs(computed - measured)
                five = ", ".join(f"{v:.2f}" for v in five_number_summary(errors))
                lines += ["", f"{label} ({len(pairs)} points): "
                          f"slope {slope:.4f}, R^2 {r2:.4f}",
                          f"  five-number summary of |error| (ms): {five}"]

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if config.get("out") is not None:
        out = _out_dir(config, "report")
        report_path = out / "report.txt"
        tracker.add(report_path)
        report_path.write_text(text)
        print(f"wrote {report_path}")


def cmd_gen_twin(config: dict, tracker: _OutputTracker) -> None:
    from . import twin, vtkio

    data = twin.build_twin(h=float(config.get("h", twin.DEFAULT_H)),
                           sigma=_numbers(config, "sigma", twin.TRUE_SIGMA))
    out = _out_dir(config, "gen-twin")
    paths = twin.write_twin(data, out,
                            perturb_cm=float(config.get("perturb_cm", 0.015)),
                            seed=int(config.get("seed", 7)))
    tracker.add(*paths.values(), vtkio.surface_path(paths["mesh"]))
    print(f"wrote twin fixture to {out} "
          f"({data.mesh.n_nodes} nodes, {len(data.vein_nodes)} vein points)")


class _Command(NamedTuple):
    """A subcommand's handler, help line, typed config keys, flag keys."""

    handler: Callable[[dict, _OutputTracker], None]
    help: str
    keys: dict[str, type]
    flags: tuple[str, ...]


_COMMANDS = {
    "gen-mesh": _Command(
        cmd_gen_mesh, "Generate a slab or truncated-ellipsoid mesh",
        {"kind": str, "h": float, "extents": list, "endo_axes": list,
         "epi_axes": list, "truncation_height": float, "out": str},
        ("kind", "h", "out")),
    "gen-fibers": _Command(
        cmd_gen_fibers, "Generate a rule-based fiber field",
        {"mesh": str, "alpha_endo": float, "alpha_epi": float,
         "beta_endo": float, "beta_epi": float, "out": str},
        ("mesh", "alpha_endo", "alpha_epi", "beta_endo", "beta_epi", "out")),
    "register": _Command(
        cmd_register, "Register measurements onto a mesh",
        {"mesh": str, "measurements": str, "references": str, "out": str},
        ("mesh", "measurements", "references", "out")),
    "simulate": _Command(
        cmd_simulate, "Run a paced monodomain simulation",
        {"mesh": str, "fibers": str, "fiber_angles": dict, "solver": dict,
         "stimulus_points": list, "stimulus_onsets": list,
         "snapshot_times": list, "out": str},
        ("mesh", "fibers", "out")),
    "calibrate": _Command(
        cmd_calibrate, "Estimate conductivities from measurements",
        {"mesh": str, "fibers": str, "fiber_angles": dict,
         "measurements": str, "references": str, "solver": dict,
         "box": dict, "beta": list, "initial_sigma": list, "tol_ms": float,
         "max_iters": int, "isotropic": bool, "max_cal_points": int,
         "out": str},
        ("mesh", "fibers", "measurements", "references", "max_cal_points",
         "out")),
    "report": _Command(
        cmd_report, "Summarize a calibration result directory",
        {"results": str, "out": str}, ("results", "out")),
    "gen-twin": _Command(
        cmd_gen_twin, "Generate the synthetic twin fixture",
        {"h": float, "sigma": list, "perturb_cm": float, "seed": int,
         "out": str},
        ("h", "seed", "out")),
}

# Help text of each key that is a flag of some subcommand.
_FLAG_HELP = {
    "alpha_endo": "fiber helix angle on the endocardium (deg)",
    "alpha_epi": "fiber helix angle on the epicardium (deg)",
    "beta_endo": "sheet transverse angle, endocardium (deg)",
    "beta_epi": "sheet transverse angle, epicardium (deg)",
    "fibers": "fiber field file (VTK)",
    "h": "target element size (cm)",
    "kind": "mesh kind (default slab)",
    "max_cal_points": "use only the K earliest group-I points",
    "measurements": "measurement CSV (mm, ms)",
    "mesh": "volume mesh file (VTK)",
    "out": "output directory",
    "references": "landmark pair CSV (mm)",
    "results": "calibration output directory",
    "seed": "seed for the perturbed landmark references",
}


def build_parser() -> argparse.ArgumentParser:
    from .solver import SolverParams

    parser = argparse.ArgumentParser(
        prog="monocal",
        description="Monodomain conductivity calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        epilog = "config keys: " + ", ".join(command.keys)
        if "solver" in command.keys:
            epilog += "; solver keys: " + ", ".join(
                SolverParams.__dataclass_fields__)
        p = sub.add_parser(name, help=command.help, epilog=epilog)
        p.add_argument("--config",
                       help="JSON config file (a bare name falls back to the "
                            "bundled scenarios directory)")
        for key in command.flags:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=command.keys[key], help=_FLAG_HELP[key])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    tracker = _OutputTracker()
    try:
        config = _load_config(args.config, command.keys, args.command)
        config.update({key: getattr(args, key) for key in command.flags
                       if getattr(args, key) is not None})
        command.handler(config, tracker)
    except (MonocalError, OSError) as exc:
        tracker.discard_all()
        raise _fail(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
