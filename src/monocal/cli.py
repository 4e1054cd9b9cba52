"""Command-line entry point for the calibration pipeline.

One binary with subcommands covering the whole workflow: mesh and fiber
generation, measurement registration, forward simulation, conductivity
calibration, result reporting and synthetic fixture generation. Every
subcommand reads an optional JSON config whose keys can be overridden by
flags (flags win), rejects unknown config keys, and removes partially
written outputs when it fails so reruns start clean.

Relative paths inside a config are resolved against the current working
directory, which keeps bundled scenario configs usable from any checkout
once the fixture has been generated next to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _load_config(path: str | None, allowed: dict[str, type | tuple],
                 command: str) -> dict:
    """Read a JSON config and reject keys the subcommand does not consume.

    A name that does not exist on disk but matches a bundled scenario
    file resolves to the copy shipped inside the package.
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


def _merge_flags(config: dict, args: argparse.Namespace, keys) -> dict:
    merged = dict(config)
    for key in keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    return merged


def _solver_params(config: dict):
    from . import solver as slv

    fields = {f for f in slv.SolverParams.__dataclass_fields__}
    raw = dict(config.get("solver") or {})
    unknown = sorted(set(raw) - fields)
    if unknown:
        raise InvalidArgumentError(
            f"unknown solver key(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(fields))}")
    raw.setdefault("t_end", 150.0)
    raw.setdefault("stop_when_activated", True)
    if "sigma" in raw:
        raw["sigma"] = tuple(raw["sigma"])
    return slv.SolverParams(**raw)


def _fiber_angles(spec: dict):
    from .fibers import FiberAngles

    fields = {f for f in FiberAngles.__dataclass_fields__}
    unknown = sorted(set(spec) - fields)
    if unknown:
        raise InvalidArgumentError(
            f"unknown fiber_angles key(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(fields))}")
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


def _register_pipeline(mesh, measurements_path, references_path):
    """Shared register + project + group stage; returns samples and stats."""
    import numpy as np

    from . import registration as reg
    from .geometry import SurfaceTag

    cloud = reg.read_measurements(measurements_path)
    source, target = reg.read_reference_pairs(references_path)
    transform = reg.rigid_from_three_pairs(source, target)
    moved = reg.RawCloud(points=transform.apply(cloud.points),
                         taus=cloud.taus, sites=cloud.sites, order=cloud.order)
    is_vein = np.array([s.value == "vein" for s in cloud.sites])
    if not is_vein.any() or is_vein.all():
        raise InvalidArgumentError(
            "measurements must contain both septum and vein sites")
    vein_cloud, vein_rep = reg.nns_project(moved.subset(is_vein), mesh,
                                           int(SurfaceTag.EPI))
    sept_cloud, sept_rep = reg.nns_project(moved.subset(~is_vein), mesh,
                                           int(SurfaceTag.ENDO))
    merged = reg.RawCloud(
        points=np.vstack([sept_cloud.points, vein_cloud.points]),
        taus=np.concatenate([sept_cloud.taus, vein_cloud.taus]),
        sites=list(sept_cloud.sites) + list(vein_cloud.sites),
        order=np.concatenate([sept_cloud.order, vein_cloud.order]))
    samples = reg.build_samples(merged)
    stats = {
        "rotation": transform.rotation.tolist(),
        "translation_cm": transform.translation.tolist(),
        "landmark_rms_cm": float(np.sqrt(np.mean(
            np.sum((transform.apply(source) - target) ** 2, axis=1)))),
        "septum": {"max_displacement_cm": sept_rep.max,
                   "mean_displacement_cm": sept_rep.mean},
        "vein": {"max_displacement_cm": vein_rep.max,
                 "mean_displacement_cm": vein_rep.mean},
    }
    return merged, samples, stats


def _split_samples(samples):
    from .activation import Group

    inputs = [s for s in samples if s.group is Group.INPUT]
    cal = [s for s in samples if s.group is Group.CAL_I]
    val = [s for s in samples if s.group is Group.VAL_II]
    if not inputs:
        raise InvalidArgumentError("no septum sites to pace from")
    return inputs, cal, val


def _stimulus_plan(inputs):
    import numpy as np

    from . import solver as slv

    return slv.StimulusPlan(
        points=np.array([s.location for s in inputs]),
        onsets=np.array([s.tau for s in inputs]))


def cmd_gen_mesh(args, tracker: _OutputTracker) -> None:
    from . import vtkio
    from .geometry import build_lv_mesh, build_slab_mesh

    allowed = {"kind": str, "h": float, "extents": list, "endo_axes": list,
               "epi_axes": list, "truncation_height": float, "out": str}
    config = _merge_flags(_load_config(args.config, allowed, "gen-mesh"),
                          args, ("kind", "h", "out"))
    kind = config.get("kind", "slab")
    h = float(_require(config, "h", "gen-mesh"))
    if kind == "slab":
        mesh = build_slab_mesh(config.get("extents", (1.0, 1.0, 0.5)), h)
    elif kind == "ventricle":
        mesh = build_lv_mesh(config.get("endo_axes", (0.45, 0.45, 1.05)),
                             config.get("epi_axes", (0.6, 0.6, 1.2)),
                             config.get("truncation_height", 0.3), h)
    else:
        raise InvalidArgumentError(
            f"kind must be 'slab' or 'ventricle', got {kind!r}")
    out = _out_dir(config, "gen-mesh")
    mesh_path = out / "mesh.vtk"
    tracker.add(mesh_path, vtkio.surface_path(mesh_path))
    vtkio.write_mesh(mesh_path, mesh)
    print(f"wrote {mesh_path} ({mesh.n_nodes} nodes, {mesh.n_elems} cells)")


def cmd_gen_fibers(args, tracker: _OutputTracker) -> None:
    from . import vtkio
    from .fibers import generate_fibers

    allowed = {"mesh": str, "alpha_endo": float, "alpha_epi": float,
               "beta_endo": float, "beta_epi": float, "out": str}
    config = _merge_flags(_load_config(args.config, allowed, "gen-fibers"),
                          args, ("mesh", "alpha_endo", "alpha_epi",
                                 "beta_endo", "beta_epi", "out"))
    mesh = _read_mesh(config, "gen-fibers")
    angles = _fiber_angles({k: float(config[k]) for k in
                            ("alpha_endo", "alpha_epi", "beta_endo", "beta_epi")
                            if config.get(k) is not None})
    field = generate_fibers(mesh, angles)
    out = _out_dir(config, "gen-fibers")
    path = out / "fibers.vtk"
    tracker.add(path)
    vtkio.write_fields(path, mesh, {
        "fiber": field.f, "sheet": field.s, "normal": field.n,
        "singular": field.singular.astype(float)})
    print(f"wrote {path} ({int(field.singular.sum())} singular nodes)")


def cmd_register(args, tracker: _OutputTracker) -> None:
    from . import registration as reg

    allowed = {"mesh": str, "measurements": str, "references": str, "out": str}
    config = _merge_flags(_load_config(args.config, allowed, "register"),
                          args, ("mesh", "measurements", "references", "out"))
    mesh = _read_mesh(config, "register")
    merged, samples, stats = _register_pipeline(
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


def cmd_simulate(args, tracker: _OutputTracker) -> None:
    import numpy as np

    from . import solver as slv
    from . import vtkio

    allowed = {"mesh": str, "fibers": str, "fiber_angles": dict,
               "solver": dict, "stimulus_points": list,
               "stimulus_onsets": list, "snapshot_times": list, "out": str}
    config = _merge_flags(_load_config(args.config, allowed, "simulate"),
                          args, ("mesh", "fibers", "out"))
    mesh = _read_mesh(config, "simulate")
    fiber_field = _load_fiber_field(config, mesh)
    params = _solver_params(config)
    points = np.asarray(_require(config, "stimulus_points", "simulate"),
                        dtype=float)
    onsets = np.asarray(_require(config, "stimulus_onsets", "simulate"),
                        dtype=float)
    plan = slv.StimulusPlan(points=np.atleast_2d(points), onsets=onsets)
    snapshot_times = [float(t) for t in config.get("snapshot_times", ())]

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

    box = cal.ConductivityBox(**{k: tuple(v) for k, v in
                                 dict(config.get("box") or {}).items()})
    kwargs = {}
    for key in ("tol_ms", "max_iters", "stagnation_rel", "isotropic",
                "max_cal_points"):
        if config.get(key) is not None:
            kwargs[key] = config[key]
    if config.get("initial_sigma") is not None:
        kwargs["initial_sigma"] = tuple(config["initial_sigma"])
    if config.get("beta") is not None:
        kwargs["beta"] = tuple(config["beta"])
    return cal.CalibrationConfig(solver=_solver_params(config), box=box,
                                 **kwargs)


def cmd_calibrate(args, tracker: _OutputTracker) -> None:
    import csv as csv_mod

    import numpy as np

    from . import calibration as cal

    allowed = {"mesh": str, "fibers": str, "fiber_angles": dict,
               "measurements": str, "references": str, "solver": dict,
               "box": dict, "beta": list, "initial_sigma": list,
               "tol_ms": float, "max_iters": int, "stagnation_rel": float,
               "isotropic": bool, "max_cal_points": int, "out": str}
    config = _merge_flags(_load_config(args.config, allowed, "calibrate"),
                          args, ("mesh", "fibers", "measurements",
                                 "references", "out", "max_cal_points"))
    mesh = _read_mesh(config, "calibrate")
    fiber_field = _load_fiber_field(config, mesh)
    cal_config = _calibration_config(config)
    if fiber_field is None and not cal_config.isotropic:
        raise InvalidArgumentError(
            "calibrate needs 'fibers' or 'fiber_angles' unless isotropic")
    _, samples, reg_stats = _register_pipeline(
        mesh, _existing_path(config, "measurements", "calibrate"),
        _existing_path(config, "references", "calibrate"))
    inputs, cal_samples, val_samples = _split_samples(samples)
    plan = _stimulus_plan(inputs)

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
        rows = []
        if result.calibration_samples is not None:
            rows += [("I", s.tau, c) for s, c in
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


def cmd_report(args, tracker: _OutputTracker) -> None:
    import csv as csv_mod

    import numpy as np

    from .activation import five_number_summary, regression_stats

    allowed = {"results": str, "out": str}
    config = _merge_flags(_load_config(args.config, allowed, "report"),
                          args, ("results", "out"))
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

    lines = ["calibration report", "==================", ""]
    lines.append("iteration trace (sigma in mS/cm, E in ms, F in ms^2):")
    for row in trace:
        lines.append(
            f"  {row['iter']:>3}  sigma=({float(row['sigma_f']):.4f}, "
            f"{float(row['sigma_s']):.4f}, {float(row['sigma_n']):.4f})  "
            f"E={float(row['E_ms']):+9.3f}  F={float(row['F_ms2']):10.3f}  "
            f"eI={float(row['eI_pct']):6.3f}%")
    if validation:
        sig = validation.get("sigma_hat", [])
        lines.append("")
        lines.append("estimated conductivities (mS/cm): "
                     + ", ".join(f"{v:.4f}" for v in sig))
        lines.append(f"converged: {validation.get('converged')} "
                     f"after {validation.get('iterations')} iterations")
        rep = validation.get("validation")
        if rep:
            lines.append("")
            lines.append("validation (group II):")
            lines.append(f"  mean relative error: {100 * rep['mean_rel']:.3f}%")
            lines.append("  mean pointwise relative error: "
                         f"{100 * rep['mean_rel_pointwise']:.3f}%")
            lines.append(f"  std of relative errors: {100 * rep['std_rel']:.3f}%")
            five = ", ".join(f"{100 * v:.2f}" for v in rep["five_number_rel"])
            lines.append(f"  five-number summary of relative errors (%): {five}")
            lines.append(f"  regression slope {rep['slope']:.4f}, "
                         f"R^2 {rep['r_squared']:.4f} over {rep['n_used']} points")

    correlation_path = results / "correlation.csv"
    if correlation_path.exists():
        with open(correlation_path, newline="") as handle:
            rows = [r for r in csv_mod.DictReader(handle)
                    if r["tau_computed_ms"]]
        for label, keep in (("pooled", ("I", "II")), ("group I", ("I",))):
            pairs = [(float(r["tau_measured_ms"]), float(r["tau_computed_ms"]))
                     for r in rows if r["group"] in keep]
            if len(pairs) >= 3:
                measured = np.array([p[0] for p in pairs])
                computed = np.array([p[1] for p in pairs])
                slope, r2 = regression_stats(computed, measured)
                errors = np.abs(computed - measured)
                five = ", ".join(f"{v:.2f}" for v in five_number_summary(errors))
                lines.append("")
                lines.append(f"{label} ({len(pairs)} points): "
                             f"slope {slope:.4f}, R^2 {r2:.4f}")
                lines.append(f"  five-number summary of |error| (ms): {five}")

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if config.get("out") is not None:
        out = _out_dir(config, "report")
        report_path = out / "report.txt"
        tracker.add(report_path)
        report_path.write_text(text)
        print(f"wrote {report_path}")


def cmd_gen_twin(args, tracker: _OutputTracker) -> None:
    from . import twin

    allowed = {"h": float, "sigma": list, "perturb_cm": float, "seed": int,
               "out": str}
    config = _merge_flags(_load_config(args.config, allowed, "gen-twin"),
                          args, ("h", "seed", "out"))
    sigma = tuple(config.get("sigma", twin.TRUE_SIGMA))
    data = twin.build_twin(h=float(config.get("h", twin.DEFAULT_H)),
                           sigma=sigma)
    out = _out_dir(config, "gen-twin")
    paths = twin.write_twin(data, out,
                            perturb_cm=float(config.get("perturb_cm", 0.015)),
                            seed=int(config.get("seed", 7)))
    tracker.add(*paths.values())
    from . import vtkio

    tracker.add(vtkio.surface_path(paths["mesh"]))
    print(f"wrote twin fixture to {out} "
          f"({data.mesh.n_nodes} nodes, {len(data.vein_nodes)} vein points)")


_SOLVER_KEYS = ("solver keys: sigma, chi, c_m, dt, t_end, stimulus_amplitude, "
                "stimulus_radius, stimulus_duration, stop_when_activated")

_COMMANDS = {
    "gen-mesh": (cmd_gen_mesh, "Generate a slab or truncated-ellipsoid mesh",
                 "config keys: kind (slab|ventricle), h, extents, endo_axes, "
                 "epi_axes, truncation_height, out"),
    "gen-fibers": (cmd_gen_fibers, "Generate a rule-based fiber field",
                   "config keys: mesh, alpha_endo, alpha_epi, beta_endo, "
                   "beta_epi, out"),
    "register": (cmd_register, "Register measurements onto a mesh",
                 "config keys: mesh, measurements, references, out"),
    "simulate": (cmd_simulate, "Run a paced monodomain simulation",
                 "config keys: mesh, fibers, fiber_angles, solver (dict of "
                 "solver parameters), stimulus_points, stimulus_onsets, "
                 "snapshot_times, out; " + _SOLVER_KEYS),
    "calibrate": (cmd_calibrate, "Estimate conductivities from measurements",
                  "config keys: mesh, fibers, fiber_angles, measurements, "
                  "references, solver, box, beta, initial_sigma, tol_ms, "
                  "max_iters, stagnation_rel, isotropic, max_cal_points, out; "
                  + _SOLVER_KEYS),
    "report": (cmd_report, "Summarize a calibration result directory",
               "config keys: results, out"),
    "gen-twin": (cmd_gen_twin, "Generate the synthetic twin fixture",
                 "config keys: h, sigma, perturb_cm, seed, out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocal",
        description="Monodomain conductivity calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, epilog=keys)
        p.add_argument("--config",
                       help="JSON config file (a bare name falls back to the "
                            "bundled scenarios directory)")
        p.add_argument("--out", help="output directory")
        if name in ("gen-fibers", "register", "simulate", "calibrate"):
            p.add_argument("--mesh", help="volume mesh file (VTK)")
        if name == "gen-mesh":
            p.add_argument("--kind", choices=("slab", "ventricle"))
            p.add_argument("--h", type=float, help="target element size (cm)")
        if name == "gen-fibers":
            p.add_argument("--alpha-endo", type=float,
                           help="fiber helix angle on the endocardium (deg)")
            p.add_argument("--alpha-epi", type=float,
                           help="fiber helix angle on the epicardium (deg)")
            p.add_argument("--beta-endo", type=float,
                           help="sheet transverse angle, endocardium (deg)")
            p.add_argument("--beta-epi", type=float,
                           help="sheet transverse angle, epicardium (deg)")
        if name in ("register", "calibrate"):
            p.add_argument("--measurements", help="measurement CSV (mm, ms)")
            p.add_argument("--references", help="landmark pair CSV (mm)")
        if name == "calibrate":
            p.add_argument("--fibers", help="fiber field file (VTK)")
            p.add_argument("--max-cal-points", type=int,
                           help="use only the K earliest group-I points")
        if name == "simulate":
            p.add_argument("--fibers", help="fiber field file (VTK)")
        if name == "report":
            p.add_argument("--results", help="calibration output directory")
        if name == "gen-twin":
            p.add_argument("--h", type=float, help="target element size (cm)")
            p.add_argument("--seed", type=int,
                           help="seed for the perturbed landmark references")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    tracker = _OutputTracker()
    try:
        handler(args, tracker)
    except MonocalError as exc:
        tracker.discard_all()
        raise _fail(str(exc))
    except OSError as exc:
        tracker.discard_all()
        raise _fail(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
