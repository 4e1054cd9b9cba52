"""Command-line entry point for the calibration pipeline.

One binary with subcommands covering the whole workflow: mesh and fiber
generation, measurement registration, forward simulation, conductivity
calibration, result reporting and synthetic fixture generation. Each
subcommand is one `_COMMANDS` entry: handler, help line, and config
keys with their types; a key with a `_FLAG_HELP` line is also a flag
(`--max-cal-points` sets `max_cal_points`, typed like the key). The
parser, the `--help` epilog, the config check and the flag-over-config
merge all derive from that table; handlers receive the merged config.
The search settings and fiber angles a handler passes on are the fields
of `CalibrationConfig` and `FiberAngles`, not a list kept here.
`max_cal_points` (K) is no search setting: the search gets the first K
points of the ranked group I from `registration.split_samples`.

`_COMMANDS` is the one declaration of each key's full type: a scalar, a
number triple (`tuple[float, float, float]`: a sigma, beta, the slab
extents, the ventricle's semiaxes), a number list (`tuple[float, ...]`:
onsets and snapshot times), the stimulus points (a list of triples), or
one of the records `SolverParams` ("solver"), `FiberAngles`
("fiber_angles") and `ConductivityBox` ("box"), whose fields and their
types come from the dataclass. `_parse` checks a config against it in
one walk under one type rule: an integer counts as a float and leaves
as one, so a value reaches a handler and a manifest in its declared
type however the config spelled it; a boolean never counts as a number.
Unknown keys and wrong-length fixed tuples are rejected at any depth,
and a null value means unset at any depth. `report` reads
validation.json back with the same walk (`_RESULTS`); the fields of
`activation.ErrorReport` declare its 'validation' block.

This module lays out `simulate`'s `manifest.json`, from the run's facts
in `solver.SimulationOutput`, and `calibrate`'s `trace.csv`
(`write_trace`, `TRACE_HEADER`) next to `report`, which reads it back;
the solver and the search only return values. Each handler adds
the paths it is about to write to one list; a failed subcommand prints
one `error:` line, exits 1, and `main` removes every path on that list,
so it leaves no partial outputs and reruns start clean.

Relative paths inside a config are resolved against the current working
directory, which keeps bundled scenario configs usable from any checkout
once the fixture has been generated next to it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import suppress
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from . import activation as act
from . import calibration as cal
from . import fibers, geometry, ionic, twin, vtkio
from . import registration as reg
from . import solver as slv
from .errors import (FormatError, InvalidArgumentError, MonocalError,
                     reported_as)

SCENARIOS_DIR = Path(__file__).parent / "scenarios"
# the headers of trace.csv and correlation.csv, which calibrate writes
# and report reads
TRACE_HEADER = ("iter", "sigma_f", "sigma_s", "sigma_n", "E_ms", "F_ms2",
                "eI_pct")
CORRELATION_HEADER = ("group", "tau_measured_ms", "tau_computed_ms")
# validation.json's declared types: its 'validation' block is the
# group-II `ErrorReport` without its residuals
_VALIDATION = {k: t for k, t in get_type_hints(act.ErrorReport).items()
               if k != "errors"}
_RESULTS = {"sigma_hat": tuple[float, float, float], "converged": bool,
            "iterations": int, "validation": _VALIDATION}


def _fail(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(1)


def _load_config(path: str | None, keys: dict, command: str) -> dict:
    """Read a JSON config and parse it against the subcommand's keys.

    keys holds each key's declared type (`_COMMANDS`): a scalar, a number
    list, the stimulus points or a dataclass record. `_parse` checks the
    whole object against them under the one type rule (an integer counts
    as, and comes back as, a float; a boolean never counts as a number);
    unknown keys are rejected and a null value means unset, at any depth,
    and lists come back as tuples. A name that does not exist on disk but
    matches a bundled scenario file resolves to the copy shipped inside
    the package. Any fault in the file's bytes, JSON or values is
    reported with its path.
    """
    if path is None:
        return {}
    p = Path(path)
    if not p.exists() and (SCENARIOS_DIR / path).exists():
        p = SCENARIOS_DIR / path
    if not p.exists():
        raise InvalidArgumentError(f"config file {p} does not exist")
    with reported_as(f"file {p}"):
        return _parse(json.loads(p.read_text()), keys, f"{command} config")


def _parse(value, hint, what: str):
    """value checked against its declared type hint.

    A hint is a scalar type; a tuple type, fixed-length or `tuple[T, ...]`,
    which takes a JSON list and returns a tuple; or a record, which takes
    a JSON object and returns a dict without its null-valued keys: a dict
    of key hints (a whole config or validation.json) or a dataclass,
    whose field types come from `get_type_hints`. The one type rule: an
    integer counts as, and is returned as, a float (if float() takes it),
    and a boolean never counts as a number.
    """
    members = hint if isinstance(hint, dict) else (
        get_type_hints(hint) if is_dataclass(hint) else None)
    items = get_args(hint) if get_origin(hint) is tuple else None
    kind = dict if members is not None else list if items is not None else hint
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) and kind is not bool) \
            or not isinstance(value, accepted):
        raise InvalidArgumentError(f"{what} must be of type {kind.__name__}, "
                                   f"got {type(value).__name__}")
    if kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise InvalidArgumentError(
                f"{what} is too large for a float") from None
    if members is not None:
        unknown = sorted(set(value) - set(members))
        if unknown:
            raise InvalidArgumentError(
                f"unknown key(s) in {what}: {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(members))}")
        return {key: _parse(item, members[key], f"{what}['{key}']")
                for key, item in value.items() if item is not None}
    if items is None:
        return value
    if items[-1] is Ellipsis:
        items = items[:1] * len(value)
    elif len(value) != len(items):
        raise InvalidArgumentError(
            f"{what} must hold {len(items)} values, got {len(value)}")
    return tuple(_parse(item, item_hint, f"{what}[{i}]")
                 for i, (item, item_hint) in enumerate(zip(value, items)))


def _require(config: dict, key: str, command: str):
    if key not in config:
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


def _load_fiber_field(config: dict, mesh, command: str):
    """Fiber input: a fields file, inline angles, or none. A fields file
    takes precedence over fiber_angles, so `--fibers` overrides the
    angles of a bundled scenario. With none the solver lays every fiber
    along x (`FiberField.uniform`, the slab convention), which is
    isotropic only when sigma_f = sigma_s = sigma_n."""
    if "fibers" in config:
        path = _existing_path(config, "fibers", command)
        field = fibers.FiberField.read(path)
        if len(field.f) != mesh.n_nodes:
            raise InvalidArgumentError(f"fibers file {path} has {len(field.f)} "
                                       f"nodes, the mesh has {mesh.n_nodes}")
        return field
    if "fiber_angles" in config:
        return fibers.generate_fibers(
            mesh, fibers.FiberAngles(**config["fiber_angles"]))
    return None


def _read_mesh(config: dict, command: str):
    return vtkio.read_mesh(_existing_path(config, "mesh", command))


def cmd_gen_mesh(config: dict, outputs: list[Path]) -> None:
    kind = config.get("kind", "slab")
    if kind not in ("slab", "ventricle"):
        raise InvalidArgumentError(
            f"kind must be 'slab' or 'ventricle', got {kind!r}")
    for key in (("endo_axes", "epi_axes", "truncation_height")
                if kind == "slab" else ("extents",)):
        if key in config:
            raise InvalidArgumentError(f"{key} is not a key of a {kind} mesh")
    h = _require(config, "h", "gen-mesh")
    if kind == "slab":
        mesh = geometry.build_slab_mesh(
            config.get("extents", (1.0, 1.0, 0.5)), h)
    else:
        mesh = geometry.build_lv_mesh(
            config.get("endo_axes", twin.ENDO_AXES),
            config.get("epi_axes", twin.EPI_AXES),
            config.get("truncation_height", twin.TRUNCATION_HEIGHT), h)
    out = _out_dir(config, "gen-mesh")
    mesh_path = out / "mesh.vtk"
    outputs.extend([mesh_path, vtkio.surface_path(mesh_path)])
    vtkio.write_mesh(mesh_path, mesh)
    print(f"wrote {mesh_path} ({mesh.n_nodes} nodes, {mesh.n_elems} cells)")


def cmd_gen_fibers(config: dict, outputs: list[Path]) -> None:
    mesh = _read_mesh(config, "gen-fibers")
    angles = fibers.FiberAngles(**{
        f.name: config[f.name] for f in fields(fibers.FiberAngles)
        if f.name in config})
    field = fibers.generate_fibers(mesh, angles)
    path = _out_dir(config, "gen-fibers") / "fibers.vtk"
    outputs.append(path)
    field.write(path, mesh)
    print(f"wrote {path} ({int(field.singular.sum())} singular nodes)")


def cmd_register(config: dict, outputs: list[Path]) -> None:
    mesh = _read_mesh(config, "register")
    cloud, groups, stats = reg.register(
        mesh, _existing_path(config, "measurements", "register"),
        _existing_path(config, "references", "register"))
    out = _out_dir(config, "register")
    csv_path = out / "registered.csv"
    json_path = out / "registration.json"
    outputs.extend([csv_path, json_path])
    reg.write_measurements(csv_path, cloud, groups=groups)
    _write_json(json_path, stats)
    print(f"wrote {csv_path} and {json_path}")


def _snapshot_field(t: float) -> str:
    return f"u_{t:g}ms".replace(".", "_")


def cmd_simulate(config: dict, outputs: list[Path]) -> None:
    mesh = _read_mesh(config, "simulate")
    fiber_field = _load_fiber_field(config, mesh, "simulate")
    params = slv.SolverParams(**config.get("solver", {}))
    plan = slv.StimulusPlan(
        points=_require(config, "stimulus_points", "simulate"),
        onsets=_require(config, "stimulus_onsets", "simulate"))
    snapshot_times = config.get("snapshot_times", ())
    names: dict[str, float] = {}
    # a NaN or infinite time is left to the solver's range check
    for t in sorted(set(filter(np.isfinite, snapshot_times))):
        other = names.setdefault(_snapshot_field(t), t)
        if other != t:
            raise InvalidArgumentError(
                f"snapshot times {other!r} and {t!r} would share the "
                f"field name {_snapshot_field(t)}")

    output = slv.simulate(mesh, fiber_field, params, plan,
                          snapshot_times=snapshot_times)
    out = _out_dir(config, "simulate")
    act_path = out / "activation.vtk"
    manifest_path = out / "manifest.json"
    outputs.extend([act_path, manifest_path])
    vtkio.write_fields(act_path, mesh, {"activation": output.activation,
                                        "peak": output.peak_u})
    if snapshot_times:
        snap_path = out / "snapshots.vtk"
        outputs.append(snap_path)
        vtkio.write_fields(snap_path, mesh, {
            _snapshot_field(t): u
            for t, u in sorted(output.snapshots.items())})
    run = asdict(params)
    del run["stop_when_activated"]
    _write_json(manifest_path, {
        "version": __version__, "mesh_hash": mesh.content_hash(),
        "n_nodes": mesh.n_nodes, "n_steps": output.n_steps, "params": run,
        "ionic": ionic.PARAMS.manifest(), "stimulus_sites": len(plan.points),
        "linear_solver": output.cg,
        "n_not_activated": output.n_not_activated})
    print(f"wrote {act_path} ({output.n_not_activated} nodes not activated)")


def _calibration_config(config: dict):
    """The search settings and the run's solver parameters of a calibrate
    config, both checked before anything is read or simulated."""
    solver = config.get("solver", {})
    if "sigma" in solver:
        raise InvalidArgumentError(
            "calibrate chooses the solver's sigma itself; set the search's "
            "start point with 'initial_sigma'")
    k = config.get("max_cal_points")
    if k is not None and k < 1:
        raise InvalidArgumentError(f"max_cal_points must be >= 1, got {k}")
    search = {f.name: config[f.name] for f in fields(cal.CalibrationConfig)
              if f.name in config}
    search["box"] = cal.ConductivityBox(**config.get("box", {}))
    return cal.CalibrationConfig(**search), slv.SolverParams(**solver)


def cmd_calibrate(config: dict, outputs: list[Path]) -> None:
    cal_config, params = _calibration_config(config)
    mesh = _read_mesh(config, "calibrate")
    fiber_field = _load_fiber_field(config, mesh, "calibrate")
    if fiber_field is None and not cal_config.isotropic:
        raise InvalidArgumentError(
            "calibrate needs 'fibers' or 'fiber_angles' unless isotropic")
    cloud, groups, reg_stats = reg.register(
        mesh, _existing_path(config, "measurements", "calibrate"),
        _existing_path(config, "references", "calibrate"))
    inputs, cal_cloud, val_cloud, plan = reg.split_samples(cloud, groups)
    # the short map: the K earliest group-I points
    short = cal_cloud.subset(slice(config.get("max_cal_points")))

    result = cal.calibrate(cal.Evaluator(mesh, fiber_field, plan, params),
                           short, cal_config, val_cloud)

    out = _out_dir(config, "calibrate")
    trace_path = out / "trace.csv"
    validation_path = out / "validation.json"
    correlation_path = out / "correlation.csv"
    manifest_path = out / "manifest.json"
    outputs.extend([trace_path, validation_path, correlation_path,
                    manifest_path])

    write_trace(trace_path, result)
    best = result.best
    report = result.validation
    _write_json(validation_path, {
        "sigma_hat": [float(v) for v in best.sigma],
        "converged": result.converged,
        "iterations": len(result.iterations),
        "validation": {k: getattr(report, k) for k in _VALIDATION}})

    with open(correlation_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CORRELATION_HEADER)
        for group, taus, computed in (
                (act.Group.CAL_I, short.taus, best.calibration_computed),
                (act.Group.VAL_II, val_cloud.taus, best.validation_computed)):
            for tau, c in zip(taus, computed):
                val = "" if not np.isfinite(c) else f"{c:.9g}"
                writer.writerow((group.value, f"{tau:.9g}", val))

    # sigma_hat is the effective conductivity of this mesh, so name its h
    _write_json(manifest_path, {
        "registration": reg_stats, "mesh_hash": mesh.content_hash(),
        "h": mesh.characteristic_size, "n_input": len(inputs),
        "n_cal": len(cal_cloud), "n_val": len(val_cloud)})
    sig = ", ".join(f"{v:.4f}" for v in best.sigma)
    print(f"sigma_hat = ({sig})  converged={result.converged}  "
          f"iterations={len(result.iterations)}")
    print(f"validation mean relative error = {100 * report.mean_rel:.2f}%")
    print(f"wrote {trace_path}, {validation_path}, {correlation_path}")


def write_trace(path, result: cal.CalibrationResult) -> None:
    """The search's iterations as CSV under `TRACE_HEADER`, one row each."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        for i, rec in enumerate(result.iterations):
            values = (*rec.sigma, rec.report.errors.sum(), rec.report.misfit,
                      100.0 * rec.report.mean_rel)
            writer.writerow([i, *(f"{v:.9g}" for v in values)])


def _validation_lines(validation: dict) -> list[str]:
    """Report lines for a validation.json payload, already checked
    against `_RESULTS` by `_parse`. Each of its four keys and the
    reported metrics are required: a missing one raises KeyError."""
    sig = ", ".join(f"{v:.4f}" for v in validation["sigma_hat"])
    rep = validation["validation"]
    five = ", ".join(f"{100 * v:.2f}" for v in rep["five_number_rel"])
    return [
        "", f"estimated conductivities (mS/cm): {sig}",
        f"converged: {validation['converged']} "
        f"after {validation['iterations']} iterations",
        "", "validation (group II):",
        f"  mean relative error: {100 * rep['mean_rel']:.3f}%",
        "  mean pointwise relative error: "
        f"{100 * rep['mean_rel_pointwise']:.3f}%",
        f"  std of relative errors: {100 * rep['std_rel']:.3f}%",
        f"  five-number summary of relative errors (%): {five}",
        f"  regression slope {rep['slope']:.4f}, "
        f"R^2 {rep['r_squared']:.4f} over {rep['n_used']} points"]


def _parse_iteration(text: str, line: int) -> int:
    """trace.csv's iter value: a non-negative integer in ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise FormatError(
            f"iter value {text!r} is not a non-negative integer", line=line)
    return int(text)


def cmd_report(config: dict, outputs: list[Path]) -> None:
    results = Path(_require(config, "results", "report"))
    trace_path = results / "trace.csv"
    if not trace_path.exists():
        raise InvalidArgumentError(
            f"no calibration results found: missing trace file {trace_path}")

    lines = ["calibration report", "==================", "",
             "iteration trace (sigma in mS/cm, E in ms, F in ms^2):"]
    with reported_as(f"file {trace_path}"):
        for line, r in reg.read_rows(trace_path, TRACE_HEADER):
            it = _parse_iteration(r["iter"], line)
            # F is inf where the iterate left a group-I point unactivated
            sf, ss, sn, e, f, ei = (
                np.inf if c == "F_ms2" and r[c] == "inf"
                else reg.parse_float(r[c], c, line) for c in TRACE_HEADER[1:])
            lines.append(f"  {it:>3}  sigma=({sf:.4f}, {ss:.4f}, "
                         f"{sn:.4f})  E={e:+9.3f}  F={f:10.3f}  eI={ei:6.3f}%")

    validation_path = results / "validation.json"
    if validation_path.exists():
        with reported_as(f"file {validation_path}"):
            lines += _validation_lines(_parse(
                json.loads(validation_path.read_text()), _RESULTS,
                "the top level"))

    correlation_path = results / "correlation.csv"
    if correlation_path.exists():
        with reported_as(f"file {correlation_path}"):
            rows = []
            vein = (act.Group.CAL_I.value, act.Group.VAL_II.value)
            for line, r in reg.read_rows(correlation_path,
                                         CORRELATION_HEADER):
                if r["group"] not in vein:
                    raise FormatError(f"unknown group {r['group']!r}",
                                      line=line)
                measured = reg.parse_float(r["tau_measured_ms"],
                                           "tau_measured_ms", line)
                if measured <= 0.0:
                    raise FormatError("measured activation time must be "
                                      f"positive, got {measured:g}", line=line)
                if r["tau_computed_ms"]:  # empty: the point did not activate
                    computed = reg.parse_float(r["tau_computed_ms"],
                                               "tau_computed_ms", line)
                    rows.append((r["group"], computed, measured))
        for label, keep in (("pooled", vein), ("group I", vein[:1])):
            pairs = [(c, m) for group, c, m in rows if group in keep]
            if len(pairs) >= 3:
                stats = act.error_stats(*zip(*pairs))
                five = ", ".join(f"{v:.2f}" for v in
                                 act.five_number_summary(np.abs(stats.errors)))
                lines += ["", f"{label} ({len(pairs)} points): "
                          f"slope {stats.slope:.4f}, "
                          f"R^2 {stats.r_squared:.4f}",
                          f"  five-number summary of |error| (ms): {five}"]

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if "out" in config:
        out = _out_dir(config, "report")
        report_path = out / "report.txt"
        outputs.append(report_path)
        report_path.write_text(text)
        print(f"wrote {report_path}")


def cmd_gen_twin(config: dict, outputs: list[Path]) -> None:
    perturb_cm = config.get("perturb_cm", 0.015)
    # written so that NaN fails the check and infinity the bound
    if not 0.0 <= perturb_cm < float("inf"):
        raise InvalidArgumentError(
            f"perturb_cm must be >= 0 and finite, got {perturb_cm}")
    seed = config.get("seed", 7)
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    data = twin.build_twin(h=config.get("h", twin.DEFAULT_H),
                           sigma=config.get("sigma", twin.TRUE_SIGMA))
    out = _out_dir(config, "gen-twin")
    paths = twin.twin_paths(out)
    outputs.extend([*paths.values(), vtkio.surface_path(paths["mesh"])])
    twin.write_twin(data, out, perturb_cm=perturb_cm, seed=seed)
    print(f"wrote twin fixture to {out} "
          f"({data.mesh.n_nodes} nodes, {len(data.vein_nodes)} vein points)")


class _Command(NamedTuple):
    """A subcommand's handler, help line and typed config keys; its flags
    are the keys that have a `_FLAG_HELP` line, in table order."""

    handler: Callable[[dict, list[Path]], None]
    help: str
    keys: dict[str, object]

    @property
    def flags(self) -> tuple[str, ...]:
        return tuple(key for key in self.keys if key in _FLAG_HELP)


# The declared types of the config values that are lists.
_NUMBERS = tuple[float, ...]
_TRIPLE = tuple[float, float, float]
_POINTS = tuple[_TRIPLE, ...]


_COMMANDS = {
    "gen-mesh": _Command(
        cmd_gen_mesh, "Generate a slab or truncated-ellipsoid mesh",
        {"kind": str, "h": float, "extents": _TRIPLE, "endo_axes": _TRIPLE,
         "epi_axes": _TRIPLE, "truncation_height": float, "out": str}),
    "gen-fibers": _Command(
        cmd_gen_fibers, "Generate a rule-based fiber field",
        {"mesh": str, "alpha_endo": float, "alpha_epi": float,
         "beta_endo": float, "beta_epi": float, "out": str}),
    "register": _Command(
        cmd_register, "Register measurements onto a mesh",
        {"mesh": str, "measurements": str, "references": str, "out": str}),
    "simulate": _Command(
        cmd_simulate, "Run a paced monodomain simulation",
        {"mesh": str, "fibers": str, "fiber_angles": fibers.FiberAngles,
         "solver": slv.SolverParams, "stimulus_points": _POINTS,
         "stimulus_onsets": _NUMBERS, "snapshot_times": _NUMBERS, "out": str}),
    "calibrate": _Command(
        cmd_calibrate, "Estimate conductivities from measurements",
        {"mesh": str, "fibers": str, "fiber_angles": fibers.FiberAngles,
         "measurements": str, "references": str,
         "solver": slv.SolverParams, "box": cal.ConductivityBox,
         "beta": _TRIPLE, "initial_sigma": _TRIPLE, "tol_ms": float,
         "max_iters": int, "isotropic": bool, "max_cal_points": int,
         "out": str}),
    "report": _Command(
        cmd_report, "Summarize a calibration result directory",
        {"results": str, "out": str}),
    "gen-twin": _Command(
        cmd_gen_twin, "Generate the synthetic twin fixture",
        {"h": float, "sigma": _TRIPLE, "perturb_cm": float, "seed": int,
         "out": str}),
}

# Help text of each key that is also a flag (`_Command.flags`).
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
    parser = argparse.ArgumentParser(
        prog="monocal",
        description="Monodomain conductivity calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        epilog = "config keys: " + ", ".join(command.keys)
        if "solver" in command.keys:
            # calibrate rejects solver.sigma (_calibration_config)
            epilog += "; solver keys: " + ", ".join(
                key for key in slv.SolverParams.__dataclass_fields__
                if name != "calibrate" or key != "sigma")
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
    outputs: list[Path] = []
    try:
        config = _load_config(args.config, command.keys, args.command)
        config.update({key: getattr(args, key) for key in command.flags
                       if getattr(args, key) is not None})
        command.handler(config, outputs)
    except (MonocalError, OSError) as exc:
        for path in outputs:
            with suppress(OSError):
                path.unlink(missing_ok=True)
        raise _fail(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
