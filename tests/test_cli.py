"""Command-line workflow: full pipeline, config handling, failure paths.

The expensive path (gen-twin, then the bundled standard calibration
scenario, then the report) runs once at module scope inside a scratch
directory; the cheap per-command checks use their own temp dirs.
"""

import csv
import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from monocal import calibration as cal
from monocal import cli
from monocal import registration as reg
from monocal import twin
from monocal import vtkio
from monocal.activation import error_stats, five_number_summary
from monocal.cli import TRACE_HEADER
from monocal.fibers import FiberAngles, FiberField, generate_fibers
from monocal.geometry import build_lv_mesh, build_slab_mesh
from monocal.solver import SolverParams
from monocal.twin import TRUE_SIGMA


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Scratch directory after gen-twin, calibrate and report ran in it."""
    work = tmp_path_factory.mktemp("cli_pipeline")
    old = os.getcwd()
    os.chdir(work)
    try:
        assert cli.main(["gen-twin", "--out", "twin"]) == 0
        assert cli.main(["calibrate", "--config", "test_a_standard.json"]) == 0
        assert cli.main(["report", "--results", "results/test_a_standard",
                         "--out", "results/test_a_standard"]) == 0
    finally:
        os.chdir(old)
    return work


def _results(pipeline):
    return pipeline / "results" / "test_a_standard"


def test_pipeline_recovers_generating_conductivities(pipeline):
    payload = json.loads((_results(pipeline) / "validation.json").read_text())
    assert payload["converged"] is True
    assert payload["iterations"] <= 10
    np.testing.assert_allclose(payload["sigma_hat"], TRUE_SIGMA, rtol=0.10)
    report = payload["validation"]
    assert report["n_used"] == 60
    assert report["n_not_activated"] == 0
    assert report["mean_rel"] < 0.02
    assert report["r_squared"] > 0.99


def test_pipeline_writes_complete_result_set(pipeline):
    out = _results(pipeline)
    for name in ("trace.csv", "validation.json", "correlation.csv",
                 "manifest.json", "report.txt"):
        assert (out / name).exists(), name


def test_pipeline_trace_matches_iteration_count(pipeline):
    with open(_results(pipeline) / "trace.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    payload = json.loads((_results(pipeline) / "validation.json").read_text())
    assert tuple(rows[0]) == TRACE_HEADER
    assert len(rows) == 1 + payload["iterations"]


def test_trace_round_trip(tmp_path, capsys):
    # one iteration at the box midpoint that matched every measured time
    start = cal.ConductivityBox().midpoint()
    taus = np.array([12.0, 15.0, 21.0])
    record = cal.IterationRecord(sigma=start, calibration_computed=taus,
                                 validation_computed=taus,
                                 report=error_stats(taus, taus))
    result = SimpleNamespace(iterations=[record])
    path = tmp_path / "trace.csv"
    cli.write_trace(path, result)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == TRACE_HEADER
    assert len(rows) == 1 + len(result.iterations)
    assert float(rows[1][1]) == pytest.approx(start[0], rel=1e-8)
    assert float(rows[1][4]) == 0.0
    assert float(rows[1][5]) == 0.0
    # report reads it back
    assert cli.main(["report", "--results", str(tmp_path)]) == 0
    assert ("    0  sigma=(1.4500, 0.3200, 0.0650)  E=   +0.000  F=     0.000"
            "  eI= 0.000%") in capsys.readouterr().out.splitlines()


def test_report_reads_an_infinite_misfit(tmp_path, capsys):
    # an iterate that left a group-I point unactivated has F = inf, which
    # write_trace writes as it is
    taus = np.array([12.0, 15.0, 21.0])
    computed = np.array([12.0, np.nan, 21.0])
    record = cal.IterationRecord(
        sigma=cal.ConductivityBox().midpoint(), calibration_computed=computed,
        validation_computed=taus, report=error_stats(computed, taus))
    assert record.report.n_not_activated == 1
    cli.write_trace(tmp_path / "trace.csv",
                    SimpleNamespace(iterations=[record]))
    assert cli.main(["report", "--results", str(tmp_path)]) == 0
    assert "F=       inf" in capsys.readouterr().out


def test_pipeline_manifest_counts_and_registration(pipeline):
    manifest = json.loads((_results(pipeline) / "manifest.json").read_text())
    assert manifest["n_input"] == 3
    assert manifest["n_cal"] == 61
    assert manifest["n_val"] == 60
    stats = manifest["registration"]
    assert stats["landmark_rms_cm"] < 1e-6
    assert stats["septum"]["max_displacement_cm"] < 1e-6
    assert stats["vein"]["max_displacement_cm"] < 1e-6


def test_pipeline_correlation_covers_both_groups(pipeline):
    with open(_results(pipeline) / "correlation.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    groups = [row["group"] for row in rows]
    assert groups.count("I") == 61
    assert groups.count("II") == 60
    for row in rows:
        assert float(row["tau_measured_ms"]) > 0.0
        assert row["tau_computed_ms"] != ""


def test_pipeline_report_summarizes_the_fit(pipeline):
    text = (_results(pipeline) / "report.txt").read_text()
    assert "estimated conductivities" in text
    assert "validation (group II)" in text
    assert "group I (61 points)" in text
    assert "R^2" in text


def test_pipeline_report_prints_the_error_stats_of_the_correlation(pipeline):
    with open(_results(pipeline) / "correlation.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    lines = (_results(pipeline) / "report.txt").read_text().splitlines()
    for label, keep in (("pooled", ("I", "II")), ("group I", ("I",))):
        picked = [row for row in rows if row["group"] in keep]
        stats = error_stats([float(r["tau_computed_ms"]) for r in picked],
                            [float(r["tau_measured_ms"]) for r in picked])
        five = five_number_summary(np.abs(stats.errors))
        at = lines.index(f"{label} ({len(picked)} points): slope "
                         f"{stats.slope:.4f}, R^2 {stats.r_squared:.4f}")
        assert lines[at + 1] == ("  five-number summary of |error| (ms): "
                                 + ", ".join(f"{v:.2f}" for v in five))


def test_gen_mesh_writes_readable_mesh(tmp_path):
    config = tmp_path / "mesh.json"
    config.write_text(json.dumps({
        "kind": "slab", "h": 0.25, "extents": [0.5, 0.25, 0.25],
        "out": str(tmp_path / "out")}))
    assert cli.main(["gen-mesh", "--config", str(config)]) == 0
    mesh = vtkio.read_mesh(tmp_path / "out" / "mesh.vtk")
    assert mesh.n_elems == 2
    assert mesh.n_nodes == 12


def test_gen_mesh_rerun_is_byte_identical(tmp_path):
    args = ["gen-mesh", "--kind", "slab", "--h", "0.5",
            "--out", str(tmp_path)]
    assert cli.main(args) == 0
    mesh_path = tmp_path / "mesh.vtk"
    surface_path = vtkio.surface_path(mesh_path)
    first = (mesh_path.read_bytes(), surface_path.read_bytes())
    assert cli.main(args) == 0
    assert (mesh_path.read_bytes(), surface_path.read_bytes()) == first


def test_gen_mesh_ventricle_defaults_build_the_twin_mesh(tmp_path):
    assert cli.main(["gen-mesh", "--kind", "ventricle", "--h", "0.05",
                     "--out", str(tmp_path / "cli")]) == 0
    vtkio.write_mesh(tmp_path / "lib.vtk", build_lv_mesh(
        twin.ENDO_AXES, twin.EPI_AXES, twin.TRUNCATION_HEIGHT, 0.05))
    assert (tmp_path / "cli" / "mesh.vtk").read_bytes() \
        == (tmp_path / "lib.vtk").read_bytes()


@pytest.mark.parametrize("kind", ["slab", "ventricle"])
@pytest.mark.parametrize("h", ["nan", "inf"])
def test_gen_mesh_rejects_a_non_finite_size(tmp_path, capsys, kind, h):
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-mesh", "--kind", kind, "--h", h,
                  "--out", str(tmp_path / "out")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:") and "finite" in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("geometry", [
    '"kind": "slab", "extents": [1.0, NaN, 0.5]',
    '"kind": "slab", "extents": [Infinity, 1.0, 0.5]',
    '"kind": "ventricle", "epi_axes": [Infinity, 0.6, 1.2]',
    '"kind": "ventricle", "endo_axes": [0.45, NaN, 1.05]',
    '"kind": "ventricle", "truncation_height": NaN',
    '"kind": "ventricle", "truncation_height": -Infinity',
], ids=["slab-extent-nan", "slab-extent-inf", "epi-axis-inf", "endo-axis-nan",
        "truncation-nan", "truncation-inf"])
def test_gen_mesh_rejects_a_non_finite_geometry(tmp_path, capsys, recwarn,
                                                geometry):
    # Python's json module reads the NaN and Infinity literals
    config = tmp_path / "mesh.json"
    config.write_text(f'{{{geometry}, "h": 0.1, '
                      f'"out": {json.dumps(str(tmp_path / "out"))}}}')
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-mesh", "--config", str(config)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:") and "finite" in message
    assert not [w for w in recwarn if w.category is RuntimeWarning]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,key,value", [
    ("slab", "endo_axes", [1, 2, 3]),
    ("slab", "epi_axes", [1, 2, 3]),
    ("slab", "truncation_height", 0.3),
    ("ventricle", "extents", [1.0, 1.0, 0.5]),
])
def test_gen_mesh_rejects_a_key_of_the_other_kind(tmp_path, capsys, kind,
                                                  key, value):
    config = tmp_path / "mesh.json"
    config.write_text(json.dumps({"kind": kind, "h": 0.25, key: value,
                                  "out": str(tmp_path / "out")}))
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-mesh", "--config", str(config)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:") and key in message
    assert not (tmp_path / "out" / "mesh.vtk").exists()


def _files_under(path):
    return sorted(p.name for p in path.rglob("*") if p.is_file())


def _gen_twin_rejects_perturbation(tmp_path, monkeypatch, capsys, key,
                                   value):
    built = []
    monkeypatch.setattr(twin, "build_twin", lambda **kwargs: built.append(1))
    config = tmp_path / "twin.json"
    config.write_text(json.dumps({key: value, "out": str(tmp_path / "tw")}))
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-twin", "--config", str(config)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:") and key in message
    assert built == []
    assert _files_under(tmp_path) == ["twin.json"]


def test_gen_twin_rejects_negative_perturbation_before_simulating(
        tmp_path, monkeypatch, capsys):
    _gen_twin_rejects_perturbation(tmp_path, monkeypatch, capsys,
                                   "perturb_cm", -1)


def test_gen_twin_rejects_infinite_perturbation_before_simulating(
        tmp_path, monkeypatch, capsys):
    # JSON Infinity: it would write +-inf landmarks and fail only in register
    _gen_twin_rejects_perturbation(tmp_path, monkeypatch, capsys,
                                   "perturb_cm", float("inf"))


def test_gen_twin_rejects_negative_seed_before_simulating(
        tmp_path, monkeypatch, capsys):
    # numpy refuses a negative seed only when the perturbed references
    # are drawn, after the whole twin simulation
    _gen_twin_rejects_perturbation(tmp_path, monkeypatch, capsys, "seed", -1)


def test_gen_twin_with_unactivated_vein_nodes_leaves_no_files(
        tmp_path, monkeypatch, capsys):
    def never_activated(mesh, fiber_field, params, plan):
        return SimpleNamespace(activation=np.full(mesh.n_nodes, np.nan),
                               n_not_activated=mesh.n_nodes)

    monkeypatch.setattr(twin.slv, "simulate", never_activated)
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-twin", "--h", "0.07", "--out", str(tmp_path / "tw")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:") and "unactivated" in message
    # every vein point is named once through its node: no id repeats
    ids = json.loads(message[message.index("["):message.index("]") + 1])
    assert ids and len(set(ids)) == len(ids)
    assert f"left {twin.N_VEIN_POINTS} vein points" in message
    assert _files_under(tmp_path) == []


_COLLINEAR_REFERENCES = """name,frame,x_mm,y_mm,z_mm
a,source,0,0,0
b,source,10,0,0
c,source,20,0,0
a,target,0,0,0
b,target,0,10,0
c,target,0,0,10
"""


@pytest.mark.parametrize("command, line", [
    ("gen-mesh", "error: wall thickness 0.1497 cm is below 2h = 0.2 cm; "
                 "choose a finer h or a thicker shell"),
    ("register", "error: source landmarks are collinear (area <= 1e-8 cm^2)"),
], ids=["thin_wall", "collinear_landmarks"])
def test_a_geometry_fault_is_one_error_line_and_no_files(tmp_path, capsys,
                                                         command, line):
    if command == "gen-mesh":
        args = ["--kind", "ventricle", "--h", "0.1"]
    else:
        vtkio.write_mesh(tmp_path / "mesh.vtk",
                         build_slab_mesh((0.1, 0.1, 0.05), 0.05))
        (tmp_path / "meas.csv").write_text(
            "x_mm,y_mm,z_mm,t_ms,site\n0,0,0,0,septum\n1,1,0.5,10,vein\n")
        (tmp_path / "refs.csv").write_text(_COLLINEAR_REFERENCES)
        args = ["--mesh", str(tmp_path / "mesh.vtk"),
                "--measurements", str(tmp_path / "meas.csv"),
                "--references", str(tmp_path / "refs.csv")]
    inputs = _files_under(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main([command, *args, "--out", str(tmp_path / "out")])
    assert err.value.code == 1
    assert capsys.readouterr().err == line + "\n"
    assert _files_under(tmp_path) == inputs
    assert not (tmp_path / "out").exists()


def test_gen_twin_failed_write_removes_partial_outputs(tmp_path, monkeypatch,
                                                       capsys):
    mesh = build_slab_mesh((0.1, 0.1, 0.05), 0.05)
    data = twin.TwinData(
        mesh=mesh, fiber_field=FiberField.uniform(mesh.n_nodes),
        sigma=TRUE_SIGMA, septal_nodes=np.array([0]),
        septal_onsets=np.array([30.0]), vein_nodes=np.array([1, 2]),
        vein_taus=np.array([40.0, 50.0]), activation=np.zeros(mesh.n_nodes),
        transform=twin.device_transform())

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(twin, "build_twin", lambda **kwargs: data)
    # the mesh, its surface, fibers and activation are written by then
    monkeypatch.setattr(reg, "write_measurements", boom)
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-twin", "--out", str(tmp_path)])
    assert err.value.code == 1
    assert "disk full" in capsys.readouterr().err
    assert _files_under(tmp_path) == []


@pytest.mark.parametrize("command,config", [
    ("gen-mesh", {"kind": "ventricle", "h": 0.07, "truncation_height": None}),
    ("gen-mesh", {"kind": None, "h": 0.5}),
    ("gen-twin", {"perturb_cm": None}),
], ids=["gen_mesh_truncation_height", "gen_mesh_kind", "gen_twin_perturb_cm"])
def test_null_config_value_means_unset(tmp_path, monkeypatch, command,
                                       config):
    data = SimpleNamespace(mesh=SimpleNamespace(n_nodes=0), vein_nodes=())
    monkeypatch.setattr(twin, "build_twin", lambda **kwargs: data)
    written = []
    monkeypatch.setattr(twin, "write_twin",
                        lambda data, out, **kwargs: written.append(kwargs))
    out = tmp_path / "out"
    runs = []
    for run in (config, {k: v for k, v in config.items() if v is not None}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**run, "out": str(out)}))
        assert cli.main([command, "--config", str(path)]) == 0
        runs.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
    assert runs[0] == runs[1]
    assert written[:1] == written[1:]


class _Parsed(Exception):
    """Stops a handler once the parsed settings have been seen."""


@pytest.mark.parametrize("config,unset", [
    ({"solver": {"dt": None, "t_end": 0.1}}, {"solver": {"t_end": 0.1}}),
    ({"solver": {"t_end": 0.1}, "fiber_angles": {"alpha_endo": None}},
     {"solver": {"t_end": 0.1}, "fiber_angles": {}}),
], ids=["solver_dt", "fiber_angles_alpha_endo"])
def test_nested_null_means_unset_for_simulate(tmp_path, config, unset):
    mesh_path = tmp_path / "mesh.vtk"
    vtkio.write_mesh(mesh_path, build_lv_mesh(
        (0.45, 0.45, 1.05), (0.6, 0.6, 1.2), 0.3, 0.07))
    base = {"mesh": str(mesh_path), "stimulus_points": [[0.0, 0.0, -1.0]],
            "stimulus_onsets": [0.0]}
    runs = []
    for name, run in (("null", config), ("unset", unset)):
        out = tmp_path / name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, **run, "out": str(out)}))
        assert cli.main(["simulate", "--config", str(path)]) == 0
        runs.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
    assert runs[0] == runs[1]


def test_nested_null_means_unset_for_calibrate(tmp_path, monkeypatch):
    parsed = []
    parse = cli._calibration_config
    monkeypatch.setattr(cli, "_calibration_config",
                        lambda config: parsed.append(parse(config)) or parsed[-1])

    def stop(config, command):
        raise _Parsed

    monkeypatch.setattr(cli, "_read_mesh", stop)
    for box in ({"f": None, "s": [0.1, 0.5]}, {"s": [0.1, 0.5]}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"box": box}))
        with pytest.raises(_Parsed):
            cli.main(["calibrate", "--config", str(path)])
    assert parsed[0] == parsed[1]
    search, _ = parsed[0]
    assert search.box.f == cal.ConductivityBox().f


def _calibrate_fails_before_simulating(tmp_path, monkeypatch, capsys, args,
                                       config=None):
    """calibrate on a slab mesh exits 1 with an error line and no run."""
    simulated = []
    monkeypatch.setattr(cal.slv, "simulate",
                        lambda *args, **kwargs: simulated.append(1))
    mesh_path = tmp_path / "mesh.vtk"
    vtkio.write_mesh(mesh_path, build_slab_mesh((0.1, 0.1, 0.1), 0.05))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mesh": str(mesh_path), "isotropic": True,
                                **(config or {})}))
    with pytest.raises(SystemExit) as err:
        cli.main(["calibrate", "--config", str(path),
                  "--out", str(tmp_path / "out")] + args)
    assert err.value.code == 1
    assert simulated == []
    message = capsys.readouterr().err
    assert message.startswith("error:")
    return message


@pytest.mark.parametrize("value", ["0", "-3"])
def test_calibrate_rejects_max_cal_points_below_one(tmp_path, monkeypatch,
                                                    capsys, value):
    message = _calibrate_fails_before_simulating(
        tmp_path, monkeypatch, capsys, ["--max-cal-points", value])
    assert "max_cal_points must be >= 1" in message


def test_calibrate_rejects_solver_sigma(tmp_path, monkeypatch, capsys):
    message = _calibrate_fails_before_simulating(
        tmp_path, monkeypatch, capsys, [],
        {"solver": {"sigma": [2.0, 0.4, 0.09]}})
    assert "initial_sigma" in message


def test_register_rerun_is_byte_identical(pipeline, tmp_path):
    twin_dir = pipeline / "twin"
    args = ["register", "--mesh", str(twin_dir / "mesh.vtk"),
            "--measurements", str(twin_dir / "measurements.csv"),
            "--references", str(twin_dir / "references.csv"),
            "--out", str(tmp_path)]
    assert cli.main(args) == 0
    first = ((tmp_path / "registered.csv").read_bytes(),
             (tmp_path / "registration.json").read_bytes())
    assert cli.main(args) == 0
    assert ((tmp_path / "registered.csv").read_bytes(),
            (tmp_path / "registration.json").read_bytes()) == first


def _corrupted_copy(source, dest, row, column, value):
    """Copy a CSV, setting one cell (row 2 is the first data row)."""
    with open(source, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row - 1][rows[0].index(column)] = value
    with open(dest, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return dest


@pytest.mark.parametrize("name, column, value", [
    ("references.csv", "y_mm", "nan"),
    ("measurements.csv", "t_ms", "inf"),
    ("measurements.csv", "x_mm", "nan"),
])
def test_register_rejects_a_non_finite_csv_value(pipeline, tmp_path, capsys,
                                                 name, column, value):
    twin_dir = pipeline / "twin"
    inputs = {n: twin_dir / n for n in ("measurements.csv", "references.csv")}
    inputs[name] = _corrupted_copy(twin_dir / name, tmp_path / name, 3,
                                   column, value)
    with pytest.raises(SystemExit) as err:
        cli.main(["register", "--mesh", str(twin_dir / "mesh.vtk"),
                  "--measurements", str(inputs["measurements.csv"]),
                  "--references", str(inputs["references.csv"]),
                  "--out", str(tmp_path / "out")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert "line 3" in message and f"non-finite {column}" in message
    assert not (tmp_path / "out" / "registered.csv").exists()


@pytest.mark.parametrize("command", ["register", "calibrate"])
@pytest.mark.parametrize("name", ["measurements.csv", "references.csv"])
@pytest.mark.parametrize("fault", ["cell", "cell_after_blank_lines",
                                   "encoding"])
def test_a_bad_csv_file_is_named(pipeline, tmp_path, capsys, command, name,
                                 fault):
    # both files have an x_mm column, so the line alone does not say which
    # file is at fault; a byte that is not UTF-8 used to escape as a
    # UnicodeDecodeError
    twin_dir = pipeline / "twin"
    inputs = {n: twin_dir / n for n in ("measurements.csv", "references.csv")}
    if fault.startswith("cell"):
        inputs[name] = _corrupted_copy(twin_dir / name, tmp_path / name, 3,
                                       "x_mm", "abc")
        line = 3
        if fault == "cell_after_blank_lines":
            # blank lines are skipped but counted: the error names the
            # file line, not the record number
            header, body = inputs[name].read_text().split("\n", 1)
            inputs[name].write_text(f"{header}\n\n\n{body}")
            line = 5
        reason = f"line {line}: non-numeric x_mm value 'abc'"
    else:
        inputs[name] = tmp_path / name
        inputs[name].write_bytes((twin_dir / name).read_bytes() + b"\xff\n")
        reason = "'utf-8' codec can't decode byte 0xff"
    config = ["--config", "test_a_standard.json"] * (command == "calibrate")
    with pytest.raises(SystemExit) as err:
        cli.main([command, *config, "--mesh", str(twin_dir / "mesh.vtk"),
                  "--measurements", str(inputs["measurements.csv"]),
                  "--references", str(inputs["references.csv"]),
                  "--out", str(tmp_path / "out")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith(f"error: invalid file {inputs[name]}: {reason}")
    assert message.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _cut_in_half(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _append_non_utf8(path):
    path.write_bytes(path.read_bytes() + b"\xff\n")


def _add_free_node(path):
    """Write the mesh back with one more node, which no element uses."""
    mesh = vtkio.read_mesh(path)
    vtkio.write_mesh(path, dataclasses.replace(
        mesh, nodes=np.vstack([mesh.nodes, [1.0, 1.0, 1.0]])))


def _drop_last_row(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


@pytest.mark.parametrize("fault, command, faulty", [
    (_cut_in_half, "gen-fibers", "mesh_surface.vtk"),
    (_cut_in_half, "simulate", "fibers.vtk"),
    (_append_non_utf8, "gen-fibers", "mesh.vtk"),
    (_append_non_utf8, "gen-fibers", "mesh_surface.vtk"),
    (_append_non_utf8, "gen-mesh", "config.json"),
    (_add_free_node, "simulate", "mesh.vtk"),
    (_drop_last_row, "register", "meas.csv"),
], ids=["cut_surface", "cut_fibers", "non_utf8_mesh", "non_utf8_surface",
        "non_utf8_config", "free_node", "one_vein_point"])
def test_a_bad_input_file_is_named(tmp_path, capsys, fault, command, faulty):
    # a line number alone does not say which file is at fault, and a byte
    # that is not UTF-8 must not escape as a UnicodeDecodeError; a node
    # that no element uses, or a map with one vein point, must not get
    # past the readers' checks
    mesh = build_slab_mesh((0.2, 0.1, 0.05), 0.05)
    mesh_path, fibers_path = tmp_path / "mesh.vtk", tmp_path / "fibers.vtk"
    vtkio.write_mesh(mesh_path, mesh)
    FiberField.uniform(mesh.n_nodes).write(fibers_path, mesh)
    meas_path, refs_path = tmp_path / "meas.csv", tmp_path / "refs.csv"
    meas_path.write_text("x_mm,y_mm,z_mm,t_ms,site\n0,0,0,0,septum\n"
                         "2,1,0.5,10,vein\n1,1,0.5,12,vein\n")
    refs_path.write_text("name,frame,x_mm,y_mm,z_mm\n"
                         "a,source,0,0,0\nb,source,1,0,0\nc,source,0,1,0\n"
                         "a,target,0,0,0\nb,target,1,0,0\nc,target,0,1,0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"h": 0.05} if command == "gen-mesh" else {
        "stimulus_points": [[0.0, 0.0, 0.0]], "stimulus_onsets": [0.0],
        "solver": {"t_end": 1.0}}))
    fault(tmp_path / faulty)
    args = {"gen-mesh": ["--config", str(config)],
            "gen-fibers": ["--mesh", str(mesh_path)],
            "simulate": ["--config", str(config), "--mesh", str(mesh_path),
                         "--fibers", str(fibers_path)],
            "register": ["--mesh", str(mesh_path), "--measurements",
                         str(meas_path), "--references",
                         str(refs_path)]}[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        cli.main([command, *args, "--out", str(out)])
    assert err.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(tmp_path / faulty) in lines[0]
    assert not out.exists()


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"h": 0.5, "bogus": 1,
                                  "out": str(tmp_path)}))
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-mesh", "--config", str(config)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert "bogus" in message
    assert "allowed:" in message

    # a key that was once accepted and is now a module constant
    config.write_text(json.dumps({"stagnation_rel": 1e-3}))
    with pytest.raises(SystemExit) as err:
        cli.main(["calibrate", "--config", str(config)])
    assert err.value.code == 1
    assert "stagnation_rel" in capsys.readouterr().err

    # also when the unknown key is nested and its value is null
    config.write_text(json.dumps({"solver": {"bogus": None}}))
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--config", str(config)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert "bogus" in message and "allowed:" in message


@pytest.mark.parametrize("command,config,named", [
    ("gen-mesh", {"h": "abc"}, "'h'"),
    ("simulate", {"solver": {"dt": "fast"}}, "solver"),
    ("simulate", {"snapshot_times": 5}, "'snapshot_times'"),
    ("simulate", {"fiber_angles": {"alpha_endo": "x"}}, "fiber_angles"),
    ("calibrate", {"box": {"f": 5}}, "box"),
    ("calibrate", {"box": {"f": ["a", 2]}}, "box"),
    ("calibrate", {"box": {"x": [1, 2]}}, "allowed: f, n, s"),
    ("calibrate", {"initial_sigma": ["a", 0.3, 0.06]}, "'initial_sigma'"),
    ("gen-mesh", {"h": 0.5, "extents": ["a", 1, 1]}, "'extents'"),
    ("gen-mesh", {"h": 0.5, "kind": "ventricle", "endo_axes": ["a", 1, 1]},
     "'endo_axes'"),
    ("gen-mesh", {"h": 0.5, "kind": "ventricle", "epi_axes": ["a", 1, 1]},
     "'epi_axes'"),
    ("gen-twin", {"sigma": ["a", 0.3, 0.05]}, "'sigma'"),
    ("simulate", {"stimulus_points": [["a", 0, 0]]}, "'stimulus_points'"),
    ("simulate", {"stimulus_onsets": ["z"]}, "'stimulus_onsets'"),
    ("simulate", {"snapshot_times": ["a"]}, "'snapshot_times'"),
    # a boolean is no number and a string no boolean, also nested
    ("simulate", {"solver": {"t_end": True}}, "'t_end'"),
    ("simulate", {"solver": {"stop_when_activated": "false"}},
     "'stop_when_activated'"),
    ("simulate", {"solver": {"sigma": [True, 0.3, 0.06]}}, "'sigma'"),
    ("simulate", {"fiber_angles": {"alpha_endo": True}}, "'alpha_endo'"),
    ("calibrate", {"box": {"f": [True, 2.0]}}, "box"),
    ("calibrate", {"initial_sigma": [True, 0.3, 0.06]}, "'initial_sigma'"),
    ("simulate", {"snapshot_times": [True]}, "'snapshot_times'"),
    ("simulate", {"stimulus_points": [[0, False, 0]]}, "'stimulus_points'"),
    ("gen-twin", {"sigma": [1.2, 0.3, True]}, "'sigma'"),
    # a fixed-length tuple takes exactly its number of values
    ("calibrate", {"box": {"f": [0.7, 1.5, 2.2]}}, "'f'"),
    ("simulate", {"stimulus_points": [[0, 0, 0], [0, 0]]},
     "'stimulus_points'"),
    ("simulate", {"solver": {"sigma": [1.2, 0.3]}}, "'sigma'"),
    ("calibrate", {"beta": [0.45, 0.1]},
     "calibrate config['beta'] must hold 3 values, got 2"),
    ("calibrate", {"initial_sigma": [1.0, 0.3]},
     "calibrate config['initial_sigma'] must hold 3 values, got 2"),
    ("gen-twin", {"sigma": [1.2, 0.3]},
     "gen-twin config['sigma'] must hold 3 values, got 2"),
    ("gen-mesh", {"h": 0.5, "extents": [1, 1]},
     "gen-mesh config['extents'] must hold 3 values, got 2"),
    ("gen-mesh", {"h": 0.5, "kind": "ventricle", "endo_axes": [0.45, 0.45]},
     "gen-mesh config['endo_axes'] must hold 3 values, got 2"),
    ("gen-mesh", {"h": 0.5, "kind": "ventricle", "epi_axes": [0.6, 0.6]},
     "gen-mesh config['epi_axes'] must hold 3 values, got 2"),
    # an integer that float() cannot take
    ("gen-mesh", {"h": 10 ** 400}, "'h'] is too large for a float"),
], ids=["gen_mesh_h", "simulate_solver_dt", "simulate_snapshot_times",
        "simulate_fiber_angle", "calibrate_box_scalar",
        "calibrate_box_string_bound", "calibrate_box_unknown_key",
        "calibrate_initial_sigma", "gen_mesh_extents", "gen_mesh_endo_axes",
        "gen_mesh_epi_axes", "gen_twin_sigma", "simulate_stimulus_point",
        "simulate_stimulus_onset", "simulate_snapshot_time_string",
        "simulate_solver_t_end_bool", "simulate_solver_stop_string",
        "simulate_solver_sigma_bool", "simulate_fiber_angle_bool",
        "calibrate_box_bool_bound", "calibrate_initial_sigma_bool",
        "simulate_snapshot_time_bool", "simulate_stimulus_point_bool",
        "gen_twin_sigma_bool", "calibrate_box_three_bounds",
        "simulate_stimulus_points_ragged", "simulate_solver_sigma_two",
        "calibrate_beta_two", "calibrate_initial_sigma_two",
        "gen_twin_sigma_two", "gen_mesh_extents_two",
        "gen_mesh_endo_axes_two", "gen_mesh_epi_axes_two",
        "gen_mesh_h_huge"])
def test_mistyped_config_value_is_reported(tmp_path, capsys, command, config,
                                           named):
    if command not in ("gen-mesh", "gen-twin"):
        mesh_path = tmp_path / "mesh.vtk"
        vtkio.write_mesh(mesh_path, build_slab_mesh((0.1, 0.1, 0.1), 0.05))
        config = {"mesh": str(mesh_path), **config}
    if command == "simulate":
        config = {"stimulus_points": [[0.0, 0.0, 0.0]],
                  "stimulus_onsets": [0.0], **config}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "out": str(tmp_path / "out")}))
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--config", str(path)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert named in message


_KEYS = [(name, key) for name, command in cli._COMMANDS.items()
         for key in command.keys]


@pytest.mark.parametrize("command,key", _KEYS,
                         ids=[f"{name}-{key}" for name, key in _KEYS])
def test_every_config_key_rejects_a_value_of_the_wrong_kind(
        tmp_path, monkeypatch, capsys, command, key):
    spec = cli._COMMANDS[command]
    # lists and records take a JSON list or object, never a string
    wrong = {str: 5, float: "5", int: 1.5, bool: 1}.get(spec.keys[key], "x")
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, spec._replace(
        handler=lambda config, outputs: seen.append(config)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: wrong}))
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--config", str(path)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:") and f"'{key}'" in message
    assert seen == []


def test_unknown_mesh_kind_names_the_kinds(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-mesh", "--kind", "bogus"])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert "slab" in message and "ventricle" in message


_FLAGS = [(name, key) for name, command in cli._COMMANDS.items()
          for key in command.flags]


@pytest.mark.parametrize("command,key", _FLAGS,
                         ids=[f"{name}--{key}" for name, key in _FLAGS])
def test_flag_overrides_its_config_key(tmp_path, monkeypatch, command, key):
    spec = cli._COMMANDS[command]
    kind = spec.keys[key]
    in_config, on_flag = {str: ("from-config", "from-flag"),
                          float: (1.5, 2.5), int: (3, 4)}[kind]
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, spec._replace(
        handler=lambda config, outputs: seen.append(config)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: in_config}))
    flag = "--" + key.replace("_", "-")
    assert cli.main([command, "--config", str(path)]) == 0
    assert cli.main([command, "--config", str(path), flag, str(on_flag)]) == 0
    assert seen == [{key: in_config}, {key: on_flag}]
    assert type(seen[1][key]) is kind


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_every_config_key_and_flag(capsys, command):
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    epilog = " ".join(text.split("config keys:")[1].split())
    assert epilog.split(";")[0].split(", ") == list(cli._COMMANDS[command].keys)
    for key in cli._COMMANDS[command].flags:
        assert "--" + key.replace("_", "-") in text


def test_missing_required_key_is_reported(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-mesh", "--out", str(tmp_path)])
    assert err.value.code == 1
    assert "'h'" in capsys.readouterr().err


def test_missing_config_file_is_reported(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["calibrate", "--config", "no_such_scenario.json"])
    assert err.value.code == 1
    assert "does not exist" in capsys.readouterr().err


def test_report_requires_a_trace_file(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["report", "--results", str(tmp_path / "nope")])
    assert err.value.code == 1
    assert "trace.csv" in capsys.readouterr().err


_TRACE_ROW = ["0", "1.45", "0.32", "0.065", "-12.5", "3.25", "2.5"]
_VALIDATION = {"sigma_hat": [1.45, 0.32, 0.065], "converged": True,
               "iterations": 1,
               "validation": {"mean_rel": 0.01, "mean_rel_pointwise": 0.01,
                              "std_rel": 0.005,
                              "five_number_rel": [0, 0.01, 0.01, 0.02, 0.03],
                              "slope": 1.0, "r_squared": 0.99, "n_used": 3,
                              "n_not_activated": 0}}


@pytest.mark.parametrize("broken", [
    None, "trace_value", "validation_key", "validation_list",
    "validation_json", "validation_no_converged", "validation_empty",
    "correlation_value", "validation_null", "validation_inner_empty"])
def test_report_rejects_malformed_result_files(tmp_path, capsys, broken):
    results = tmp_path / "results"
    results.mkdir()
    row = list(_TRACE_ROW)
    validation = json.loads(json.dumps(_VALIDATION))
    if broken == "trace_value":
        row[1] = "fast"
    elif broken == "validation_key":
        del validation["validation"]["five_number_rel"]
    elif broken == "validation_list":
        validation = [1.45, 0.32, 0.065]
    elif broken == "validation_no_converged":
        del validation["converged"]
    elif broken == "validation_empty":
        validation = {}
    elif broken == "validation_null":
        validation["validation"] = None
    elif broken == "validation_inner_empty":
        validation["validation"] = {}
    with open(results / "trace.csv", "w", newline="") as handle:
        csv.writer(handle).writerows([TRACE_HEADER, row])
    text = json.dumps(validation)
    (results / "validation.json").write_text(
        text[:-1] if broken == "validation_json" else text)
    if broken == "correlation_value":
        (results / "correlation.csv").write_text(
            "group,tau_measured_ms,tau_computed_ms\nI,10,ten\n")
    argv = ["report", "--results", str(results),
            "--out", str(tmp_path / "out")]
    if broken is None:
        # the same files, unbroken, make a report
        assert cli.main(argv) == 0
        text = (tmp_path / "out" / "report.txt").read_text()
        assert "sigma=(1.4500, 0.3200, 0.0650)" in text
        assert "relative errors (%): 0.00, 1.00, 1.00, 2.00, 3.00" in text
        return
    named = {"trace_value": "trace.csv",
             "correlation_value": "correlation.csv"}.get(broken,
                                                         "validation.json")
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert str(results / named) in message
    assert not (tmp_path / "out").exists()


def _assert_report_rejects(tmp_path, capsys, trace_rows, correlation_rows,
                           named, *words):
    """report on these trace.csv rows and correlation.csv rows (below
    their headers) ends in one error line naming the file `named` and
    each of `words`, and writes no report."""
    results = tmp_path / "results"
    results.mkdir()
    with open(results / "trace.csv", "w", newline="") as handle:
        csv.writer(handle).writerows([TRACE_HEADER, *trace_rows])
    (results / "correlation.csv").write_text(
        f"group,tau_measured_ms,tau_computed_ms\n{correlation_rows}\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["report", "--results", str(results),
                  "--out", str(tmp_path / "out")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert str(results / named) in message
    for word in words:
        assert word in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_row", [
    "I,nan,40", "II,inf,50", "I,30,nan", "II,30,-inf", "II,nan,"],
    ids=["measured_nan", "measured_inf", "computed_nan", "computed_inf",
         "measured_nan_not_activated"])
def test_report_rejects_a_non_finite_correlation_time(tmp_path, capsys,
                                                      bad_row):
    _assert_report_rejects(tmp_path, capsys, [_TRACE_ROW],
                           "I,10,11\nI,20,19\nII,30,32\n" + bad_row,
                           "correlation.csv", "line 5")


@pytest.mark.parametrize("bad_row", ["I,0,40", "II,-5,50", "II,0,"],
                         ids=["zero", "negative", "zero_not_activated"])
def test_report_rejects_a_non_positive_measured_time(tmp_path, capsys,
                                                     bad_row):
    _assert_report_rejects(tmp_path, capsys, [_TRACE_ROW],
                           "I,10,11\nI,20,19\n" + bad_row + "\nII,30,32",
                           "correlation.csv", "line 4", "must be positive")


@pytest.mark.parametrize("column, value", [
    ("sigma_f", "nan"), ("sigma_n", "inf"), ("E_ms", "-inf"),
    ("eI_pct", "x"), ("iter", "x"), ("iter", "-1"), ("F_ms2", "nan"),
    ("F_ms2", "-inf"), ("eI_pct", "inf")])
def test_report_names_the_row_and_column_of_a_bad_trace_value(
        tmp_path, capsys, column, value):
    bad = list(_TRACE_ROW)
    bad[TRACE_HEADER.index(column)] = value
    _assert_report_rejects(tmp_path, capsys, [_TRACE_ROW, bad],
                           "I,10,11\nI,20,19\nII,30,32",
                           "trace.csv", "line 3", column, repr(value))


@pytest.mark.parametrize("group", ["III", ""], ids=["III", "empty"])
def test_report_rejects_an_unknown_correlation_group(tmp_path, capsys, group):
    # such a row used to drop out of the pooled and group-I statistics
    _assert_report_rejects(tmp_path, capsys, [_TRACE_ROW],
                           f"I,10,11\n{group},20,19\nI,25,26\nII,30,32",
                           "correlation.csv", "line 3", repr(group))


# One edit each to a real validation.json: (key path, new value). The
# first seven used to give a report and exit 0, the other five ended in
# Python's own wording without the key.
_VALIDATION_EDITS = {
    "converged_str": (("converged",), "yes"),
    "iterations_str": (("iterations",), "x"),
    "iterations_float": (("iterations",), 2.5),
    "sigma_hat_two": (("sigma_hat",), [1.45, 0.32]),
    "n_used_str": (("validation", "n_used"), "many"),
    "slope_bool": (("validation", "slope"), True),
    "unknown_key": (("validation", "bogus"), 1.0),
    "sigma_hat_number": (("sigma_hat",), 1.45),
    "sigma_hat_strings": (("sigma_hat",), ["a", "b", "c"]),
    "mean_rel_str": (("validation", "mean_rel"), "x"),
    "five_number_rel_number": (("validation", "five_number_rel"), 0.01),
    "r_squared_null": (("validation", "r_squared"), None),
    # an integer that float() cannot take
    "mean_rel_huge": (("validation", "mean_rel"), 10 ** 400),
}


@pytest.mark.parametrize("broken", [*_VALIDATION_EDITS, "trace_empty",
                                    "correlation_empty"])
def test_report_names_the_file_and_key_of_a_malformed_result(
        pipeline, tmp_path, capsys, broken):
    results = tmp_path / "results"
    results.mkdir()
    for name in ("trace.csv", "validation.json", "correlation.csv"):
        (results / name).write_bytes((_results(pipeline) / name).read_bytes())
    if broken in _VALIDATION_EDITS:
        (*parents, key), value = _VALIDATION_EDITS[broken]
        named, word = "validation.json", key
        payload = json.loads((results / named).read_text())
        block = payload
        for parent in parents:
            block = block[parent]
        block[key] = value
        (results / named).write_text(json.dumps(payload))
    else:
        named, word = broken.replace("_empty", ".csv"), "missing column"
        (results / named).write_bytes(b"")
    with pytest.raises(SystemExit) as err:
        cli.main(["report", "--results", str(results),
                  "--out", str(tmp_path / "out")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:") and message.count("\n") == 1
    assert str(results / named) in message and word in message
    assert not (tmp_path / "out").exists()


def test_seed_is_only_a_gen_twin_flag(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--seed", "1"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_calibrate_requires_fiber_information(pipeline, tmp_path, capsys):
    twin_dir = pipeline / "twin"
    config = tmp_path / "nofibers.json"
    config.write_text(json.dumps({
        "mesh": str(twin_dir / "mesh.vtk"),
        "measurements": str(twin_dir / "measurements.csv"),
        "references": str(twin_dir / "references.csv"),
        "out": str(tmp_path / "out")}))
    with pytest.raises(SystemExit) as err:
        cli.main(["calibrate", "--config", str(config)])
    assert err.value.code == 1
    assert "isotropic" in capsys.readouterr().err


def test_failed_write_removes_partial_outputs(pipeline, tmp_path,
                                              monkeypatch, capsys):
    def boom(path, payload):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_json", boom)
    twin_dir = pipeline / "twin"
    with pytest.raises(SystemExit) as err:
        cli.main(["register", "--mesh", str(twin_dir / "mesh.vtk"),
                  "--measurements", str(twin_dir / "measurements.csv"),
                  "--references", str(twin_dir / "references.csv"),
                  "--out", str(tmp_path)])
    assert err.value.code == 1
    assert "disk full" in capsys.readouterr().err
    assert not (tmp_path / "registered.csv").exists()
    assert not (tmp_path / "registration.json").exists()


def test_simulate_cli_writes_activation_and_snapshots(tmp_path):
    mesh_config = tmp_path / "mesh.json"
    mesh_config.write_text(json.dumps({
        "kind": "slab", "h": 0.05, "extents": [0.6, 0.1, 0.05],
        "out": str(tmp_path)}))
    assert cli.main(["gen-mesh", "--config", str(mesh_config)]) == 0
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({
        "mesh": str(tmp_path / "mesh.vtk"),
        "solver": {"sigma": [1.45, 0.32, 0.065], "dt": 0.025, "t_end": 12.0,
                   "stop_when_activated": False, "stimulus_radius": 0.08,
                   "stimulus_amplitude": 225000.0},
        "stimulus_points": [[0.0, 0.0, 0.0]],
        "stimulus_onsets": [0.0],
        # 5.0 and 5.01 ms round to the same step; both are written
        "snapshot_times": [5.0, 5.01],
        "out": str(tmp_path / "sim")}))
    assert cli.main(["simulate", "--config", str(sim_config)]) == 0
    fields = vtkio.read_fields(tmp_path / "sim" / "activation.vtk")
    assert set(fields) == {"activation", "peak"}
    assert fields["activation"].shape == (78,)
    snaps = vtkio.read_fields(tmp_path / "sim" / "snapshots.vtk")
    assert list(snaps) == ["u_5ms", "u_5_01ms"]
    assert np.array_equal(snaps["u_5ms"], snaps["u_5_01ms"])
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest["n_not_activated"] == 0


def test_simulate_rejects_snapshot_times_that_share_a_field_name(
        tmp_path, capsys, monkeypatch):
    # both times print as 1 with 6 significant digits
    mesh_config = tmp_path / "mesh.json"
    mesh_config.write_text(json.dumps({
        "kind": "slab", "h": 0.05, "extents": [0.2, 0.1, 0.05],
        "out": str(tmp_path)}))
    assert cli.main(["gen-mesh", "--config", str(mesh_config)]) == 0
    simulated = []
    monkeypatch.setattr(cli.slv, "simulate",
                        lambda *args, **kwargs: simulated.append(1))
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({
        "mesh": str(tmp_path / "mesh.vtk"),
        "solver": {"t_end": 2.0, "stop_when_activated": False},
        "stimulus_points": [[0.0, 0.0, 0.0]],
        "stimulus_onsets": [0.0],
        "snapshot_times": [1.0000001, 0.5, 1.0],
        "out": str(tmp_path / "sim")}))
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--config", str(sim_config)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert "1.0 and 1.0000001" in message and "u_1ms" in message
    assert simulated == []
    assert not (tmp_path / "sim").exists()


def test_simulate_reports_a_nan_snapshot_time_as_out_of_range(tmp_path,
                                                             capsys):
    mesh_config = tmp_path / "mesh.json"
    mesh_config.write_text(json.dumps({
        "kind": "slab", "h": 0.05, "extents": [0.2, 0.1, 0.05],
        "out": str(tmp_path)}))
    assert cli.main(["gen-mesh", "--config", str(mesh_config)]) == 0
    sim_config = tmp_path / "sim.json"
    # NaN, and a time whose step count overflows an int
    for when, literal in ((float("nan"), "NaN"), (1e308, "1e+308")):
        text = json.dumps({
            "mesh": str(tmp_path / "mesh.vtk"), "solver": {"t_end": 2.0},
            "stimulus_points": [[0.0, 0.0, 0.0]], "stimulus_onsets": [0.0],
            "snapshot_times": [when], "out": str(tmp_path / "sim")})
        # NaN as the JSON literal, which Python's json reads back as a float
        assert f'"snapshot_times": [{literal}]' in text
        sim_config.write_text(text)
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--config", str(sim_config)])
        assert err.value.code == 1
        message = capsys.readouterr().err
        assert message.startswith("error:")
        assert f"snapshot time {when} outside [0, t_end]" in message
        assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("fiber_x, mesh_x", [(0.2, 0.3), (0.3, 0.2)],
                         ids=["fewer_nodes", "more_nodes"])
def test_simulate_rejects_fibers_from_another_mesh(tmp_path, capsys,
                                                   monkeypatch, fiber_x,
                                                   mesh_x):
    sizes = {name: build_slab_mesh((x, 0.1, 0.05), 0.05)
             for name, x in (("fib", fiber_x), ("mesh", mesh_x))}
    vtkio.write_mesh(tmp_path / "mesh.vtk", sizes["mesh"])
    fibers = tmp_path / "fibers.vtk"
    FiberField.uniform(sizes["fib"].n_nodes).write(fibers, sizes["fib"])
    simulated = []
    monkeypatch.setattr(cli.slv, "simulate",
                        lambda *args, **kwargs: simulated.append(1))
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({
        "mesh": str(tmp_path / "mesh.vtk"), "fibers": str(fibers),
        "stimulus_points": [[0.0, 0.0, 0.0]], "stimulus_onsets": [0.0],
        "out": str(tmp_path / "sim")}))
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--config", str(sim_config)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert (f"has {sizes['fib'].n_nodes} nodes, the mesh has "
            f"{sizes['mesh'].n_nodes}") in message
    assert simulated == []
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("name", ["fiber", "singular"])
def test_simulate_rejects_a_fibers_field_of_the_wrong_shape(tmp_path, capsys,
                                                           name):
    # a scalar fiber field, or a vector singular field
    mesh = build_slab_mesh((0.25, 0.1, 0.05), 0.05)
    vtkio.write_mesh(tmp_path / "mesh.vtk", mesh)
    frame = FiberField.uniform(mesh.n_nodes)
    fields = {"fiber": frame.f, "sheet": frame.s, "normal": frame.n,
              "singular": np.zeros(mesh.n_nodes)}
    fields[name] = (np.ones(mesh.n_nodes) if name == "fiber"
                    else np.zeros((mesh.n_nodes, 3)))
    fibers = tmp_path / "fibers.vtk"
    vtkio.write_fields(fibers, mesh, fields)
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({
        "mesh": str(tmp_path / "mesh.vtk"), "fibers": str(fibers),
        "solver": {"t_end": 1.0}, "stimulus_points": [[0.0, 0.0, 0.0]],
        "stimulus_onsets": [0.0], "out": str(tmp_path / "sim")}))
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--config", str(sim_config)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert f"the {name} field has shape" in message
    assert not (tmp_path / "sim").exists()


def test_simulate_rejects_a_mesh_without_cells(tmp_path, capsys):
    mesh = tmp_path / "mesh.vtk"
    vtkio.write_mesh(mesh, build_slab_mesh((0.25, 0.1, 0.05), 0.05))
    text = mesh.read_text()
    mesh.write_text(text[:text.index("CELLS")] + "CELLS 0 0\nCELL_TYPES 0\n")
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({
        "mesh": str(mesh), "solver": {"t_end": 1.0},
        "stimulus_points": [[0.0, 0.0, 0.0]], "stimulus_onsets": [0.0],
        "out": str(tmp_path / "sim")}))
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--config", str(sim_config)])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert "mesh has no elements" in message
    assert not (tmp_path / "sim").exists()


def test_simulate_rerun_writes_identical_manifest(tmp_path):
    mesh_config = tmp_path / "mesh.json"
    mesh_config.write_text(json.dumps({
        "kind": "slab", "h": 0.05, "extents": [0.2, 0.1, 0.05],
        "out": str(tmp_path)}))
    assert cli.main(["gen-mesh", "--config", str(mesh_config)]) == 0
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(json.dumps({
        "mesh": str(tmp_path / "mesh.vtk"),
        "solver": {"t_end": 1.0, "stop_when_activated": False},
        "stimulus_points": [[0.0, 0.0, 0.0]],
        "stimulus_onsets": [0.0]}))
    manifests = []
    for run in ("a", "b"):
        assert cli.main(["simulate", "--config", str(sim_config),
                         "--out", str(tmp_path / run)]) == 0
        manifests.append((tmp_path / run / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert "timestamp" not in json.loads(manifests[0])


def test_simulate_manifest_documents_the_run(tmp_path, small_slab):
    mesh_path = tmp_path / "mesh.vtk"
    vtkio.write_mesh(mesh_path, small_slab)
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "mesh": str(mesh_path), "solver": {"t_end": 2.0},
        "stimulus_points": [[0.0, 0.0, 0.0]], "stimulus_onsets": [0.0],
        "out": str(tmp_path / "sim")}))
    assert cli.main(["simulate", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    # the hash of the mesh simulated, as read back from its file
    assert manifest["mesh_hash"] == vtkio.read_mesh(mesh_path).content_hash()
    assert manifest["params"]["sigma"] == list(SolverParams().sigma)
    assert manifest["stimulus_sites"] == 1
    assert manifest["n_steps"] == 80


def test_gen_fibers_matches_library_field(tmp_path):
    mesh_config = tmp_path / "mesh.json"
    mesh_config.write_text(json.dumps({
        "kind": "slab", "h": 0.05, "extents": [0.2, 0.1, 0.1],
        "out": str(tmp_path)}))
    assert cli.main(["gen-mesh", "--config", str(mesh_config)]) == 0
    assert cli.main(["gen-fibers", "--mesh", str(tmp_path / "mesh.vtk"),
                     "--alpha-endo", "60", "--alpha-epi", "-60",
                     "--beta-endo", "0", "--beta-epi", "0",
                     "--out", str(tmp_path / "fib")]) == 0
    fields = vtkio.read_fields(tmp_path / "fib" / "fibers.vtk")
    mesh = vtkio.read_mesh(tmp_path / "mesh.vtk")
    expected = generate_fibers(mesh, FiberAngles(60.0, -60.0, 0.0, 0.0))
    np.testing.assert_allclose(fields["fiber"], expected.f, atol=1e-8)
    np.testing.assert_allclose(fields["sheet"], expected.s, atol=1e-8)
    np.testing.assert_allclose(fields["normal"], expected.n, atol=1e-8)
    np.testing.assert_array_equal(fields["singular"] > 0.5, expected.singular)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_fibers_rejects_a_non_finite_sheet_angle(tmp_path, capsys, value):
    assert cli.main(["gen-mesh", "--kind", "slab", "--h", "0.25",
                     "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-fibers", "--mesh", str(tmp_path / "mesh.vtk"),
                  "--beta-endo", value, "--out", str(tmp_path / "fib")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:") and "beta_endo" in message
    assert not (tmp_path / "fib" / "fibers.vtk").exists()


@pytest.mark.parametrize("old,new", [(74, 80), (0, -1)],
                         ids=["past_the_last_node", "negative"])
def test_gen_fibers_rejects_a_surface_with_an_unknown_node(tmp_path, capsys,
                                                           old, new):
    assert cli.main(["gen-mesh", "--kind", "slab", "--h", "0.25",
                     "--out", str(tmp_path)]) == 0
    path = tmp_path / "mesh.vtk"
    mesh = vtkio.read_mesh(path)
    assert mesh.n_nodes == 75
    faces = mesh.boundary_faces.copy()
    faces[faces == old] = new
    vtkio.write_mesh(path, dataclasses.replace(mesh, boundary_faces=faces))
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-fibers", "--mesh", str(path),
                  "--out", str(tmp_path / "fib")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:") and "unknown nodes" in message
    assert not (tmp_path / "fib" / "fibers.vtk").exists()


def test_gen_fibers_rejects_a_mesh_without_size(tmp_path, capsys):
    # the apex Dirichlet set is the boundary within 1.5 h of the apex, so
    # a mesh is read only with its size
    assert cli.main(["gen-mesh", "--kind", "ventricle", "--h", "0.05",
                     "--out", str(tmp_path)]) == 0
    path = tmp_path / "mesh.vtk"
    text = path.read_text()
    assert " h=0.05\n" in text
    path.write_text(text.replace(" h=0.05\n", "\n", 1))
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-fibers", "--mesh", str(path),
                  "--out", str(tmp_path / "fib")])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("error:")
    assert f"invalid file {path}: line 2: title has no h= token" in message
    assert not (tmp_path / "fib" / "fibers.vtk").exists()


def test_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["calibrate", "--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    assert "config keys:" in text
    assert "max_cal_points" in text
    solver_keys = " ".join(text.split("solver keys:")[1].split()).split(", ")
    assert solver_keys == [key for key in SolverParams.__dataclass_fields__
                           if key != "sigma"]


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit) as err:
        cli.main(["transmogrify"])
    assert err.value.code == 2
