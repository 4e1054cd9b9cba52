"""Command-line workflow: full pipeline, config handling, failure paths.

The expensive path (gen-twin, then the bundled standard calibration
scenario, then the report) runs once at module scope inside a scratch
directory; the cheap per-command checks use their own temp dirs.
"""

import csv
import json
import os

import numpy as np
import pytest

from monocal import cli
from monocal import vtkio
from monocal.calibration import TRACE_HEADER
from monocal.fibers import FiberAngles, generate_fibers
from monocal.geometry import build_slab_mesh
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


@pytest.mark.parametrize("command,config,named", [
    ("gen-mesh", {"h": "abc"}, "'h'"),
    ("simulate", {"solver": {"dt": "fast"}}, "solver"),
    ("simulate", {"snapshot_times": 5}, "'snapshot_times'"),
    ("simulate", {"fiber_angles": {"alpha_endo": "x"}}, "fiber_angles"),
    ("calibrate", {"box": {"f": 5}}, "box"),
    ("calibrate", {"box": {"f": ["a", 2]}}, "box"),
    ("calibrate", {"box": {"x": [1, 2]}}, "allowed: f, n, s"),
    ("calibrate", {"initial_sigma": ["a", 0.3, 0.06]}, "calibration"),
    ("gen-mesh", {"h": 0.5, "extents": ["a", 1, 1]}, "'extents'"),
    ("gen-mesh", {"h": 0.5, "kind": "ventricle", "endo_axes": ["a", 1, 1]},
     "'endo_axes'"),
    ("gen-mesh", {"h": 0.5, "kind": "ventricle", "epi_axes": ["a", 1, 1]},
     "'epi_axes'"),
    ("gen-twin", {"sigma": ["a", 0.3, 0.05]}, "'sigma'"),
    ("simulate", {"stimulus_points": [["a", 0, 0]]}, "'stimulus_points'"),
    ("simulate", {"stimulus_onsets": ["z"]}, "'stimulus_onsets'"),
    ("simulate", {"snapshot_times": ["a"]}, "'snapshot_times'"),
], ids=["gen_mesh_h", "simulate_solver_dt", "simulate_snapshot_times",
        "simulate_fiber_angle", "calibrate_box_scalar",
        "calibrate_box_string_bound", "calibrate_box_unknown_key",
        "calibrate_initial_sigma", "gen_mesh_extents", "gen_mesh_endo_axes",
        "gen_mesh_epi_axes", "gen_twin_sigma", "simulate_stimulus_point",
        "simulate_stimulus_onset", "simulate_snapshot_time_string"])
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
        handler=lambda config, tracker: seen.append(config)))
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
        "snapshot_times": [5.0],
        "out": str(tmp_path / "sim")}))
    assert cli.main(["simulate", "--config", str(sim_config)]) == 0
    fields = vtkio.read_fields(tmp_path / "sim" / "activation.vtk")
    assert set(fields) == {"activation", "peak"}
    assert fields["activation"].shape == (78,)
    snaps = vtkio.read_fields(tmp_path / "sim" / "snapshots.vtk")
    assert list(snaps) == ["u_5ms"]
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest["n_not_activated"] == 0


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


def test_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["calibrate", "--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    assert "config keys:" in text
    assert "max_cal_points" in text
    for key in SolverParams.__dataclass_fields__:
        assert key in text


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit) as err:
        cli.main(["transmogrify"])
    assert err.value.code == 2
