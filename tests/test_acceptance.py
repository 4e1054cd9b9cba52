"""End-to-end targets for the toolkit, one pass/fail line per target.

Covers planar conduction speeds, cross-resolution and time-step
sensitivity of activation maps, conductivity recovery on the synthetic
twin (with correct, wrong and missing fiber models), registration
safeguards, calibration-set truncation, and the numerical cross-checks
that anchor the solver to independent oracles.

Targets the present discretization provably cannot meet are marked
xfail(strict=True); the reason strings carry the measured numbers so a
flipped outcome is investigated rather than silently accepted.
"""

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from monocal import registration as reg
from monocal.activation import error_stats
from monocal.calibration import CalibrationConfig, Evaluator, calibrate
from monocal.fem import AssemblyPlan, gmres_solve
from monocal.fibers import FiberAngles, generate_fibers
from monocal.geometry import SurfaceTag, build_slab_mesh
from monocal.ionic import gating_rhs, rest_state
from monocal.solver import SolverParams, StimulusPlan, simulate

from conftest import STAR_SIGMA
from oracles import (face_plan, ionic_currents, measure_planar_cv,
                     run_single_cell, single_plan)

SLAB_SIGMA = (1.325, 0.293, 0.0675)
FACE_LAUNCHER = dict(stimulus_radius=0.04, stimulus_amplitude=225000.0)
POINT_LAUNCHER = dict(stimulus_radius=0.06, stimulus_amplitude=225000.0)
POINT_SOURCE = (0.35, 0.35, 0.0)


# --- shared slab runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def planar_speeds():
    """Face-paced planar fronts along each material axis (m/s)."""
    mesh = build_slab_mesh((0.7, 0.7, 0.3), 0.035)
    speeds = {}
    for axis, window in ((0, (0.15, 0.55)), (1, (0.15, 0.55)),
                         (2, (0.05, 0.25))):
        params = SolverParams(sigma=SLAB_SIGMA, dt=0.025, t_end=150.0,
                              stop_when_activated=True, **FACE_LAUNCHER)
        output = simulate(mesh, None, params,
                          face_plan(mesh, axis=axis))
        assert output.n_not_activated == 0
        speeds[axis] = measure_planar_cv(mesh, output.activation, axis,
                                         window=window)
    return speeds


def _point_run(h, dt):
    mesh = build_slab_mesh((0.7, 0.7, 0.3), h)
    params = SolverParams(sigma=SLAB_SIGMA, dt=dt, t_end=150.0,
                          stop_when_activated=True, **POINT_LAUNCHER)
    plan = StimulusPlan(points=np.array([POINT_SOURCE]),
                        onsets=np.array([0.0]))
    return mesh, simulate(mesh, None, params, plan)


@pytest.fixture(scope="module")
def point_maps():
    return {"coarse": _point_run(0.035, 0.025), "fine": _point_run(0.02, 0.025)}


@pytest.fixture(scope="module")
def point_map_halved_dt():
    return _point_run(0.035, 0.0125)


def _interpolate_map(source_mesh, source_activation, query_points):
    axes = [np.unique(np.round(source_mesh.nodes[:, i], 9)) for i in range(3)]
    grid = source_activation.reshape(len(axes[2]), len(axes[1]), len(axes[0]))
    interp = RegularGridInterpolator((axes[2], axes[1], axes[0]), grid)
    return interp(query_points[:, [2, 1, 0]])


# --- shared twin recovery studies ---------------------------------------------


def _evaluator(mesh, plan, angles):
    field = None if angles is None else generate_fibers(mesh, angles)
    return Evaluator(mesh, field, plan, SolverParams())


def _study(evaluator, cal_cloud, val_cloud, isotropic=False,
           max_cal_points=None):
    config = CalibrationConfig(isotropic=isotropic,
                               max_cal_points=max_cal_points)
    result = calibrate(evaluator, cal_cloud, config, val_cloud)
    return result, result.best.report.mean_rel, result.validation.mean_rel


@pytest.fixture(scope="module")
def star_evaluator(twin_star, star_problem):
    """The twin problem with the default fiber model. The studies that
    calibrate it share it, so each simulates only the triples no other
    one has run."""
    _, _, plan = star_problem
    return _evaluator(twin_star.mesh, plan, FiberAngles())


@pytest.fixture(scope="module")
def study_base(star_evaluator, star_problem):
    cal_cloud, val_cloud, _ = star_problem
    return _study(star_evaluator, cal_cloud, val_cloud)


@pytest.fixture(scope="module")
def study_fib45(twin_star, star_problem):
    cal_cloud, val_cloud, plan = star_problem
    return _study(_evaluator(twin_star.mesh, plan,
                             FiberAngles(45.0, -45.0, -20.0, 20.0)),
                  cal_cloud, val_cloud)


@pytest.fixture(scope="module")
def study_fib75(twin_star, star_problem):
    cal_cloud, val_cloud, plan = star_problem
    return _study(_evaluator(twin_star.mesh, plan,
                             FiberAngles(75.0, -75.0, -20.0, 20.0)),
                  cal_cloud, val_cloud)


@pytest.fixture(scope="module")
def study_isotropic(twin_star, star_problem):
    cal_cloud, val_cloud, plan = star_problem
    return _study(_evaluator(twin_star.mesh, plan, None), cal_cloud,
                  val_cloud, isotropic=True)


@pytest.fixture(scope="module")
def study_truncated(star_evaluator, star_problem):
    cal_cloud, val_cloud, _ = star_problem
    return _study(star_evaluator, cal_cloud, val_cloud, max_cal_points=37)


@pytest.fixture(scope="module")
def study_perturbed(twin_star, twin_star_files, star_evaluator):
    cloud, groups, _ = reg.register(twin_star.mesh,
                                    twin_star_files["measurements"],
                                    twin_star_files["references_perturbed"])
    _, cal_cloud, val_cloud, plan = reg.split_samples(cloud, groups)
    # the shared evaluator paces its own plan: calibrating against it is
    # only this problem if the perturbed registration gives the same one
    assert np.array_equal(plan.points, star_evaluator.stim_plan.points)
    assert np.array_equal(plan.onsets, star_evaluator.stim_plan.onsets)
    return _study(star_evaluator, cal_cloud, val_cloud)


# --- planar conduction speeds -------------------------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "at h = 0.035 cm, dt = 0.025 ms the measured planar speeds are "
    "0.795 / 0.247 / 0.047 m/s against targets 0.63 / 0.44 / 0.18 m/s "
    "(+26 / -44 / -74 percent). On face-paced 0.7 cm bars, 2 x 2 cells "
    "across, refining h from 0.035 to 0.0175, 0.00875 and 0.004375 cm "
    "moves them from 0.795 / 0.247 / 0.042 to 0.908 / 0.366 / 0.114, "
    "0.939 / 0.425 / 0.174 and 0.946 / 0.441 / 0.203 m/s: the transverse "
    "speeds are under-resolved on this grid and meet their targets only "
    "near h = 0.0045 cm, while the fiber speed converges near 0.95 m/s, "
    "so the 0.63 m/s target is out of reach at any h with sigma_f = "
    "1.325 mS/cm (speed grows with the square root of sigma)"))
def test_planar_speeds_match_ventricular_targets(planar_speeds):
    targets = {0: 0.63, 1: 0.44, 2: 0.18}
    for axis, target in targets.items():
        rel = abs(planar_speeds[axis] - target) / target
        assert rel <= 0.15, (axis, planar_speeds[axis], rel)


# --- cross-resolution agreement -------------------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "maps at h = 0.035 and h = 0.02 cm differ by up to 29 ms away from "
    "the source (mean 18 ms): the cross-fiber front speed roughly "
    "doubles between the two grids, so arrival-time skew grows with "
    "distance instead of staying under 2 ms"))
def test_activation_maps_agree_across_grids(point_maps):
    coarse_mesh, coarse = point_maps["coarse"]
    fine_mesh, fine = point_maps["fine"]
    fine_at_coarse = _interpolate_map(fine_mesh, fine.activation,
                                      coarse_mesh.nodes)
    distance = np.linalg.norm(coarse_mesh.nodes - np.array(POINT_SOURCE),
                              axis=1)
    far = distance > 0.3
    assert far.sum() > 1000
    drift = np.abs(coarse.activation[far] - fine_at_coarse[far])
    assert drift.max() < 2.0, drift.max()


# --- conductivity recovery on the twin ----------------------------------------


def test_fiber_conductivity_recovered_within_10_percent(study_base):
    result, _, _ = study_base
    rel = abs(result.best.sigma[0] - STAR_SIGMA[0]) / STAR_SIGMA[0]
    assert rel <= 0.10, (result.best.sigma[0], rel)


@pytest.mark.xfail(strict=True, reason=(
    "the recovered cross-fiber pair lands at +17 / -26 percent of the "
    "generating values: every search step moves the whole triple along "
    "one fixed coefficient direction, so from the box midpoint only the "
    "component the epicardial data constrains best stops on target and "
    "the transverse pair stops wherever that happens"))
def test_cross_fiber_conductivities_recovered_within_10_percent(study_base):
    result, _, _ = study_base
    for i in (1, 2):
        rel = abs(result.best.sigma[i] - STAR_SIGMA[i]) / STAR_SIGMA[i]
        assert rel <= 0.10, (i, result.best.sigma[i], rel)


def test_calibration_converges_within_ten_iterations(study_base):
    result, _, _ = study_base
    assert result.converged
    assert len(result.iterations) <= 10


def test_validation_error_below_two_percent(study_base):
    _, _, val_error = study_base
    assert val_error < 0.02, val_error


# --- wrong and missing fiber models -------------------------------------------


def test_wrong_helix_angles_degrade_validation(study_base, study_fib45,
                                               study_fib75):
    _, _, base = study_base
    _, _, off45 = study_fib45
    _, _, off75 = study_fib75
    assert off45 > base, (off45, base)
    assert off75 > base, (off75, base)


def test_isotropic_no_fiber_model_is_at_least_40_percent_worse(
        study_base, study_isotropic):
    _, _, base = study_base
    _, _, isotropic = study_isotropic
    assert isotropic >= 1.4 * base, (isotropic, base)


# --- registration safeguards ----------------------------------------------


def test_rigid_recovery_is_exact_to_nanometer():
    rng = np.random.default_rng(11)
    landmarks = np.array([[0.0, 0.0, -1.2], [-0.6, 0.0, 0.3],
                          [0.0, 0.6, 0.3]])
    cloud = rng.normal(0.0, 0.8, size=(50, 3))
    for _ in range(20):
        matrix, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(matrix) < 0:
            matrix[:, 0] = -matrix[:, 0]
        translation = rng.normal(0.0, 2.0, size=3)
        moved = landmarks @ matrix.T + translation
        fitted = reg.rigid_from_three_pairs(moved, landmarks)
        recovered = fitted.apply(cloud @ matrix.T + translation)
        assert np.abs(recovered - cloud).max() <= 1e-9


def test_surface_projection_is_idempotent(twin_star):
    # Nearest-node snapping: a cloud already on mesh nodes must not move,
    # which is also why sub-element registration noise is absorbed.
    mesh = twin_star.mesh
    once, _ = reg.nns_project(mesh.nodes[twin_star.vein_nodes], mesh,
                              int(SurfaceTag.EPI))
    twice, moves = reg.nns_project(mesh.nodes[once], mesh, int(SurfaceTag.EPI))
    np.testing.assert_array_equal(once, twin_star.vein_nodes)
    np.testing.assert_array_equal(twice, once)
    assert moves.max() == 0.0


def test_perturbed_references_shift_errors_below_half_point(study_base,
                                                            study_perturbed):
    _, cal_base, val_base = study_base
    _, cal_pert, val_pert = study_perturbed
    assert abs(cal_pert - cal_base) < 0.005, (cal_pert, cal_base)
    assert abs(val_pert - val_base) < 0.005, (val_pert, val_base)


# --- calibration-set truncation -----------------------------------------------


def test_truncated_calibration_keeps_sigma_within_5_percent(study_base,
                                                            study_truncated):
    base, _, _ = study_base
    truncated, _, _ = study_truncated
    assert len(truncated.calibration) == 37
    rel = np.abs(truncated.best.sigma - base.best.sigma) / base.best.sigma
    assert rel.max() < 0.05, rel


def test_truncated_calibration_keeps_validation_within_half_point(
        study_base, study_truncated):
    _, _, val_base = study_base
    _, _, val_truncated = study_truncated
    assert abs(val_truncated - val_base) < 0.005, (val_truncated, val_base)


# --- numerical cross-checks ---------------------------------------------------


def test_membrane_rest_state_is_a_fixed_point():
    u, w = rest_state(1)
    assert ionic_currents(u[0], w[0]) == (0.0, 0.0, 0.0)
    s_inf = 0.5 * (1.0 + np.tanh(2.0994 * (0.0 - 0.9087)))
    rates = gating_rhs(0.0, np.array([1.0, 1.0, s_inf]))
    assert np.max(np.abs(rates)) <= 1e-12


def test_tissue_solver_reproduces_single_cell_dynamics():
    mesh = build_slab_mesh((0.1, 0.1, 0.05), 0.05)
    params = SolverParams(stimulus_radius=10.0, dt=0.025, t_end=150.0,
                          stop_when_activated=False)
    times = [round(10.0 * k, 10) for k in range(1, 15)]
    output = simulate(mesh, None, params,
                      single_plan((0.0, 0.0, 0.0)),
                      snapshot_times=times)
    rate = params.stimulus_amplitude * 1e-3 / (params.chi * params.c_m)
    trace = run_single_cell(stim_rate=rate,
                            stim_duration=params.stimulus_duration,
                            dt=params.dt, t_end=params.t_end)
    worst = max(np.max(np.abs(u - trace.u[int(round(t / params.dt))]))
                for t, u in output.snapshots.items())
    assert worst <= 1e-10, worst


def test_iterative_solver_matches_dense_solution():
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.normal(size=(50, 50)))
    matrix = (basis * rng.uniform(1.0, 10.0, size=50)) @ basis.T
    rhs = rng.normal(size=50)
    exact = np.linalg.solve(matrix, rhs)
    report = gmres_solve(matrix, rhs, rel_tol=1e-12)
    assert np.linalg.norm(rhs - matrix @ report.x) <= \
        1e-12 * np.linalg.norm(rhs)
    assert np.linalg.norm(report.x - exact) <= 1e-10 * np.linalg.norm(exact)


def test_reference_element_integrals_are_exact(unit_cube):
    plan = AssemblyPlan(unit_cube)
    assert np.allclose(plan.lumped_mass, 0.125, rtol=1e-14)
    stiffness = plan.stiffness(np.eye(3))
    assert np.allclose(stiffness.diagonal(), 1.0 / 3.0, rtol=1e-13)


def test_error_statistics_match_brute_force():
    rng = np.random.default_rng(4)
    measured = rng.uniform(50.0, 150.0, 30)
    computed = measured + rng.normal(0.0, 5.0, 30)
    computed[[3, 11, 17]] = np.nan
    report = error_stats(computed, measured)
    keep = [i for i in range(30) if np.isfinite(computed[i])]
    tau_max = max(measured[i] for i in keep)
    rel = [abs(computed[i] - measured[i]) / tau_max for i in keep]
    assert report.n_used == 27
    assert abs(report.mean_rel - sum(rel) / len(rel)) <= 1e-12
    variance = sum((r - sum(rel) / len(rel)) ** 2 for r in rel) / len(rel)
    assert abs(report.std_rel - np.sqrt(variance)) <= 1e-12


# --- stability at the working time step ---------------------------------------


def test_no_divergence_at_working_time_step_on_either_grid(point_maps):
    for label in ("coarse", "fine"):
        _, output = point_maps[label]
        assert output.n_not_activated == 0, label
        assert np.isfinite(output.activation).all(), label
        assert np.nanmax(output.peak_u) < 3.0, label


@pytest.mark.xfail(strict=True, reason=(
    "halving dt from 0.025 to 0.0125 ms shifts activation times by up to "
    "0.95 ms on the h = 0.035 cm slab: the splitting error changes the "
    "front speed by about 1.5 percent, so arrival shifts grow with travel "
    "time and stay under one step only next to the source"))
def test_halving_time_step_keeps_activation_within_one_step(
        point_maps, point_map_halved_dt):
    coarse_mesh, coarse = point_maps["coarse"]
    _, halved = point_map_halved_dt
    shift = np.abs(coarse.activation - halved.activation)
    assert shift.max() < 0.025, shift.max()
