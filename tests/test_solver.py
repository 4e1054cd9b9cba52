"""Tissue-level propagation: tensors, stimulus and the time stepper."""

from __future__ import annotations

import json
import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest

from monocal import _hex, cli, fem, vtkio
from monocal.errors import InvalidArgumentError, MonocalError
from monocal.fibers import FiberField
from monocal.geometry import build_slab_mesh
from monocal.ionic import rest_state
from monocal.solver import (ACTIVATION_PEAK_FLOOR, PROGRESS_EVERY,
                            MonodomainSolver, SolverParams,
                            StimulusPlan, _StimulusSets,
                            build_conductivity_tensors, simulate)

from oracles import (conductivity_tensors, face_plan, measure_planar_cv,
                     run_single_cell, single_plan)

# face-stimulus launcher that reliably ignites planar waves at the
# resolutions used below: two node planes, twice the default strength
LAUNCHER = dict(stimulus_radius=0.04, stimulus_amplitude=225000.0)


def _random_frames(n, seed=0):
    rng = np.random.default_rng(seed)
    f = np.empty((n, 3))
    s = np.empty((n, 3))
    normal = np.empty((n, 3))
    for i in range(n):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        f[i], s[i], normal[i] = q.T * np.sign(np.linalg.det(q))
    return FiberField(f=f, s=s, n=normal,
                      singular=np.zeros(n, dtype=bool))


class TestConductivityTensors:
    def test_equal_conductivities_are_isotropic(self, small_slab):
        field = _random_frames(small_slab.n_nodes)
        tensors = build_conductivity_tensors(small_slab, field,
                                             (0.5, 0.5, 0.5))
        assert tensors.shape == (small_slab.n_elems, 3, 3)
        assert np.allclose(tensors, 0.5 * np.eye(3), atol=1e-12)

    def test_axis_aligned_frame_gives_diagonal_tensor(self, small_slab):
        field = FiberField.uniform(small_slab.n_nodes)
        tensors = build_conductivity_tensors(small_slab, field,
                                             (1.23, 0.25, 0.07))
        assert np.allclose(tensors, np.diag((1.23, 0.25, 0.07)), atol=1e-14)

    def test_eigenvalues_are_exactly_the_conductivities(self, small_slab):
        field = _random_frames(small_slab.n_nodes, seed=4)
        tensors = build_conductivity_tensors(small_slab, field,
                                             (1.23, 0.25, 0.07))
        eigenvalues = np.sort(np.linalg.eigvalsh(tensors), axis=1)
        assert np.allclose(eigenvalues, (0.07, 0.25, 1.23), atol=1e-12)

    def test_blocked_tensors_equal_the_whole_mesh_formula(self, twin_star):
        mesh = twin_star.mesh
        assert mesh.n_elems % _hex.BLOCK != 0
        for field in (twin_star.fiber_field, _random_frames(mesh.n_nodes)):
            got = build_conductivity_tensors(mesh, field, (1.23, 0.25, 0.07))
            want = conductivity_tensors(mesh, field, (1.23, 0.25, 0.07))
            assert np.array_equal(got, want)

    def test_degenerate_normal_names_its_element(self, twin_star):
        # element BLOCK + 3, the fourth of the second block, gets frames
        # (f, n) = (e1, e3) at four corners and (e3, e1) at the other
        # four: its averaged f and n are both along e1 + e3. Every other
        # node keeps (e2, e3), so no other element degenerates
        mesh = twin_star.mesh
        bad = _hex.BLOCK + 3
        e1, e2, e3 = np.eye(3)
        f = np.tile(e2, (mesh.n_nodes, 1))
        s = np.tile(e1, (mesh.n_nodes, 1))
        n = np.tile(e3, (mesh.n_nodes, 1))
        lower, upper = mesh.elems[bad, :4], mesh.elems[bad, 4:]
        f[lower], s[lower], n[lower] = e1, e2, e3
        f[upper], s[upper], n[upper] = e3, e2, e1
        field = FiberField(f=f, s=s, n=n,
                           singular=np.zeros(mesh.n_nodes, dtype=bool))
        with pytest.raises(InvalidArgumentError,
                           match=f"degenerate within element {bad}$"):
            build_conductivity_tensors(mesh, field, (1.23, 0.25, 0.07))
        with pytest.raises(InvalidArgumentError,
                           match=f"degenerate within element {bad}$"):
            conductivity_tensors(mesh, field, (1.23, 0.25, 0.07))

    # the tensors take an orthonormal frame and positive conductivities
    # as given: FiberField and SolverParams check them when they are made

    def test_non_unit_fiber_axis_is_rejected(self, small_slab):
        frame = FiberField.uniform(small_slab.n_nodes)
        f = frame.f.copy()
        f[:] = (2.0, 0.0, 0.0)
        with pytest.raises(InvalidArgumentError, match="unit"):
            FiberField(f=f, s=frame.s, n=frame.n, singular=frame.singular)

    def test_fiber_not_orthogonal_to_the_normal_is_rejected(self, small_slab):
        frame = FiberField.uniform(small_slab.n_nodes)
        f = frame.f.copy()
        f[3] = (np.sqrt(0.5), 0.0, np.sqrt(0.5))  # unit, f . s = 0, f . n != 0
        with pytest.raises(InvalidArgumentError, match="orthogonal"):
            FiberField(f=f, s=frame.s, n=frame.n, singular=frame.singular)

    def test_nonpositive_sigma_is_rejected(self):
        for sigma in ((1.0, -0.5, 0.1), (np.nan, 0.5, 0.1), (1.0, 0.5, np.inf)):
            with pytest.raises(InvalidArgumentError, match="positive"):
                SolverParams(sigma=sigma)

    def test_inverted_ordering_warns(self):
        with pytest.warns(UserWarning, match="ordering"):
            SolverParams(sigma=(0.1, 0.2, 0.3))


class TestApplyStimulus:
    def test_silent_before_onset_and_after_offset(self, small_slab):
        params = SolverParams()
        plan = single_plan((0.0, 0.0, 0.0), onset=10.0)
        stim = _StimulusSets(small_slab, plan, params)
        assert np.all(stim.current(9.99) == 0.0)
        assert stim.current(10.0).max() == params.stimulus_amplitude
        after = stim.current(10.0 + params.stimulus_duration + 1e-9)
        assert np.all(after == 0.0)

    def test_ball_membership(self, small_slab):
        params = SolverParams(stimulus_radius=0.06)
        plan = single_plan((0.0, 0.0, 0.0))
        rate = _StimulusSets(small_slab, plan, params).current(0.0)
        dist = np.linalg.norm(small_slab.nodes, axis=1)
        assert np.all(rate[dist <= 0.06] == params.stimulus_amplitude)
        assert np.all(rate[dist > 0.06] == 0.0)

    def test_subgrid_radius_hits_only_the_nearest_node(self, small_slab):
        params = SolverParams(stimulus_radius=0.01)
        plan = single_plan((0.05, 0.05, 0.0))
        rate = _StimulusSets(small_slab, plan, params).current(0.0)
        assert np.count_nonzero(rate) == 1

    def test_distant_stimulus_point_warns(self, small_slab):
        plan = single_plan((5.0, 5.0, 5.0))
        with pytest.warns(UserWarning, match="stimulus point"):
            _StimulusSets(small_slab, plan, SolverParams())

    @pytest.mark.parametrize("onsets", [(1.0, 1.0), (1.0, 3.0)],
                             ids=["shared_onset", "different_onsets"])
    def test_overlapping_balls_give_the_union_of_the_active_sites(
            self, small_slab, onsets):
        params = SolverParams(stimulus_radius=0.06)
        points = np.array([(0.05, 0.0, 0.0), (0.1, 0.05, 0.0)])
        stim = _StimulusSets(small_slab, StimulusPlan(points=points,
                                                      onsets=onsets), params)
        balls = [np.linalg.norm(small_slab.nodes - p, axis=1) <= 0.06
                 for p in points]
        assert (balls[0] & balls[1]).sum() == 2
        end = params.stimulus_duration
        for t in (0.5, 1.0, 2.0, 3.0, 5.5, 6.0, 7.5, 8.0):
            on = np.zeros(small_slab.n_nodes, dtype=bool)
            for ball, onset in zip(balls, onsets):
                if onset <= t < onset + end:
                    on |= ball
            np.testing.assert_array_equal(
                stim.current(t),
                np.where(on, params.stimulus_amplitude, 0.0))

    def test_plan_without_a_site_is_rejected(self):
        with pytest.raises(InvalidArgumentError,
                           match="at least one stimulus site"):
            StimulusPlan(points=np.zeros((0, 3)), onsets=np.zeros(0))

    def test_cli_plan_without_a_site_is_rejected(self, small_slab, tmp_path,
                                                 capsys):
        vtkio.write_mesh(tmp_path / "mesh.vtk", small_slab)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "mesh": str(tmp_path / "mesh.vtk"), "stimulus_points": [],
            "stimulus_onsets": [], "out": str(tmp_path / "sim")}))
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--config", str(config)])
        assert err.value.code == 1
        message = capsys.readouterr().err
        assert message.startswith("error:")
        assert "at least one stimulus site" in message
        assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("name,value", [
    ("dt", np.nan), ("t_end", np.nan), ("t_end", np.inf), ("chi", np.nan),
    ("c_m", np.inf), ("stimulus_amplitude", np.nan),
    ("stimulus_amplitude", np.inf), ("stimulus_radius", np.nan),
    ("stimulus_duration", np.inf), ("sigma", (np.nan, 0.3, 0.1)),
    ("sigma", (1.3, np.inf, 0.1)), ("t_end", 1e308),
])
def test_non_finite_parameter_is_rejected(name, value):
    with pytest.raises(InvalidArgumentError, match="finite"):
        SolverParams(**{name: value})


class TestSimulate:
    def test_resting_tissue_stays_at_rest(self, small_slab):
        params = SolverParams(stimulus_amplitude=0.0, t_end=2.5)
        out = simulate(small_slab, None, params,
                       single_plan((0.0, 0.0, 0.0)),
                       snapshot_times=[params.t_end])
        assert np.max(np.abs(out.snapshots[params.t_end])) <= 1e-9
        assert np.all(np.isnan(out.activation))
        assert out.n_not_activated == small_slab.n_nodes

    def test_uniform_state_matches_the_single_cell_model(self):
        # a whole-domain stimulus keeps the state spatially uniform, so
        # the diffusion term vanishes and every node must reproduce the
        # plain membrane-model trajectory
        mesh = build_slab_mesh((0.1, 0.1, 0.05), 0.05)
        params = SolverParams(stimulus_radius=10.0, dt=0.025, t_end=150.0,
                              stop_when_activated=False)
        times = [round(2.5 * k, 10) for k in range(1, 60)]
        out = simulate(mesh, None, params,
                       single_plan((0.0, 0.0, 0.0)),
                       snapshot_times=times)
        rate = params.stimulus_amplitude * 1e-3 / (params.chi * params.c_m)
        trace = run_single_cell(stim_rate=rate,
                                stim_duration=params.stimulus_duration,
                                dt=params.dt, t_end=params.t_end)
        for t, u in out.snapshots.items():
            expected = trace.u[int(round(t / params.dt))]
            assert np.max(np.abs(u - expected)) <= 1e-10

    def test_early_stop_waits_for_the_last_snapshot(self):
        # a whole-domain stimulus activates every node within 5 ms, long
        # before the later snapshots fall due
        mesh = build_slab_mesh((0.1, 0.1, 0.05), 0.05)
        params = SolverParams(stimulus_radius=10.0, t_end=150.0,
                              stop_when_activated=True)
        out = simulate(mesh, None, params,
                       single_plan((0.0, 0.0, 0.0)),
                       snapshot_times=[2.5, 100.0, 140.0])
        assert sorted(out.snapshots) == [2.5, 100.0, 140.0]
        assert 5600 <= out.n_steps < 6000

    def test_snapshot_times_on_one_step_are_all_kept(self, small_slab):
        # at dt = 0.025 ms each pair rounds to one step: 0 (the initial
        # state), 40 (in the quiet lead-in before the 1.5 ms onset) and
        # 80 (a stepped solve)
        times = [0.0, 0.01, 1.0, 1.01, 2.0, 2.01]
        out = simulate(small_slab, None, SolverParams(t_end=2.5),
                       single_plan((0.0, 0.0, 0.0), onset=1.5),
                       snapshot_times=times)
        assert sorted(out.snapshots) == times
        for a, b in zip(times[::2], times[1::2]):
            assert np.array_equal(out.snapshots[a], out.snapshots[b])
        assert not np.array_equal(out.snapshots[1.0], out.snapshots[2.0])

    def test_system_returns_the_diagonal_it_writes(self, small_slab,
                                                   monkeypatch):
        # step hands the solve the diagonal it wrote into the matrix;
        # potentials spread over the upstroke vary the reaction term
        solver = MonodomainSolver(small_slab, None, SolverParams())
        n = small_slab.n_nodes
        u = np.random.default_rng(3).uniform(0.0, 1.5, n)
        handed, original = [], fem.gmres_solve

        def solve(A, b, **kwargs):
            handed.append(kwargs["diag"])
            return original(A, b, **kwargs)

        monkeypatch.setattr(fem, "gmres_solve", solve)
        solver.step(u, rest_state(n)[1], np.zeros(n), u)
        assert len(handed) == 1
        assert np.array_equal(handed[0], solver.matrix.diagonal())

    def test_early_stop_does_not_change_activation_times(self):
        bar = build_slab_mesh((0.35, 0.07, 0.035), 0.035)
        plan = face_plan(bar, axis=0, side="min")
        runs = {}
        for stop in (False, True):
            params = SolverParams(sigma=(0.5, 0.5, 0.5), t_end=40.0,
                                  stop_when_activated=stop, **LAUNCHER)
            runs[stop] = simulate(bar, None, params, plan)
        assert runs[True].n_not_activated == 0
        assert np.allclose(runs[True].activation, runs[False].activation,
                           atol=1e-12)

    def test_divergence_is_reported_with_step_and_time(self, small_slab):
        params = SolverParams(stimulus_amplitude=4e8, stimulus_radius=10.0,
                              t_end=10.0)
        with pytest.raises(MonocalError) as err:
            simulate(small_slab, None, params,
                     single_plan((0.0, 0.0, 0.0)))
        found = re.fullmatch(r"step (\d+) \(t=(\S+) ms\): "
                             "potential magnitude exceeded 5", str(err.value))
        assert found, str(err.value)
        step, time_ms = int(found[1]), float(found[2])
        assert step >= 1
        assert time_ms == pytest.approx(step * params.dt, rel=1e-3)

    def test_onset_beyond_end_is_rejected(self, small_slab):
        params = SolverParams(t_end=10.0)
        plan = single_plan((0.0, 0.0, 0.0), onset=20.0)
        with pytest.raises(InvalidArgumentError, match="onset"):
            simulate(small_slab, None, params, plan)

    @pytest.mark.parametrize("when", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_snapshot_time_is_rejected(self, small_slab, when):
        with pytest.raises(InvalidArgumentError, match="snapshot time"):
            simulate(small_slab, None, SolverParams(t_end=1.0),
                     single_plan((0.0, 0.0, 0.0)),
                     snapshot_times=[when])

    def test_halving_dt_reduces_the_step_error(self):
        mesh = build_slab_mesh((0.1, 0.1, 0.05), 0.05)
        u0 = np.full(mesh.n_nodes, 0.4)
        w0 = np.tile((0.8, 0.9, 0.2), (mesh.n_nodes, 1))
        plan = single_plan((0.0, 0.0, 0.0))

        def final(dt):
            params = SolverParams(dt=dt, t_end=0.1, stimulus_amplitude=0.0)
            solver = MonodomainSolver(mesh, None, params)
            return _stepped(solver, plan, (u0, w0)).final_u

        reference = final(0.003125)
        errors = [np.max(np.abs(final(dt) - reference))
                  for dt in (0.05, 0.025, 0.0125)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] > 1.8
        assert errors[1] / errors[2] > 1.8


def _stepped(solver, plan, initial_state=None, snapshot_times=(),
             extrapolate=True):
    """Oracle for MonodomainSolver.simulate without early stop: the same
    bookkeeping around one MonodomainSolver.step call for every step,
    each solve started from 2 u^n - u^(n-1) (u^n on the first step, or
    always when extrapolate is False). The run starts from initial_state,
    or from rest, where simulate always starts, when that is None."""
    p = solver.params
    stim = _StimulusSets(solver.mesh, plan, p)
    n = solver.mesh.n_nodes
    if initial_state is None:
        u, w = rest_state(n)
    else:
        u, w = (np.array(a, dtype=float) for a in initial_state)
    snap_steps = {int(round(t / p.dt)): t for t in snapshot_times}
    snapshots = {snap_steps[0]: u.copy()} if 0 in snap_steps else {}
    activation = np.full(n, np.nan)
    best_rate = np.full(n, -1.0)
    peak = u.copy()
    u_prev = None
    iterations = 0
    for k in range(1, int(round(p.t_end / p.dt)) + 1):
        t = k * p.dt
        x0 = u if u_prev is None or not extrapolate else 2.0 * u - u_prev
        u_new, w, report = solver.step(
            u, w, stim.current(t) * solver.rate_scale, x0)
        iterations += report.iterations
        rate = np.abs(u_new - u) / p.dt
        faster = rate > best_rate
        best_rate[faster] = rate[faster]
        activation[faster] = t
        np.maximum(peak, u_new, out=peak)
        u_prev, u = u, u_new
        if k in snap_steps:
            snapshots[snap_steps[k]] = u.copy()
    activation[peak < ACTIVATION_PEAK_FLOOR] = np.nan
    return SimpleNamespace(activation=activation, peak_u=peak, final_u=u,
                           snapshots=snapshots, iterations=iterations)


def _assert_same_run(out, oracle, t_end):
    """The same map, peaks, final state (a snapshot at t_end) and
    snapshots."""
    assert np.array_equal(out.activation, oracle.activation, equal_nan=True)
    assert np.array_equal(out.peak_u, oracle.peak_u)
    assert np.array_equal(out.snapshots[t_end], oracle.final_u)
    assert out.snapshots.keys() == oracle.snapshots.keys()
    for t, u in oracle.snapshots.items():
        assert np.array_equal(out.snapshots[t], u)


class TestTimeLoop:
    """The quiet lead-in's one-row gate steps and the extrapolated CG
    start, each against stepping every node (`_stepped`)."""

    @staticmethod
    def _bar_solver(t_end=20.0):
        bar = build_slab_mesh((0.35, 0.07, 0.035), 0.035)
        params = SolverParams(sigma=(0.5, 0.5, 0.5), t_end=t_end,
                              stop_when_activated=False, **LAUNCHER)
        return MonodomainSolver(bar, None, params)

    def test_quiet_lead_in_matches_stepping_every_step(self):
        solver = self._bar_solver()
        plan = face_plan(solver.mesh, axis=0, side="min", onset=2.0)
        times = [0.0, 1.0, 2.0, 6.0, 20.0]
        out = solver.simulate(plan, snapshot_times=times)
        _assert_same_run(out, _stepped(solver, plan, snapshot_times=times),
                         20.0)
        assert out.n_not_activated == 0
        assert np.all(out.snapshots[1.0] == 0.0)
        # steps 2..79 (t < 2 ms) are fast-forwarded, and the count of
        # steps does not change
        assert out.n_steps == 800
        assert out.cg["calls"] == 800 - 78

    @pytest.mark.parametrize("case", ["onset_at_zero", "onset_at_step_two"])
    def test_no_fast_forward_off_the_quiet_state(self, case):
        # a stimulus on at step 1 leaves nothing quiet; one first on at
        # step 2 leaves a quiet step 1 but no step to skip
        solver = self._bar_solver(t_end=10.0)
        onset = 0.0 if case == "onset_at_zero" else 2 * solver.params.dt
        plan = face_plan(solver.mesh, axis=0, side="min", onset=onset)
        times = [1.0, 10.0]
        out = solver.simulate(plan, snapshot_times=times)
        _assert_same_run(out, _stepped(solver, plan, snapshot_times=times),
                         10.0)
        assert out.cg["calls"] == 400

    def test_onset_at_t_end_is_quiet_up_to_the_last_step(self):
        # only step 1 and the last step solve; the last one gets the gate
        # row of the window broadcast over the nodes
        solver = self._bar_solver(t_end=10.0)
        plan = face_plan(solver.mesh, axis=0, side="min", onset=10.0)
        times = [solver.params.dt, 5.0, 10.0]
        out = solver.simulate(plan, snapshot_times=times)
        _assert_same_run(out, _stepped(solver, plan, snapshot_times=times),
                         10.0)
        assert out.cg["calls"] == 2

    def test_quiet_window_logs_its_progress(self, caplog):
        solver = self._bar_solver(t_end=10.0)
        plan = face_plan(solver.mesh, axis=0, side="min", onset=5.0)
        with caplog.at_level(logging.INFO, logger="monocal.solver"):
            solver.simulate(plan)
        steps = [int(r.getMessage().split()[1].split("/")[0])
                 for r in caplog.records if r.getMessage().startswith("step ")]
        assert steps == list(range(PROGRESS_EVERY, 401, PROGRESS_EVERY))
        assert "step 100/400  t=2.500 ms  max u=0.0000  cg iters=0" in [
            r.getMessage() for r in caplog.records]

    def test_extrapolated_start_saves_iterations(self):
        solver = self._bar_solver()
        plan = face_plan(solver.mesh, axis=0, side="min", onset=2.0)
        out = solver.simulate(plan)
        plain = _stepped(solver, plan, extrapolate=False)
        counts = out.cg
        assert counts["iterations"] < plain.iterations
        assert 0 < counts["max_iterations"] <= counts["iterations"]
        assert np.array_equal(out.activation, plain.activation, equal_nan=True)


class TestFrontShape:
    def test_planar_front_is_monotone_along_the_bar(self):
        bar = build_slab_mesh((0.35, 0.07, 0.035), 0.035)
        params = SolverParams(sigma=(0.5, 0.5, 0.5), t_end=40.0,
                              stop_when_activated=True, **LAUNCHER)
        out = simulate(bar, None, params,
                       face_plan(bar, axis=0, side="min"))
        x = np.round(bar.nodes[:, 0], 9)
        planes = np.unique(x)
        means = np.array([out.activation[x == p].mean() for p in planes])
        beyond = planes > 0.04
        assert np.all(np.diff(means[beyond]) > 0.0)

    def test_anisotropic_corner_wave_is_fastest_along_fibers(self):
        slab = build_slab_mesh((0.7, 0.7, 0.3), 0.05)
        params = SolverParams(stimulus_radius=0.15, t_end=120.0,
                              stop_when_activated=True)
        out = simulate(slab, None, params,
                       single_plan((0.0, 0.0, 0.0)))

        def tau(point):
            hits = np.all(np.isclose(slab.nodes, point, atol=1e-9), axis=1)
            return out.activation[np.nonzero(hits)[0][0]]

        along_f = tau((0.25, 0.0, 0.0))
        along_s = tau((0.0, 0.25, 0.0))
        along_n = tau((0.0, 0.0, 0.25))
        assert np.isfinite((along_f, along_s, along_n)).all()
        assert along_f < along_s < along_n


class TestMeasurePlanarCv:
    def _linear_map(self, mesh, speed_cm_per_ms, axis=0):
        return mesh.nodes[:, axis] / speed_cm_per_ms

    def test_synthetic_linear_field_is_exact(self):
        bar = build_slab_mesh((0.7, 0.07, 0.035), 0.035)
        activation = self._linear_map(bar, 0.063)
        cv = measure_planar_cv(bar, activation, axis=0, window=(0.15, 0.55))
        assert np.isclose(cv, 0.63, rtol=1e-12)

    def test_too_few_planes_is_rejected(self):
        bar = build_slab_mesh((0.7, 0.07, 0.035), 0.035)
        activation = self._linear_map(bar, 0.063)
        with pytest.raises(InvalidArgumentError,
                           match="only 2 activated planes in the window"):
            measure_planar_cv(bar, activation, axis=0, window=(0.15, 0.21))

    def test_unactivated_map_is_rejected(self):
        bar = build_slab_mesh((0.7, 0.07, 0.035), 0.035)
        activation = self._linear_map(bar, 0.063)
        activation[:] = np.nan
        with pytest.raises(InvalidArgumentError,
                           match="no activated nodes in the measurement window"):
            measure_planar_cv(bar, activation, axis=0)

    def test_quadrupled_conductivity_doubles_the_speed(self):
        # space, mesh size, stimulus radius and conductivity scale
        # together, so the discrete problems map onto each other exactly
        # and the measured ratio isolates the scaling law from
        # resolution effects
        cv = {}
        for scale in (1.0, 2.0):
            bar = build_slab_mesh((0.7 * scale, 0.07 * scale, 0.035 * scale),
                                  0.035 * scale)
            params = SolverParams(sigma=(0.5 * scale ** 2,) * 3,
                                  stimulus_radius=0.04 * scale,
                                  stimulus_amplitude=225000.0, t_end=40.0,
                                  stop_when_activated=True)
            out = simulate(bar, None, params,
                           face_plan(bar, axis=0, side="min"))
            cv[scale] = measure_planar_cv(
                bar, out.activation, axis=0,
                window=(0.15 * scale, 0.55 * scale))
        assert abs(cv[2.0] / cv[1.0] - 2.0) <= 0.1
