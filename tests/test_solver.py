"""Tissue-level propagation: tensors, stimulus and the time stepper."""

from __future__ import annotations

import dataclasses
import logging
from types import SimpleNamespace

import numpy as np
import pytest

from monocal.errors import (InsufficientDataError, InvalidArgumentError,
                            SimulationDivergedError)
from monocal.fibers import FiberField
from monocal.geometry import build_slab_mesh
from monocal.ionic import rest_state
from monocal.solver import (ACTIVATION_PEAK_FLOOR, PROGRESS_EVERY,
                            MonodomainSolver, SimulationOutput, SolverParams,
                            _StimulusSets, build_conductivity_tensors,
                            simulate)

from oracles import face_plan, measure_planar_cv, run_single_cell, single_plan

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

    def test_non_unit_fiber_axis_is_rejected(self, small_slab):
        field = FiberField.uniform(small_slab.n_nodes)
        field.f[:] = (2.0, 0.0, 0.0)
        with pytest.raises(InvalidArgumentError, match="unit"):
            build_conductivity_tensors(small_slab, field, (1.0, 0.5, 0.1))

    def test_nonpositive_sigma_is_rejected(self, small_slab):
        field = FiberField.uniform(small_slab.n_nodes)
        for sigma in ((1.0, -0.5, 0.1), (np.nan, 0.5, 0.1), (1.0, 0.5, np.inf)):
            with pytest.raises(InvalidArgumentError, match="positive"):
                build_conductivity_tensors(small_slab, field, sigma)

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

    @pytest.mark.filterwarnings("error")
    def test_off_node_point_on_a_mesh_without_size_is_rejected(self, small_slab):
        # a mesh read from a title without h= has characteristic_size 0
        sizeless = dataclasses.replace(small_slab, characteristic_size=0.0)
        on_node = single_plan(small_slab.nodes[7])
        assert _StimulusSets(sizeless, on_node, SolverParams()).groups
        with pytest.raises(InvalidArgumentError, match="mesh has no size"):
            _StimulusSets(sizeless, single_plan((0.013, 0.02, 0.0)),
                          SolverParams())


@pytest.mark.parametrize("name,value", [
    ("dt", np.nan), ("t_end", np.nan), ("t_end", np.inf), ("chi", np.nan),
    ("c_m", np.inf), ("stimulus_amplitude", np.nan),
    ("stimulus_amplitude", np.inf), ("stimulus_radius", np.nan),
    ("stimulus_duration", np.inf), ("sigma", (np.nan, 0.3, 0.1)),
    ("sigma", (1.3, np.inf, 0.1)),
])
def test_non_finite_parameter_is_rejected(name, value):
    with pytest.raises(InvalidArgumentError, match="finite"):
        SolverParams(**{name: value})


class TestSimulate:
    def test_resting_tissue_stays_at_rest(self, small_slab):
        params = SolverParams(stimulus_amplitude=0.0, t_end=2.5)
        out = simulate(small_slab, None, params,
                       single_plan((0.0, 0.0, 0.0)))
        assert np.max(np.abs(out.final_u)) <= 1e-9
        assert np.all(np.isnan(out.activation))
        assert not out.activated.any()
        assert out.n_not_activated == small_slab.n_nodes

    def test_uniform_state_matches_the_single_cell_model(self):
        # a whole-domain stimulus keeps the state spatially uniform, so
        # the diffusion term vanishes and every node must reproduce the
        # plain membrane-model trajectory
        mesh = build_slab_mesh((0.1, 0.1, 0.05), 0.05)
        params = SolverParams(stimulus_radius=10.0, dt=0.025, t_end=150.0)
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
        assert 5600 <= out.manifest["n_steps"] < 6000

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

    def test_system_returns_the_diagonal_it_writes(self, small_slab):
        solver = MonodomainSolver(small_slab, None, SolverParams())
        n = small_slab.n_nodes
        alpha = np.random.default_rng(3).uniform(0.0, 5.0, n)
        _, diag = solver._system(np.zeros(n), alpha, np.zeros(n),
                                 np.zeros(n))
        assert np.array_equal(diag, solver.matrix.diagonal())

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
        with pytest.raises(SimulationDivergedError) as err:
            simulate(small_slab, None, params,
                     single_plan((0.0, 0.0, 0.0)))
        assert err.value.step >= 1
        assert err.value.time_ms > 0.0

    def test_onset_beyond_end_is_rejected(self, small_slab):
        params = SolverParams(t_end=10.0)
        plan = single_plan((0.0, 0.0, 0.0), onset=20.0)
        with pytest.raises(InvalidArgumentError, match="onset"):
            simulate(small_slab, None, params, plan)

    @pytest.mark.parametrize("when", [np.nan, np.inf, -np.inf])
    def test_non_finite_snapshot_time_is_rejected(self, small_slab, when):
        with pytest.raises(InvalidArgumentError, match="snapshot time"):
            simulate(small_slab, None, SolverParams(t_end=1.0),
                     single_plan((0.0, 0.0, 0.0)),
                     snapshot_times=[when])

    @pytest.mark.parametrize("which,bad,message", [
        ("u", "short", r"initial_state u must have shape"),
        ("w", "two gates", r"initial_state w must have shape"),
        ("u", np.nan, r"initial_state u must be finite .*node 7"),
        ("u", np.inf, r"initial_state u must be finite .*node 7"),
        ("w", np.nan, r"initial_state w must be finite .*node 7"),
        ("w", -np.inf, r"initial_state w must be finite .*node 7"),
    ])
    def test_bad_initial_state_is_rejected(self, small_slab, which, bad,
                                           message):
        u, w = rest_state(small_slab.n_nodes)
        if bad == "short":
            u = u[:-1]
        elif bad == "two gates":
            w = w[:, :2]
        else:
            (u if which == "u" else w)[7] = bad
        with pytest.raises(InvalidArgumentError, match=message):
            simulate(small_slab, None, SolverParams(t_end=1.0),
                     single_plan((0.0, 0.0, 0.0)),
                     initial_state=(u, w))

    def test_manifest_documents_the_run(self, small_slab):
        params = SolverParams(t_end=2.0)
        plan = single_plan((0.0, 0.0, 0.0))
        out = simulate(small_slab, None, params, plan)
        manifest = out.manifest
        assert manifest["mesh_hash"] == small_slab.content_hash()
        assert manifest["params"]["sigma"] == list(params.sigma)
        assert manifest["stimulus_sites"] == 1
        assert manifest["n_steps"] == 80

    def test_halving_dt_reduces_the_step_error(self):
        mesh = build_slab_mesh((0.1, 0.1, 0.05), 0.05)
        u0 = np.full(mesh.n_nodes, 0.4)
        w0 = np.tile((0.8, 0.9, 0.2), (mesh.n_nodes, 1))
        plan = single_plan((0.0, 0.0, 0.0))

        def final(dt):
            params = SolverParams(dt=dt, t_end=0.1, stimulus_amplitude=0.0)
            out = simulate(mesh, None, params, plan,
                           initial_state=(u0, w0))
            return out.final_u

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
    always when extrapolate is False)."""
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


def _assert_same_run(out, oracle):
    assert np.array_equal(out.activation, oracle.activation, equal_nan=True)
    assert np.array_equal(out.peak_u, oracle.peak_u)
    assert np.array_equal(out.final_u, oracle.final_u)
    assert out.snapshots.keys() == oracle.snapshots.keys()
    for t, u in oracle.snapshots.items():
        assert np.array_equal(out.snapshots[t], u)


class TestTimeLoop:
    """The quiet lead-in fast-forward and the extrapolated CG start."""

    @staticmethod
    def _bar_solver(t_end=20.0):
        bar = build_slab_mesh((0.35, 0.07, 0.035), 0.035)
        params = SolverParams(sigma=(0.5, 0.5, 0.5), t_end=t_end, **LAUNCHER)
        return MonodomainSolver(bar, None, params)

    @pytest.mark.parametrize("rest", ["default", "given"])
    def test_quiet_lead_in_matches_stepping_every_step(self, rest):
        solver = self._bar_solver()
        plan = face_plan(solver.mesh, axis=0, side="min", onset=2.0)
        n = solver.mesh.n_nodes
        state = None if rest == "default" else rest_state(n)
        times = [0.0, 1.0, 2.0, 6.0]
        out = solver.simulate(plan, initial_state=state, snapshot_times=times)
        _assert_same_run(out, _stepped(solver, plan, state, times))
        assert out.n_not_activated == 0
        assert np.all(out.snapshots[1.0] == 0.0)
        # steps 2..79 (t < 2 ms) are fast-forwarded, and the count of
        # steps does not change
        assert out.manifest["n_steps"] == 800
        assert out.manifest["linear_solver"]["calls"] == 800 - 78

    @pytest.mark.parametrize("case", ["gates_vary", "potential_off_rest",
                                      "onset_at_zero"])
    def test_no_fast_forward_off_the_quiet_state(self, case):
        solver = self._bar_solver(t_end=10.0)
        n = solver.mesh.n_nodes
        onset = 0.0 if case == "onset_at_zero" else 2.0
        plan = face_plan(solver.mesh, axis=0, side="min", onset=onset)
        u0, w0 = rest_state(n)
        if case == "gates_vary":
            w0 = w0 * np.random.default_rng(5).uniform(0.9, 1.0, (n, 3))
        elif case == "potential_off_rest":
            u0 = np.full(n, 0.05)
        state = None if case == "onset_at_zero" else (u0, w0)
        out = solver.simulate(plan, initial_state=state, snapshot_times=[1.0])
        _assert_same_run(out, _stepped(solver, plan, state, [1.0]))
        assert out.manifest["linear_solver"]["calls"] == 400

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
        counts = out.manifest["linear_solver"]
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
    def _linear_output(self, mesh, speed_cm_per_ms, axis=0):
        activation = mesh.nodes[:, axis] / speed_cm_per_ms
        n = mesh.n_nodes
        return SimulationOutput(
            activation=activation, activated=np.ones(n, dtype=bool),
            peak_u=np.full(n, 1.5), final_u=np.zeros(n), snapshots={},
            mesh=mesh, manifest={})

    def test_synthetic_linear_field_is_exact(self):
        bar = build_slab_mesh((0.7, 0.07, 0.035), 0.035)
        out = self._linear_output(bar, 0.063)
        cv = measure_planar_cv(out, axis=0, window=(0.15, 0.55))
        assert np.isclose(cv, 0.63, rtol=1e-12)

    def test_too_few_planes_is_rejected(self):
        bar = build_slab_mesh((0.7, 0.07, 0.035), 0.035)
        out = self._linear_output(bar, 0.063)
        with pytest.raises(InsufficientDataError):
            measure_planar_cv(out, axis=0, window=(0.15, 0.21))

    def test_unactivated_map_is_rejected(self):
        bar = build_slab_mesh((0.7, 0.07, 0.035), 0.035)
        out = self._linear_output(bar, 0.063)
        out.activated[:] = False
        with pytest.raises(InsufficientDataError):
            measure_planar_cv(out, axis=0)

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
                out, axis=0, window=(0.15 * scale, 0.55 * scale))
        assert abs(cv[2.0] / cv[1.0] - 2.0) <= 0.1
