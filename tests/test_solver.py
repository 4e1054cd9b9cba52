"""Tissue-level propagation: tensors, stimulus and the time stepper."""

from __future__ import annotations

import numpy as np
import pytest

from monocal.errors import (InsufficientDataError, InvalidArgumentError,
                            SimulationDivergedError)
from monocal.fibers import FiberField
from monocal.geometry import build_slab_mesh
from monocal.ionic import run_single_cell
from monocal.solver import (MonodomainSolver, SimulationOutput, SolverParams,
                            StimulusPlan, _StimulusSets,
                            build_conductivity_tensors, measure_planar_cv,
                            simulate)

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
        with pytest.raises(InvalidArgumentError, match="positive"):
            build_conductivity_tensors(small_slab, field, (1.0, -0.5, 0.1))

    def test_inverted_ordering_warns(self):
        with pytest.warns(UserWarning, match="ordering"):
            SolverParams(sigma=(0.1, 0.2, 0.3))


class TestApplyStimulus:
    def test_silent_before_onset_and_after_offset(self, small_slab):
        params = SolverParams()
        plan = StimulusPlan.single((0.0, 0.0, 0.0), onset=10.0)
        stim = _StimulusSets(small_slab, plan, params)
        assert np.all(stim.current(9.99) == 0.0)
        assert stim.current(10.0).max() == params.stimulus_amplitude
        after = stim.current(10.0 + params.stimulus_duration + 1e-9)
        assert np.all(after == 0.0)

    def test_ball_membership(self, small_slab):
        params = SolverParams(stimulus_radius=0.06)
        plan = StimulusPlan.single((0.0, 0.0, 0.0))
        rate = _StimulusSets(small_slab, plan, params).current(0.0)
        dist = np.linalg.norm(small_slab.nodes, axis=1)
        assert np.all(rate[dist <= 0.06] == params.stimulus_amplitude)
        assert np.all(rate[dist > 0.06] == 0.0)

    def test_subgrid_radius_hits_only_the_nearest_node(self, small_slab):
        params = SolverParams(stimulus_radius=0.01)
        plan = StimulusPlan.single((0.05, 0.05, 0.0))
        rate = _StimulusSets(small_slab, plan, params).current(0.0)
        assert np.count_nonzero(rate) == 1

    def test_distant_stimulus_point_warns(self, small_slab):
        plan = StimulusPlan.single((5.0, 5.0, 5.0))
        with pytest.warns(UserWarning, match="stimulus point"):
            _StimulusSets(small_slab, plan, SolverParams())


class TestSimulate:
    def test_resting_tissue_stays_at_rest(self, small_slab):
        params = SolverParams(stimulus_amplitude=0.0, t_end=2.5)
        out = simulate(small_slab, None, params,
                       StimulusPlan.single((0.0, 0.0, 0.0)))
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
                       StimulusPlan.single((0.0, 0.0, 0.0)),
                       snapshot_times=times)
        rate = params.stimulus_amplitude * 1e-3 / (params.chi * params.c_m)
        trace = run_single_cell(stim_rate=rate,
                                stim_duration=params.stimulus_duration,
                                dt=params.dt, t_end=params.t_end)
        for t, u in out.snapshots.items():
            expected = trace.u[int(round(t / params.dt))]
            assert np.max(np.abs(u - expected)) <= 1e-10

    def test_system_returns_the_diagonal_it_writes(self, small_slab):
        solver = MonodomainSolver(small_slab, None, SolverParams())
        n = small_slab.n_nodes
        alpha = np.random.default_rng(3).uniform(0.0, 5.0, n)
        _, diag = solver._system(np.zeros(n), alpha, np.zeros(n),
                                 np.zeros(n))
        assert np.array_equal(diag, solver.matrix.diagonal())

    def test_early_stop_does_not_change_activation_times(self):
        bar = build_slab_mesh((0.35, 0.07, 0.035), 0.035)
        plan = StimulusPlan.face(bar, axis=0, side="min")
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
                     StimulusPlan.single((0.0, 0.0, 0.0)))
        assert err.value.step >= 1
        assert err.value.time_ms > 0.0

    def test_onset_beyond_end_is_rejected(self, small_slab):
        params = SolverParams(t_end=10.0)
        plan = StimulusPlan.single((0.0, 0.0, 0.0), onset=20.0)
        with pytest.raises(InvalidArgumentError, match="onset"):
            simulate(small_slab, None, params, plan)

    def test_manifest_documents_the_run(self, small_slab):
        params = SolverParams(t_end=2.0)
        plan = StimulusPlan.single((0.0, 0.0, 0.0))
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
        plan = StimulusPlan.single((0.0, 0.0, 0.0))

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


class TestFrontShape:
    def test_planar_front_is_monotone_along_the_bar(self):
        bar = build_slab_mesh((0.35, 0.07, 0.035), 0.035)
        params = SolverParams(sigma=(0.5, 0.5, 0.5), t_end=40.0,
                              stop_when_activated=True, **LAUNCHER)
        out = simulate(bar, None, params,
                       StimulusPlan.face(bar, axis=0, side="min"))
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
                       StimulusPlan.single((0.0, 0.0, 0.0)))

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
                           StimulusPlan.face(bar, axis=0, side="min"))
            cv[scale] = measure_planar_cv(
                out, axis=0, window=(0.15 * scale, 0.55 * scale))
        assert abs(cv[2.0] / cv[1.0] - 2.0) <= 0.1
