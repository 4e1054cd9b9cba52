"""Membrane model: currents, gating and single-cell traces."""

from __future__ import annotations

from dataclasses import astuple
from itertools import product

import numpy as np
import pytest

from monocal import ionic
from monocal.errors import InvalidArgumentError
from monocal.ionic import (PARAMS, GatingParams, IonicParams, gating_rhs,
                           reaction_coefficients, rest_state, step_gating)
from monocal.solver import SolverParams, simulate

from oracles import (CellTrace, blend_gating_rhs, blend_reaction_coefficients,
                     ionic_currents, run_single_cell, single_plan)

S_INF_AT_REST = 0.5 * (1.0 + np.tanh(2.0994 * (0.0 - 0.9087)))


class TestCurrents:
    def test_rest_currents_vanish(self):
        u, w = rest_state(1)
        i_fast, i_out, i_slow = ionic_currents(u[0], w[0])
        assert i_fast == 0.0
        assert i_out == 0.0
        assert i_slow == 0.0

    def test_fast_inward_mid_upstroke(self):
        # hand evaluation with the fast gate open and both thresholds
        # crossed: -(u - 0.3) * (1.58 - u) / tau_fast at u = 0.5
        i_fast, _, _ = ionic_currents(0.5, np.array([1.0, 1.0, 0.0]))
        assert np.isclose(i_fast, -(0.5 - 0.3) * (1.58 - 0.5) / 0.11,
                          rtol=1e-14)

    def test_fast_current_switches_at_threshold(self):
        w = np.array([1.0, 1.0, 0.0])
        below, _, _ = ionic_currents(0.3 - 1e-9, w)
        above, _, _ = ionic_currents(0.3 + 1e-9, w)
        assert below == 0.0
        assert above < 0.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(-0.1, 1.5, 16)
        w = rng.uniform(0.0, 1.0, (16, 3))
        vec = ionic_currents(u, w)
        for i in range(16):
            one = ionic_currents(u[i], w[i])
            for a, b in zip(vec, one):
                assert np.isclose(a[i], b, rtol=1e-14)



class TestReactionSplit:
    def test_split_reproduces_total_current(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.uniform(-0.1, 1.6)
            w = rng.uniform(0.0, 1.0, 3)
            alpha, beta = reaction_coefficients(u, w)
            total = sum(ionic_currents(u, w))
            assert np.isclose(alpha * u + beta, total, atol=1e-13)


class TestGating:
    def test_rest_is_a_fixed_point_of_the_gates(self):
        w = np.array([1.0, 1.0, S_INF_AT_REST])
        rates = gating_rhs(0.0, w)
        assert np.max(np.abs(rates)) <= 1e-12
        stepped = step_gating(0.0, w, 0.025)
        assert np.max(np.abs(stepped - w)) <= 1e-12

    def test_shipped_rest_state_relaxes_only_the_slow_gate(self):
        u, w = rest_state(1)
        dw = gating_rhs(u[0], w[0])
        assert dw[0] == 0.0
        assert dw[1] == 0.0
        assert np.isclose(dw[2], S_INF_AT_REST / GatingParams().tau_s1,
                          rtol=1e-12)

    def test_fast_gate_closes_above_threshold(self):
        dw = gating_rhs(0.5, np.array([1.0, 1.0, 0.5]))
        assert np.isclose(dw[0], -1.0 / GatingParams().tau_v_plus, rtol=1e-12)

    def test_step_is_linear_in_dt(self):
        u, w = 0.4, np.array([0.8, 0.9, 0.2])
        full = step_gating(u, w, 0.05) - w
        half = step_gating(u, w, 0.025) - w
        assert np.allclose(full, 2.0 * half, rtol=1e-14)

    def test_gates_stay_in_range_over_an_action_potential(self):
        trace = run_single_cell(stim_rate=1.0, stim_duration=1.0, t_end=500.0)
        assert trace.w.min() >= 0.0
        assert trace.w.max() <= 1.05

    def test_halved_dt_changes_gates_by_under_one_percent(self):
        coarse = run_single_cell(stim_rate=1.0, stim_duration=1.0,
                                 t_end=400.0, dt=0.025)
        fine = run_single_cell(stim_rate=1.0, stim_duration=1.0,
                               t_end=400.0, dt=0.0125)
        assert np.max(np.abs(coarse.w - fine.w[::2])) < 0.01


# every float of the parameter sets (thresholds, centres, time
# constants) with both its float neighbours, and the signed zeros and
# smallest subnormals
_PARAM_FLOATS = np.array([v for v in (*astuple(PARAMS), *astuple(PARAMS.gating))
                          if isinstance(v, float)])
EDGE_U = np.concatenate([_PARAM_FLOATS, np.nextafter(_PARAM_FLOATS, -np.inf),
                         np.nextafter(_PARAM_FLOATS, np.inf),
                         [0.0, -0.0, 5e-324, -5e-324]])
EDGE_GATES = np.array(list(product((0.0, -0.0, 5e-324, 0.5, 1.0), repeat=3)))


def _recorded_tissue_states(monkeypatch, mesh):
    """Every (u, w) the gating step and every (u, w_next) the reaction
    linearization saw in a short paced run on mesh, quiet lead-in rows
    included."""
    seen = {"gating": [], "reaction": []}

    def recorder(name, fn):
        def call(u, w, *args):
            # the first solve after the lead-in gets one gate row
            seen[name].append((np.array(u),
                               np.broadcast_to(w, np.shape(u) + (3,)).copy()))
            return fn(u, w, *args)
        return call

    monkeypatch.setattr(ionic, "step_gating",
                        recorder("gating", ionic.step_gating))
    monkeypatch.setattr(ionic, "reaction_coefficients",
                        recorder("reaction", ionic.reaction_coefficients))
    simulate(mesh, None, SolverParams(t_end=40.0, stop_when_activated=False),
             single_plan((0.0, 0.0, 0.0), onset=1.0))
    return {name: (np.concatenate([u for u, _ in calls]),
                   np.concatenate([w for _, w in calls]))
            for name, calls in seen.items()}


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSwitchesMatchTheLiteralForm:
    """ionic's np.where switches give the bits of the literal Heaviside
    blends in tests/oracles.py, signed zeros included (in the gating
    rates too, although adding them to w would hide a -0)."""

    DT = 0.025

    def check(self, u, w, what=("gating", "reaction")):
        if "gating" in what:
            _assert_same_bits(gating_rhs(u, w), blend_gating_rhs(u, w))
            _assert_same_bits(step_gating(u, w, self.DT),
                              w + self.DT * blend_gating_rhs(u, w))
        if "reaction" in what:
            for got, want in zip(reaction_coefficients(u, w),
                                 blend_reaction_coefficients(u, w)):
                _assert_same_bits(got, want)

    def test_thresholds_their_neighbours_and_signed_zeros(self):
        u = np.repeat(EDGE_U, len(EDGE_GATES))
        w = np.tile(EDGE_GATES, (len(EDGE_U), 1))
        self.check(u, w)

    def test_random_states(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-0.2, 1.7, 20_000)
        w = rng.uniform(0.0, 1.0, (20_000, 3))
        self.check(u, w)

    def test_the_quiet_lead_in_row(self):
        u, w = rest_state(1)
        for _ in range(3):
            self.check(u, w)
            w = step_gating(u, w, self.DT)

    def test_states_of_a_paced_tissue_run(self, monkeypatch, small_slab):
        seen = _recorded_tissue_states(monkeypatch, small_slab)
        monkeypatch.undo()
        for name, (u, w) in seen.items():
            # the run crosses every switch
            assert u.min() < PARAMS.v_open_threshold
            assert u.max() > PARAMS.v_fast_threshold
            self.check(u, w, what=(name,))


class TestRunSingleCell:
    def test_unstimulated_cell_stays_at_rest(self):
        trace = run_single_cell(stim_rate=0.0, t_end=100.0)
        assert np.max(np.abs(trace.u)) <= 1e-12

    def test_suprathreshold_pulse_fires_and_repolarizes(self):
        trace = run_single_cell(stim_rate=1.0, stim_duration=1.0, t_end=500.0)
        assert trace.peak() > 0.9
        assert abs(trace.u[-1]) < 0.01

    def test_action_potential_duration_is_physiological(self):
        trace = run_single_cell(stim_rate=1.0, stim_duration=1.0, t_end=500.0)
        assert 200.0 < trace.apd(0.9) < 400.0

    def test_paced_beats_are_reproducible(self):
        trace = run_single_cell(stim_rate=1.0, stim_duration=1.0,
                                stim_times=(0.0, 1000.0), t_end=1500.0)
        early = trace.u[trace.t < 800.0].max()
        late = trace.u[trace.t >= 800.0].max()
        assert abs(early - late) / early < 0.02

    def test_activation_shift_under_dt_halving_is_below_dt(self):
        coarse = run_single_cell(stim_rate=1.0, stim_duration=1.0,
                                 t_end=50.0, dt=0.025)
        fine = run_single_cell(stim_rate=1.0, stim_duration=1.0,
                               t_end=50.0, dt=0.0125)
        assert abs(coarse.activation_time() - fine.activation_time()) <= 0.025

    def test_invalid_step_is_rejected(self):
        with pytest.raises(InvalidArgumentError):
            run_single_cell(dt=-1.0)


class TestCellTrace:
    def test_activation_time_of_a_jump(self):
        t = np.arange(0.0, 10.0 + 1e-12, 0.025)
        u = np.where(t > 5.0, 1.0, 0.0)
        trace = CellTrace(t=t, u=u, w=np.zeros((len(t), 3)))
        assert np.isclose(trace.activation_time(), 5.025, atol=1e-12)

    def test_activation_time_of_a_ramp_prefers_first_step(self):
        t = np.arange(0.0, 1.0 + 1e-12, 0.025)
        trace = CellTrace(t=t, u=t.copy(), w=np.zeros((len(t), 3)))
        assert np.isclose(trace.activation_time(), 0.025, atol=1e-12)



class TestManifest:
    def test_manifest_names_the_form_and_units(self):
        manifest = IonicParams().manifest()
        assert "units" in manifest
        assert "currents" in manifest
        assert "gating" in manifest
