"""Activation-time extraction and error statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocal.activation import (ActivationSample, Group, Site, error_stats,
                                extract_activation_at, five_number_summary,
                                misfit, regression_stats)
from monocal.errors import (DegenerateConfigurationError,
                            InsufficientDataError, InvalidArgumentError)
from monocal.geometry import build_slab_mesh
from monocal.solver import SimulationOutput


def _output_with(mesh, activation):
    activation = np.asarray(activation, dtype=float)
    n = mesh.n_nodes
    return SimulationOutput(
        activation=activation, activated=np.isfinite(activation),
        peak_u=np.where(np.isfinite(activation), 1.5, 0.0),
        final_u=np.zeros(n), snapshots={}, mesh=mesh, manifest={})


class TestExtract:
    def test_reads_node_values(self, unit_cube):
        activation = np.arange(8.0)
        out = _output_with(unit_cube, activation)
        taus = extract_activation_at(out, unit_cube.nodes[[3, 5]])
        assert np.array_equal(taus, [3.0, 5.0])

    def test_nan_passes_through(self, unit_cube):
        activation = np.arange(8.0)
        activation[2] = np.nan
        out = _output_with(unit_cube, activation)
        taus = extract_activation_at(out, unit_cube.nodes[[2]])
        assert np.isnan(taus[0])

    def test_off_node_point_is_rejected(self, unit_cube):
        out = _output_with(unit_cube, np.arange(8.0))
        with pytest.raises(InvalidArgumentError, match="project"):
            extract_activation_at(out, [(0.5, 0.5, 0.5)])


class TestMisfit:
    def test_identical_maps_have_zero_misfit(self):
        taus = np.array([10.0, 20.0, 30.0])
        assert misfit(taus, taus) == 0.0

    def test_hand_value(self):
        assert misfit([10.0, 40.0], [0.0, 20.0]) == 250.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(10.0, 100.0, 20)
        m = rng.uniform(10.0, 100.0, 20)
        perm = rng.permutation(20)
        assert np.isclose(misfit(c, m), misfit(c[perm], m[perm]), rtol=1e-14)

    def test_nan_computed_time_makes_misfit_infinite(self):
        assert misfit([10.0, np.nan], [0.0, 50.0]) == np.inf
        # an unactivated point never beats an activated one
        assert misfit([np.nan, 5.0], [5.0, 5.0]) > misfit([6.0, 5.0], [5.0, 5.0])

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(InvalidArgumentError):
            misfit([1.0, 2.0], [1.0])


class TestFiveNumberSummary:
    def test_percentiles_of_a_known_set(self):
        summary = five_number_summary([0.0, 25.0, 50.0, 75.0, 100.0])
        assert summary == (0.0, 25.0, 50.0, 75.0, 100.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=40)
        assert five_number_summary(v) == \
            five_number_summary(rng.permutation(v))

    def test_empty_set_is_rejected(self):
        with pytest.raises(InvalidArgumentError):
            five_number_summary([])


class TestRegression:
    def test_identity_line(self):
        m = np.array([10.0, 20.0, 30.0, 40.0])
        slope, r2 = regression_stats(m, m)
        assert np.isclose(slope, 1.0, rtol=1e-12)
        assert np.isclose(r2, 1.0, rtol=1e-12)

    def test_doubled_times(self):
        m = np.array([10.0, 20.0, 30.0, 40.0])
        slope, r2 = regression_stats(2.0 * m, m)
        assert np.isclose(slope, 2.0, rtol=1e-12)
        assert np.isclose(r2, 1.0, rtol=1e-12)

    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(50.0, 150.0, 30)
        c = 5.0 + 0.9 * m + rng.normal(0.0, 4.0, 30)
        slope, r2 = regression_stats(c, m)
        assert np.isclose(slope, np.polyfit(m, c, 1)[0], atol=1e-12)
        assert np.isclose(r2, np.corrcoef(m, c)[0, 1] ** 2, atol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            regression_stats([1.0, 2.0], [1.0, 2.0])

    def test_zero_variance_in_measured(self):
        with pytest.raises(DegenerateConfigurationError):
            regression_stats([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


class TestErrorStats:
    def test_two_conventions_on_a_hand_example(self):
        report = error_stats([110.0, 180.0], [100.0, 200.0])
        assert np.isclose(report.mean_rel, 0.075, rtol=1e-14)
        assert np.isclose(report.mean_rel_pointwise, 0.10, rtol=1e-14)
        assert np.array_equal(report.abs_errors, [10.0, 20.0])

    def test_identity_has_zero_errors(self):
        m = np.array([100.0, 150.0, 200.0])
        report = error_stats(m.copy(), m)
        assert report.mean_rel == 0.0
        assert report.std_rel == 0.0
        assert report.summary == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert np.isclose(report.slope, 1.0, rtol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(50.0, 150.0, 30)
        c = m + rng.normal(0.0, 5.0, 30)
        c[[3, 11, 17]] = np.nan
        report = error_stats(c, m)

        keep = [i for i in range(30) if np.isfinite(c[i])]
        errors = [abs(c[i] - m[i]) for i in keep]
        tau_max = max(m[i] for i in keep)
        rel = [e / tau_max for e in errors]
        rel_pw = [abs(c[i] - m[i]) / m[i] for i in keep]
        mean_rel = sum(rel) / len(rel)
        assert report.n_used == 27
        assert report.n_not_activated == 3
        assert np.isclose(report.mean_rel, mean_rel, atol=1e-14)
        assert np.isclose(report.mean_rel_pointwise,
                          sum(rel_pw) / len(rel_pw), atol=1e-14)
        var = sum((r - mean_rel) ** 2 for r in rel) / len(rel)
        assert np.isclose(report.std_rel, np.sqrt(var), atol=1e-14)

    def test_shift_invariance_of_absolute_metrics(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(50.0, 150.0, 20)
        c = m + rng.normal(0.0, 5.0, 20)
        base = error_stats(c, m)
        shifted = error_stats(c + 40.0, m + 40.0)
        assert np.allclose(shifted.abs_errors, base.abs_errors, atol=1e-10)
        assert np.isclose(shifted.slope, base.slope, atol=1e-12)
        assert np.isclose(shifted.r_squared, base.r_squared, atol=1e-12)

    def test_nonpositive_measured_is_rejected(self):
        with pytest.raises(InvalidArgumentError):
            error_stats([10.0], [0.0])

    def test_all_nan_is_rejected(self):
        with pytest.raises(InvalidArgumentError):
            error_stats([np.nan, np.nan], [10.0, 20.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(1.0, 1000.0),
                              st.floats(-100.0, 100.0)),
                    min_size=1, max_size=30))
    def test_pointwise_convention_dominates(self, pairs):
        m = np.array([p[0] for p in pairs])
        c = m + np.array([p[1] for p in pairs])
        report = error_stats(c, m)
        assert report.mean_rel_pointwise >= report.mean_rel - 1e-12


class TestActivationSample:
    def test_pacing_inputs_must_be_septal(self):
        with pytest.raises(InvalidArgumentError):
            ActivationSample(location=(0.0, 0.0, 0.0), tau=30.0,
                             site=Site.EPI_VEIN, group=Group.INPUT)

    def test_septal_points_cannot_join_the_vein_groups(self):
        with pytest.raises(InvalidArgumentError):
            ActivationSample(location=(0.0, 0.0, 0.0), tau=30.0,
                             site=Site.SEPTUM, group=Group.CAL_I)

    def test_valid_samples_construct(self):
        ActivationSample(location=(0.0, 0.0, 0.0), tau=30.0,
                         site=Site.SEPTUM, group=Group.INPUT)
        ActivationSample(location=(0.0, 0.0, 0.0), tau=80.0,
                         site=Site.EPI_VEIN, group=Group.VAL_II, order=4)
