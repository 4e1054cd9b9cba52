"""Activation-time extraction and error statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocal.activation import (error_stats, extract_activation_at,
                                five_number_summary)
from monocal.errors import InvalidArgumentError
from monocal.geometry import build_slab_mesh


class TestExtract:
    def test_reads_node_values(self, unit_cube):
        taus = extract_activation_at(unit_cube, np.arange(8.0),
                                     unit_cube.nodes[[3, 5]])
        assert np.array_equal(taus, [3.0, 5.0])

    def test_nan_passes_through(self, unit_cube):
        activation = np.arange(8.0)
        activation[2] = np.nan
        taus = extract_activation_at(unit_cube, activation,
                                     unit_cube.nodes[[2]])
        assert np.isnan(taus[0])

    def test_off_node_point_is_rejected(self, unit_cube):
        with pytest.raises(InvalidArgumentError, match="project"):
            extract_activation_at(unit_cube, np.arange(8.0),
                                  [(0.5, 0.5, 0.5)])


def misfit(computed, measured) -> float:
    return error_stats(computed, measured).misfit


class TestMisfit:
    """The misfit F that `ErrorReport` derives from its signed residuals."""

    def test_identical_maps_have_zero_misfit(self):
        taus = np.array([10.0, 20.0, 30.0])
        assert misfit(taus, taus) == 0.0

    def test_hand_value(self):
        assert misfit([10.0, 40.0], [5.0, 20.0]) == 212.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(10.0, 100.0, 20)
        m = rng.uniform(10.0, 100.0, 20)
        perm = rng.permutation(20)
        assert np.isclose(misfit(c, m), misfit(c[perm], m[perm]), rtol=1e-14)

    def test_nan_computed_time_makes_misfit_infinite(self):
        assert misfit([10.0, np.nan], [5.0, 50.0]) == np.inf
        # an unactivated point never beats an activated one
        assert misfit([np.nan, 5.0], [5.0, 5.0]) > misfit([6.0, 5.0], [5.0, 5.0])


class TestFiveNumberSummary:
    def test_percentiles_of_a_known_set(self):
        summary = five_number_summary([0.0, 25.0, 50.0, 75.0, 100.0])
        assert summary == (0.0, 25.0, 50.0, 75.0, 100.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=40)
        assert five_number_summary(v) == \
            five_number_summary(rng.permutation(v))


class TestRegression:
    """The least-squares line computed = a + slope * measured of
    `error_stats`."""

    def test_identity_line(self):
        m = np.array([10.0, 20.0, 30.0, 40.0])
        report = error_stats(m, m)
        assert np.isclose(report.slope, 1.0, rtol=1e-12)
        assert np.isclose(report.r_squared, 1.0, rtol=1e-12)

    def test_doubled_times(self):
        m = np.array([10.0, 20.0, 30.0, 40.0])
        report = error_stats(2.0 * m, m)
        assert np.isclose(report.slope, 2.0, rtol=1e-12)
        assert np.isclose(report.r_squared, 1.0, rtol=1e-12)

    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(50.0, 150.0, 30)
        c = 5.0 + 0.9 * m + rng.normal(0.0, 4.0, 30)
        report = error_stats(c, m)
        assert np.isclose(report.slope, np.polyfit(m, c, 1)[0], atol=1e-12)
        assert np.isclose(report.r_squared, np.corrcoef(m, c)[0, 1] ** 2,
                          atol=1e-12)

    def test_too_few_points(self):
        report = error_stats([1.0, 2.0], [1.0, 2.0])
        assert np.isnan(report.slope)
        assert np.isnan(report.r_squared)

    def test_zero_variance_in_measured(self):
        report = error_stats([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert np.isnan(report.slope)
        assert np.isnan(report.r_squared)


class TestErrorStats:
    def test_two_conventions_on_a_hand_example(self):
        report = error_stats([110.0, 180.0], [100.0, 200.0])
        assert np.isclose(report.mean_rel, 0.075, rtol=1e-14)
        assert np.isclose(report.mean_rel_pointwise, 0.10, rtol=1e-14)
        assert np.array_equal(report.errors, [10.0, -20.0])

    def test_identity_has_zero_errors(self):
        m = np.array([100.0, 150.0, 200.0])
        report = error_stats(m.copy(), m)
        assert report.mean_rel == 0.0
        assert report.std_rel == 0.0
        assert report.five_number_rel == (0.0, 0.0, 0.0, 0.0, 0.0)
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
        assert np.allclose(shifted.errors, base.errors, atol=1e-10)
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

