"""Direct-search conductivity estimation: update arithmetic and behaviour.

Behavioural cases run on a thin bar (0.6 x 0.1 x 0.05 cm at h = 0.05)
with fibers along x, stimulated at one end. Activation there is mostly
sensitive to sigma_f, and a data-generating triple placed on the update
ray from the box midpoint keeps all three components recoverable. The
default acceleration coefficients are tuned for hundreds of points with
activation times near 100 ms, so the five-point bar uses proportionally
larger ones.
"""

import csv

import numpy as np
import pytest

from monocal import activation as act
from monocal import calibration as cal
from monocal import geometry
from monocal import solver as slv
from monocal.activation import ActivationSample, Group, Site
from monocal.errors import InvalidArgumentError

BAR_BETA = (9.0, 2.0, 1.0)
BAR_POINTS = np.array([
    [0.20, 0.05, 0.05],
    [0.30, 0.00, 0.00],
    [0.40, 0.10, 0.05],
    [0.50, 0.05, 0.00],
    [0.55, 0.00, 0.05],
])


def bar_params(sigma, **overrides):
    base = dict(sigma=tuple(sigma), dt=0.025, t_end=40.0,
                stop_when_activated=True, stimulus_radius=0.08,
                stimulus_amplitude=225000.0)
    base.update(overrides)
    return slv.SolverParams(**base)


def bar_samples(taus, group=Group.CAL_I):
    return [ActivationSample(location=tuple(p), tau=float(t),
                             site=Site.EPI_VEIN, group=group, order=i)
            for i, (p, t) in enumerate(zip(BAR_POINTS, taus))]


def bar_config(**overrides):
    base = dict(solver=bar_params((1.0, 1.0, 1.0)), beta=BAR_BETA,
                tol_ms=0.25, max_iters=20)
    base.update(overrides)
    return cal.CalibrationConfig(**base)


@pytest.fixture(scope="module")
def bar():
    return geometry.build_slab_mesh((0.6, 0.1, 0.05), 0.05)


@pytest.fixture(scope="module")
def bar_plan():
    return slv.StimulusPlan(points=np.array([[0.0, 0.0, 0.0]]),
                            onsets=np.array([0.0]))


def bar_taus(mesh, plan, sigma):
    output = slv.simulate(mesh, None, bar_params(sigma), plan)
    taus = act.extract_activation_at(output, BAR_POINTS)
    assert np.isfinite(taus).all()
    return taus


@pytest.fixture(scope="module")
def midpoint_taus(bar, bar_plan):
    return bar_taus(bar, bar_plan, cal.ConductivityBox().midpoint())


# --- signed-error summary ---------------------------------------------------


def test_mean_signed_error_balanced_residuals_cancel():
    total, mean = cal.mean_signed_error([110.0, 90.0], [100.0, 100.0])
    assert total == 0.0
    assert mean == 0.0


def test_mean_signed_error_sum_and_mean():
    total, mean = cal.mean_signed_error([110.0, 120.0], [100.0, 100.0])
    assert total == pytest.approx(30.0)
    assert mean == pytest.approx(15.0)


def test_mean_signed_error_skips_unactivated_points():
    total, mean = cal.mean_signed_error([110.0, np.nan], [100.0, 77.0])
    assert total == pytest.approx(10.0)
    assert mean == pytest.approx(10.0)


def test_mean_signed_error_all_unactivated_rejected():
    with pytest.raises(InvalidArgumentError, match="no activated"):
        cal.mean_signed_error([np.nan, np.nan], [100.0, 100.0])


def test_mean_signed_error_length_mismatch_rejected():
    with pytest.raises(InvalidArgumentError, match="lengths"):
        cal.mean_signed_error([1.0, 2.0], [1.0])


# --- one search step --------------------------------------------------------


def test_update_sigma_zero_error_is_fixed_point():
    sigma = (1.0, 0.3, 0.06)
    new, clamped = cal.update_sigma(sigma, 0.0, cal.ConductivityBox())
    np.testing.assert_array_equal(new, sigma)
    assert clamped == (False, False, False)


def test_update_sigma_applies_acceleration_in_seconds():
    # 10 ms of summed error is 0.01 s; with the default coefficients the
    # step is (0.0045, 0.001, 0.0005).
    new, clamped = cal.update_sigma((1.0, 0.3, 0.06), 10.0,
                                    cal.ConductivityBox())
    np.testing.assert_allclose(new, [1.0045, 0.301, 0.0605], rtol=1e-12)
    assert clamped == (False, False, False)


def test_update_sigma_clamps_to_box():
    box = cal.ConductivityBox()
    high, flags_high = cal.update_sigma((1.0, 0.3, 0.06), 1.0e6, box)
    np.testing.assert_array_equal(high, box.highs)
    assert flags_high == (True, True, True)
    low, flags_low = cal.update_sigma((1.0, 0.3, 0.06), -1.0e6, box)
    np.testing.assert_array_equal(low, box.lows)
    assert flags_low == (True, True, True)


def test_update_sigma_isotropic_moves_all_components_together():
    box = cal.ConductivityBox()
    new, clamped = cal.update_sigma((1.0, 1.0, 1.0), 10.0, box,
                                    isotropic=True)
    np.testing.assert_allclose(new, np.full(3, 1.0045), rtol=1e-12)
    assert clamped == (False, False, False)
    capped, flags = cal.update_sigma((1.0, 1.0, 1.0), 1.0e6, box,
                                     isotropic=True)
    np.testing.assert_array_equal(capped, np.full(3, box.f[1]))
    assert flags == (True, True, True)


# --- box and config validation ----------------------------------------------


def test_box_midpoint_and_contains():
    box = cal.ConductivityBox()
    np.testing.assert_allclose(box.midpoint(), [1.45, 0.32, 0.065])
    assert box.contains((1.0, 0.3, 0.06))
    assert not box.contains((0.5, 0.3, 0.06))
    assert not box.contains((1.0, 0.3, 0.2))


def test_box_rejects_inverted_or_nonpositive_bounds():
    with pytest.raises(InvalidArgumentError, match="sigma_f"):
        cal.ConductivityBox(f=(2.0, 1.0))
    with pytest.raises(InvalidArgumentError, match="sigma_n"):
        cal.ConductivityBox(n=(0.0, 0.1))


def test_config_rejects_bad_tolerance_and_budget():
    with pytest.raises(InvalidArgumentError):
        cal.CalibrationConfig(tol_ms=0.0)
    with pytest.raises(InvalidArgumentError):
        cal.CalibrationConfig(max_iters=0)


def test_config_rejects_start_outside_box():
    with pytest.raises(InvalidArgumentError, match="outside"):
        cal.CalibrationConfig(initial_sigma=(0.5, 0.3, 0.06))


def test_config_start_defaults_to_box_midpoint():
    np.testing.assert_allclose(cal.CalibrationConfig().start_sigma(),
                               [1.45, 0.32, 0.065])
    np.testing.assert_allclose(
        cal.CalibrationConfig(isotropic=True).start_sigma(),
        [1.45, 1.45, 1.45])
    np.testing.assert_array_equal(
        cal.CalibrationConfig(initial_sigma=(1.0, 0.3, 0.06)).start_sigma(),
        [1.0, 0.3, 0.06])


# --- search behaviour on the bar problem ------------------------------------


def test_calibrate_converges_immediately_on_self_consistent_data(
        bar, bar_plan, midpoint_taus):
    samples = bar_samples(midpoint_taus)
    val = bar_samples(midpoint_taus[:2], group=Group.VAL_II)
    result = cal.calibrate(bar, None, bar_plan, samples,
                           bar_config(tol_ms=1.0), val_samples=val)
    assert result.converged
    assert len(result.iterations) == 1
    np.testing.assert_array_equal(result.sigma_hat,
                                  cal.ConductivityBox().midpoint())
    assert result.iterations[0].error_mean_ms == 0.0
    assert result.iterations[0].misfit_ms2 == 0.0
    assert result.validation is not None
    assert result.validation.n_used == 2
    assert result.validation.mean_rel == 0.0
    np.testing.assert_array_equal(result.calibration_computed, midpoint_taus)


def test_calibrate_recovers_target_on_update_ray(bar, bar_plan):
    mid = cal.ConductivityBox().midpoint()
    star = mid + np.array(cal.DEFAULT_BETA) * (-0.55)
    taus = bar_taus(bar, bar_plan, star)
    result = cal.calibrate(bar, None, bar_plan, bar_samples(taus),
                           bar_config())
    assert result.converged
    assert len(result.iterations) <= 10
    np.testing.assert_allclose(result.sigma_hat[:2], star[:2], rtol=0.05)
    np.testing.assert_allclose(result.sigma_hat[2], star[2], rtol=0.10)
    means = [abs(r.error_mean_ms) for r in result.iterations]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_calibrate_iterates_stay_inside_box(bar, bar_plan, midpoint_taus):
    result = cal.calibrate(bar, None, bar_plan,
                           bar_samples(midpoint_taus + 500.0),
                           bar_config(max_iters=8))
    box = cal.ConductivityBox()
    for record in result.iterations:
        assert box.contains(record.sigma)


def test_calibrate_stagnates_at_box_edge_on_unreachable_data(
        bar, bar_plan, midpoint_taus):
    # Measurements 500 ms later than anything the model can produce: the
    # signed error stays hugely negative, the triple pins at the box lows
    # and the misfit stops moving, so the search reports failure.
    result = cal.calibrate(bar, None, bar_plan,
                           bar_samples(midpoint_taus + 500.0),
                           bar_config(max_iters=8))
    assert not result.converged
    assert len(result.iterations) < 8
    np.testing.assert_array_equal(result.sigma_hat,
                                  cal.ConductivityBox().lows)
    assert result.iterations[0].clamped == (True, True, True)


def test_calibrate_keeps_best_misfit_iterate_when_not_converged(
        bar, bar_plan, midpoint_taus):
    result = cal.calibrate(bar, None, bar_plan,
                           bar_samples(midpoint_taus + 500.0),
                           bar_config(max_iters=8))
    best = min(result.iterations, key=lambda r: r.misfit_ms2)
    np.testing.assert_array_equal(result.sigma_hat, best.sigma)


def test_calibrate_never_converges_with_unactivated_points(
        bar, bar_plan, monkeypatch):
    # every activated point matches exactly, so the signed error is zero;
    # the one point that never activated must still block convergence
    taus = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    computed = np.array([np.nan, 20.0, 30.0, 40.0, 50.0])
    monkeypatch.setattr(cal.slv, "simulate", lambda *args, **kwargs: None)
    monkeypatch.setattr(cal.act, "extract_activation_at",
                        lambda output, points: computed.copy())
    result = cal.calibrate(bar, None, bar_plan, bar_samples(taus),
                           bar_config(max_iters=3))
    assert not result.converged
    assert len(result.iterations) == 3
    for record in result.iterations:
        assert record.error_mean_ms == 0.0
        assert record.n_not_activated == 1
        assert record.misfit_ms2 == np.inf


def test_calibrate_truncates_to_earliest_activation_times(
        bar, bar_plan, midpoint_taus):
    samples = bar_samples(midpoint_taus)
    result = cal.calibrate(bar, None, bar_plan, samples,
                           bar_config(tol_ms=1.0, max_cal_points=3))
    kept = sorted(midpoint_taus)[:3]
    assert [s.tau for s in result.calibration_samples] == kept


def test_calibrate_isotropic_search_keeps_triple_equal(bar, bar_plan):
    taus = bar_taus(bar, bar_plan, (1.0, 1.0, 1.0))
    result = cal.calibrate(bar, None, bar_plan, bar_samples(taus),
                           bar_config(isotropic=True))
    assert result.converged
    assert result.sigma_hat[0] == result.sigma_hat[1] == result.sigma_hat[2]
    assert result.sigma_hat[0] == pytest.approx(1.0, rel=0.10)


def test_calibrate_is_deterministic(bar, bar_plan, midpoint_taus):
    mid = cal.ConductivityBox().midpoint()
    star = mid + np.array(cal.DEFAULT_BETA) * (-0.55)
    taus = bar_taus(bar, bar_plan, star)
    first = cal.calibrate(bar, None, bar_plan, bar_samples(taus),
                          bar_config(max_iters=3))
    second = cal.calibrate(bar, None, bar_plan, bar_samples(taus),
                           bar_config(max_iters=3))
    np.testing.assert_array_equal(first.sigma_hat, second.sigma_hat)
    assert [r.error_sum_ms for r in first.iterations] \
        == [r.error_sum_ms for r in second.iterations]


def test_calibrate_rejects_empty_sample_list(bar, bar_plan):
    with pytest.raises(InvalidArgumentError, match="empty"):
        cal.calibrate(bar, None, bar_plan, [], bar_config())


def test_faster_fiber_conductivity_shortens_activation(bar, bar_plan):
    taus = [bar_taus(bar, bar_plan, (sf, 0.32, 0.065))[-1]
            for sf in (0.8, 1.4, 2.0)]
    assert taus[0] > taus[1] > taus[2]


def test_trace_round_trip(tmp_path, bar, bar_plan, midpoint_taus):
    result = cal.calibrate(bar, None, bar_plan, bar_samples(midpoint_taus),
                           bar_config(tol_ms=1.0))
    path = tmp_path / "trace.csv"
    cal.write_trace(path, result)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == cal.TRACE_HEADER
    assert len(rows) == 1 + len(result.iterations)
    start = cal.ConductivityBox().midpoint()
    assert float(rows[1][1]) == pytest.approx(start[0], rel=1e-8)
    assert float(rows[1][4]) == 0.0
    assert float(rows[1][5]) == 0.0
