"""Direct-search conductivity estimation: update arithmetic and behaviour.

Behavioural cases run on a thin bar (0.6 x 0.1 x 0.05 cm at h = 0.05)
with fibers along x, stimulated at one end. Activation there is mostly
sensitive to sigma_f, and a data-generating triple placed on the update
ray from the box midpoint keeps all three components recoverable. The
default acceleration coefficients are tuned for hundreds of points with
activation times near 100 ms, so the five-point bar uses proportionally
larger ones.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from monocal import activation as act
from monocal import calibration as cal
from monocal import fem, geometry
from monocal import solver as slv
from monocal.activation import Site
from monocal.errors import InvalidArgumentError, MonocalError
from monocal.registration import RawCloud

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


def bar_cloud(taus, points=BAR_POINTS):
    """Vein points at the first len(taus) of the given locations."""
    taus = np.asarray(taus, dtype=float)
    return RawCloud(points=points[:len(taus)], taus=taus,
                    sites=[Site.EPI_VEIN] * len(taus),
                    order=np.arange(len(taus)))


# A bar node between the stimulated end and the calibration points: it
# activates in every run, so a calibration validated on it has a group-II
# report.
VAL_POINT = np.array([[0.10, 0.05, 0.05]])


def bar_val():
    return bar_cloud([5.0], VAL_POINT)


def bar_config(**overrides):
    base = dict(beta=BAR_BETA, tol_ms=0.25, max_iters=20)
    base.update(overrides)
    return cal.CalibrationConfig(**base)


def run(activation=None):
    """A stand-in for a simulation's output: the evaluator keeps only its
    activation map."""
    return SimpleNamespace(activation=activation)


def bar_evaluator(mesh, plan, **overrides):
    """A fresh evaluator of the bar problem: nothing simulated yet."""
    return cal.Evaluator(mesh, None, plan, bar_params((1.0, 1.0, 1.0),
                                                      **overrides))


@pytest.fixture(scope="module")
def bar():
    return geometry.build_slab_mesh((0.6, 0.1, 0.05), 0.05)


@pytest.fixture(scope="module")
def bar_plan():
    return slv.StimulusPlan(points=np.array([[0.0, 0.0, 0.0]]),
                            onsets=np.array([0.0]))


def bar_taus(mesh, plan, sigma):
    output = slv.simulate(mesh, None, bar_params(sigma), plan)
    taus = act.extract_activation_at(mesh, output.activation, BAR_POINTS)
    assert np.isfinite(taus).all()
    return taus


@pytest.fixture(scope="module")
def midpoint_taus(bar, bar_plan):
    return bar_taus(bar, bar_plan, cal.ConductivityBox().midpoint())


# --- signed-error summary ---------------------------------------------------
# E, the summed signed error the search steps along, and its per-point
# mean come from the residuals of the one comparison per iteration.


def mean_signed_error(computed, measured) -> tuple[float, float]:
    errors = act.error_stats(computed, measured).errors
    return errors.sum(), errors.mean()


def test_mean_signed_error_balanced_residuals_cancel():
    total, mean = mean_signed_error([110.0, 90.0], [100.0, 100.0])
    assert total == 0.0
    assert mean == 0.0


def test_mean_signed_error_sum_and_mean():
    total, mean = mean_signed_error([110.0, 120.0], [100.0, 100.0])
    assert total == pytest.approx(30.0)
    assert mean == pytest.approx(15.0)


def test_mean_signed_error_skips_unactivated_points():
    total, mean = mean_signed_error([110.0, np.nan], [100.0, 77.0])
    assert total == pytest.approx(10.0)
    assert mean == pytest.approx(10.0)


def test_mean_signed_error_all_unactivated_rejected():
    with pytest.raises(InvalidArgumentError, match="no activated"):
        mean_signed_error([np.nan, np.nan], [100.0, 100.0])


# --- one search step --------------------------------------------------------


def test_update_sigma_zero_error_is_fixed_point():
    sigma = (1.0, 0.3, 0.06)
    new = cal.update_sigma(sigma, 0.0, cal.ConductivityBox())
    np.testing.assert_array_equal(new, sigma)


def test_update_sigma_applies_acceleration_in_seconds():
    # 10 ms of summed error is 0.01 s; with the default coefficients the
    # step is (0.0045, 0.001, 0.0005).
    new = cal.update_sigma((1.0, 0.3, 0.06), 10.0, cal.ConductivityBox())
    np.testing.assert_allclose(new, [1.0045, 0.301, 0.0605], rtol=1e-12)


def test_update_sigma_clamps_to_box():
    box = cal.ConductivityBox()
    high = cal.update_sigma((1.0, 0.3, 0.06), 1.0e6, box)
    np.testing.assert_array_equal(high, box.highs)
    low = cal.update_sigma((1.0, 0.3, 0.06), -1.0e6, box)
    np.testing.assert_array_equal(low, box.lows)


def test_update_sigma_isotropic_moves_all_components_together():
    # the isotropic search is its box and beta: every component within
    # the fiber bounds, moved with the fiber coefficient
    config = cal.CalibrationConfig(isotropic=True)
    new = cal.update_sigma((1.0, 1.0, 1.0), 10.0, config.box, config.beta)
    np.testing.assert_allclose(new, np.full(3, 1.0045), rtol=1e-12)
    capped = cal.update_sigma((1.0, 1.0, 1.0), 1.0e6, config.box,
                              config.beta)
    np.testing.assert_array_equal(capped, np.full(3, config.box.f[1]))


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
    for k in (0, -3):
        with pytest.raises(InvalidArgumentError, match="max_cal_points"):
            cal.CalibrationConfig(max_cal_points=k)


@pytest.mark.parametrize("name", ["f", "s", "n"])
def test_box_rejects_an_infinite_bound(name):
    with pytest.raises(InvalidArgumentError, match=f"sigma_{name}"):
        cal.ConductivityBox(**{name: (0.05, np.inf)})


@pytest.mark.parametrize("overrides", [
    dict(tol_ms=np.nan), dict(tol_ms=np.inf),
    dict(beta=(np.nan, 0.1, 0.05)), dict(beta=(0.45, np.inf, 0.05)),
], ids=["tol_ms-nan", "tol_ms-inf", "beta-nan", "beta-inf"])
def test_config_rejects_non_finite_settings(overrides):
    with pytest.raises(InvalidArgumentError, match="finite"):
        cal.CalibrationConfig(**overrides)


def test_config_rejects_start_outside_box():
    with pytest.raises(InvalidArgumentError, match="outside"):
        cal.CalibrationConfig(initial_sigma=(0.5, 0.3, 0.06))


def test_isotropic_start_is_checked_against_the_fiber_bounds():
    # sigma_s = 1.0 lies above the sheet bound, but the isotropic search
    # moves one value within the fiber bounds
    config = cal.CalibrationConfig(isotropic=True,
                                   initial_sigma=(1.0, 1.0, 1.0))
    np.testing.assert_array_equal(config.start_sigma(), [1.0, 1.0, 1.0])
    for start in ((0.5, 0.5, 0.5), (2.5, 2.5, 2.5)):
        with pytest.raises(InvalidArgumentError, match="outside"):
            cal.CalibrationConfig(isotropic=True, initial_sigma=start)


@pytest.mark.parametrize("start", [(1.0, 0.3, 0.06), (1.0, 1.0, 1.1),
                                   (1.0, 1.0)])
def test_isotropic_start_must_be_three_equal_values(start):
    with pytest.raises(InvalidArgumentError, match="not isotropic"):
        cal.CalibrationConfig(isotropic=True, initial_sigma=start)


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
    result = cal.calibrate(bar_evaluator(bar, bar_plan),
                           bar_cloud(midpoint_taus), bar_config(tol_ms=1.0),
                           val=bar_cloud(midpoint_taus[:2]))
    assert result.converged
    assert len(result.iterations) == 1
    np.testing.assert_array_equal(result.best.sigma,
                                  cal.ConductivityBox().midpoint())
    assert result.iterations[0].report.errors.mean() == 0.0
    assert result.iterations[0].report.misfit == 0.0
    assert result.validation is not None
    assert result.validation.n_used == 2
    assert result.validation.mean_rel == 0.0
    np.testing.assert_array_equal(result.best.calibration_computed,
                                  midpoint_taus)


def test_calibrate_recovers_target_on_update_ray(bar, bar_plan):
    mid = cal.ConductivityBox().midpoint()
    star = mid + np.array(cal.DEFAULT_BETA) * (-0.55)
    taus = bar_taus(bar, bar_plan, star)
    result = cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud(taus),
                           bar_config(), val=bar_val())
    assert result.converged
    assert len(result.iterations) <= 10
    np.testing.assert_allclose(result.best.sigma[:2], star[:2], rtol=0.05)
    np.testing.assert_allclose(result.best.sigma[2], star[2], rtol=0.10)
    means = [abs(r.report.errors.mean()) for r in result.iterations]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_calibrate_iterates_stay_inside_box(bar, bar_plan, midpoint_taus):
    result = cal.calibrate(bar_evaluator(bar, bar_plan),
                           bar_cloud(midpoint_taus + 500.0),
                           bar_config(max_iters=8), val=bar_val())
    box = cal.ConductivityBox()
    for record in result.iterations:
        assert box.contains(record.sigma)


def test_calibrate_stagnates_at_box_edge_on_unreachable_data(
        bar, bar_plan, midpoint_taus):
    # Measurements 500 ms later than anything the model can produce: the
    # signed error stays hugely negative, the triple pins at the box lows
    # and the misfit stops moving, so the search reports failure.
    result = cal.calibrate(bar_evaluator(bar, bar_plan),
                           bar_cloud(midpoint_taus + 500.0),
                           bar_config(max_iters=8), val=bar_val())
    assert not result.converged
    assert len(result.iterations) < 8
    np.testing.assert_array_equal(result.best.sigma,
                                  cal.ConductivityBox().lows)
    # the first step already clamps every component
    np.testing.assert_array_equal(result.iterations[1].sigma,
                                  cal.ConductivityBox().lows)


def test_calibrate_keeps_best_misfit_iterate_when_not_converged(
        bar, bar_plan, midpoint_taus):
    result = cal.calibrate(bar_evaluator(bar, bar_plan),
                           bar_cloud(midpoint_taus + 500.0),
                           bar_config(max_iters=8), val=bar_val())
    best = min(result.iterations, key=lambda r: r.report.misfit)
    np.testing.assert_array_equal(result.best.sigma, best.sigma)


def test_calibrate_never_converges_with_unactivated_points(
        bar, bar_plan, monkeypatch):
    # every activated point matches exactly, so the signed error is zero;
    # the one point that never activated must still block convergence
    taus = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    computed = np.array([np.nan, 20.0, 30.0, 40.0, 50.0])
    monkeypatch.setattr(cal.slv, "simulate", lambda *args, **kwargs: run())
    # the validation point activates at 5 ms
    monkeypatch.setattr(cal.act, "extract_activation_at",
                        lambda mesh, activation, points:
                        np.append(computed, 5.0))
    result = cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud(taus),
                           bar_config(max_iters=3), val=bar_val())
    assert not result.converged
    assert len(result.iterations) == 3
    for record in result.iterations:
        assert record.report.errors.mean() == 0.0
        assert record.report.n_not_activated == 1
        assert record.report.misfit == np.inf


def test_calibrate_compares_once_per_iteration(bar, bar_plan, monkeypatch):
    # the first iterate lags every point by 10 ms, the second matches
    taus = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    val_taus = np.array([15.0, 25.0])
    times = [np.concatenate([taus + 10.0, val_taus]),
             np.concatenate([taus, val_taus])]
    outputs = iter(range(len(times)))
    monkeypatch.setattr(cal.slv, "simulate",
                        lambda *args, **kwargs: run(next(outputs)))
    monkeypatch.setattr(cal.act, "extract_activation_at",
                        lambda mesh, activation, points:
                        times[activation][:len(points)])
    calls = []
    original = cal.act.error_stats

    def counted(computed, measured):
        calls.append(len(computed))
        return original(computed, measured)

    monkeypatch.setattr(cal.act, "error_stats", counted)
    result = cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud(taus),
                           bar_config(), val=bar_cloud(val_taus))
    assert result.converged
    assert len(result.iterations) == 2
    assert calls == [5, 5, 2]
    first = result.iterations[0].report
    assert first.errors.sum() == 50.0
    assert first.misfit == 250.0


@pytest.mark.parametrize("case", ["converged", "stagnated"])
def test_calibrate_reuses_the_estimates_simulation(bar, bar_plan,
                                                   midpoint_taus, monkeypatch,
                                                   case):
    if case == "converged":
        mid = cal.ConductivityBox().midpoint()
        taus = bar_taus(bar, bar_plan,
                        mid + np.array(cal.DEFAULT_BETA) * (-0.55))
    else:
        taus = midpoint_taus + 500.0
    val = bar_cloud(taus[[0, 2, 4]] + 1.0, BAR_POINTS[[0, 2, 4]])
    simulated = []
    original = cal.slv.simulate

    def counted(mesh, fiber_field, params, plan):
        simulated.append(params.sigma)
        return original(mesh, fiber_field, params, plan)

    monkeypatch.setattr(cal.slv, "simulate", counted)
    result = cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud(taus),
                           bar_config(max_iters=8), val=val)
    monkeypatch.undo()
    assert result.converged == (case == "converged")
    assert len(result.iterations) == (5 if case == "converged" else 4)
    # one simulation per distinct triple, in the order the search met them:
    # the stagnating search pins at the box lows from iteration 1 on and
    # simulates them once
    distinct = list(dict.fromkeys(tuple(r.sigma) for r in result.iterations))
    assert simulated == distinct
    assert len(simulated) == (5 if case == "converged" else 2)
    # the first of those equal misfits is the estimate, not the last iterate
    chosen = [r is result.best for r in result.iterations]
    assert chosen.index(True) == (len(chosen) - 1 if case == "converged"
                                  else 1)

    # oracle: a fresh run at the estimate
    output = slv.simulate(bar, None, bar_params(result.best.sigma), bar_plan)
    np.testing.assert_array_equal(
        result.best.calibration_computed,
        act.extract_activation_at(bar, output.activation,
                                  result.calibration.points))
    np.testing.assert_array_equal(
        result.best.validation_computed,
        act.extract_activation_at(bar, output.activation, val.points))
    assert result.validation.n_used == 3


def test_calibrate_tolerates_an_iterate_without_validation_times(
        bar, bar_plan, monkeypatch):
    # the first iterate misses every calibration time by 10 ms and leaves
    # every validation point unactivated; the second matches exactly
    taus = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    val_taus = np.array([15.0, 25.0])
    times = [np.concatenate([taus + 10.0, [np.nan, np.nan]]),
             np.concatenate([taus, val_taus + 1.0])]
    outputs = iter(range(len(times)))
    monkeypatch.setattr(cal.slv, "simulate",
                        lambda *args, **kwargs: run(next(outputs)))
    monkeypatch.setattr(cal.act, "extract_activation_at",
                        lambda mesh, activation, points:
                        times[activation].copy())
    result = cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud(taus),
                           bar_config(), val=bar_cloud(val_taus))
    assert result.converged
    assert len(result.iterations) == 2
    np.testing.assert_array_equal(result.best.calibration_computed, taus)
    np.testing.assert_array_equal(result.best.validation_computed,
                                  val_taus + 1.0)
    assert result.validation.n_not_activated == 0


def test_calibrate_rejects_an_empty_validation_cloud(bar, bar_plan,
                                                    midpoint_taus):
    with pytest.raises(InvalidArgumentError, match="validation cloud"):
        cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud(midpoint_taus),
                      bar_config(tol_ms=1.0), val=bar_cloud([]))


def test_calibrate_truncates_to_earliest_activation_times(
        bar, bar_plan, midpoint_taus):
    result = cal.calibrate(bar_evaluator(bar, bar_plan),
                           bar_cloud(midpoint_taus),
                           bar_config(tol_ms=1.0, max_cal_points=3),
                           val=bar_val())
    kept = sorted(midpoint_taus)[:3]
    assert result.calibration.taus.tolist() == kept


def test_calibrate_breaks_time_ties_by_acquisition_order(bar, bar_plan,
                                                         monkeypatch):
    order = np.array([3, 0, 4, 1, 2])
    cloud = RawCloud(points=BAR_POINTS, taus=np.full(5, 20.0),
                     sites=[Site.EPI_VEIN] * 5, order=order)
    monkeypatch.setattr(cal.slv, "simulate", lambda *args, **kwargs: run())
    monkeypatch.setattr(cal.act, "extract_activation_at",
                        lambda mesh, activation, points:
                        np.full(len(points), 20.0))
    by_order = BAR_POINTS[np.argsort(order)]
    for k in (None, 2):
        result = cal.calibrate(bar_evaluator(bar, bar_plan), cloud,
                               bar_config(max_cal_points=k), val=bar_val())
        kept = np.arange(5)[:k]
        np.testing.assert_array_equal(result.calibration.order, kept)
        np.testing.assert_array_equal(result.calibration.points,
                                      by_order[kept])


def test_calibrate_isotropic_search_keeps_triple_equal(bar, bar_plan):
    taus = bar_taus(bar, bar_plan, (1.0, 1.0, 1.0))
    result = cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud(taus),
                           bar_config(isotropic=True), val=bar_val())
    assert result.converged
    assert result.best.sigma[0] == result.best.sigma[1] == result.best.sigma[2]
    assert result.best.sigma[0] == pytest.approx(1.0, rel=0.10)


def test_calibrate_is_deterministic(bar, bar_plan, midpoint_taus):
    mid = cal.ConductivityBox().midpoint()
    star = mid + np.array(cal.DEFAULT_BETA) * (-0.55)
    taus = bar_taus(bar, bar_plan, star)
    first = cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud(taus),
                          bar_config(max_iters=3), val=bar_val())
    second = cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud(taus),
                           bar_config(max_iters=3), val=bar_val())
    np.testing.assert_array_equal(first.best.sigma, second.best.sigma)
    assert [r.report.errors.sum() for r in first.iterations] \
        == [r.report.errors.sum() for r in second.iterations]


def test_calibrate_rejects_empty_sample_list(bar, bar_plan):
    with pytest.raises(InvalidArgumentError, match="empty"):
        cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud([]),
                      bar_config(), val=bar_val())


def test_a_failed_solve_names_its_step_and_iteration(bar, bar_plan,
                                                      monkeypatch):
    # paced at 0 ms, so every step solves: the third solve is step 3
    real, calls = fem.gmres_solve, []

    def third_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise MonocalError("CG did not reach the tolerance")
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "gmres_solve", third_fails)
    step = "step 3 (t=0.075 ms): CG did not reach the tolerance"
    with pytest.raises(MonocalError, match=re.escape(step)):
        slv.simulate(bar, None, bar_params((1.0, 1.0, 1.0)), bar_plan)
    calls.clear()
    with pytest.raises(MonocalError, match=re.escape(
            f"iteration 0 (sigma=(1.4500, 0.3200, 0.0650)): {step}")):
        cal.calibrate(bar_evaluator(bar, bar_plan), bar_cloud([10.0, 20.0]),
                      bar_config(), val=bar_val())


@pytest.mark.parametrize("group", ["I", "II"])
def test_a_group_with_no_activated_point_names_its_iteration(bar, bar_plan,
                                                             group):
    # runs cut at 2 ms activate no point; at 10 ms the three points
    # nearest the paced end activate, and the search converges on them at
    # once, but the validation point at x = 0.55 cm has not activated yet
    t_end, taus, val = {
        "I": (2.0, [10.0, 20.0], bar_val()),
        "II": (10.0, [6.925, 7.1, 9.375], bar_cloud([11.0], BAR_POINTS[4:])),
    }[group]
    with pytest.raises(MonocalError, match=re.escape(
            "iteration 0 (sigma=(1.4500, 0.3200, 0.0650)): "
            f"group {group}: no activated points to compare")):
        cal.calibrate(bar_evaluator(bar, bar_plan, t_end=t_end),
                      bar_cloud(taus), bar_config(), val=val)


# --- the evaluator ----------------------------------------------------------


def test_a_shared_evaluator_simulates_each_triple_once(bar, bar_plan,
                                                        midpoint_taus,
                                                        monkeypatch):
    # the first search converges at the box midpoint; the second starts
    # there too and pins at the box lows
    simulated = []
    original = cal.slv.simulate

    def counted(mesh, fiber_field, params, plan):
        simulated.append(params.sigma)
        return original(mesh, fiber_field, params, plan)

    monkeypatch.setattr(cal.slv, "simulate", counted)
    evaluator = bar_evaluator(bar, bar_plan)
    first = cal.calibrate(evaluator, bar_cloud(midpoint_taus),
                          bar_config(tol_ms=1.0), val=bar_val())
    second = cal.calibrate(evaluator, bar_cloud(midpoint_taus + 500.0),
                           bar_config(max_iters=8), val=bar_val())
    box = cal.ConductivityBox()
    assert len(first.iterations) == 1
    assert len(second.iterations) == 4
    assert simulated == [tuple(box.midpoint()), tuple(box.lows)]


def test_the_evaluator_caches_one_map_per_distinct_triple(bar, bar_plan,
                                                          midpoint_taus):
    evaluator = bar_evaluator(bar, bar_plan)
    result = cal.calibrate(evaluator, bar_cloud(midpoint_taus + 500.0),
                           bar_config(max_iters=8), val=bar_val())
    distinct = {r.sigma.tobytes() for r in result.iterations}
    assert len(distinct) == 2
    assert set(evaluator.maps) == distinct
    for activation in evaluator.maps.values():
        assert activation.shape == (bar.n_nodes,)
        assert activation.dtype == np.float64


def test_evaluator_times_match_a_fresh_simulation(bar, bar_plan):
    sigma = np.array([1.1, 0.3, 0.07])
    evaluator = bar_evaluator(bar, bar_plan)
    output = slv.simulate(bar, None, bar_params(sigma), bar_plan)
    expected = act.extract_activation_at(bar, output.activation, BAR_POINTS)
    for _ in range(2):  # simulated, then read from the cache
        times = evaluator.times(sigma, BAR_POINTS)
        assert times.tobytes() == expected.tobytes()


def test_faster_fiber_conductivity_shortens_activation(bar, bar_plan):
    taus = [bar_taus(bar, bar_plan, (sf, 0.32, 0.065))[-1]
            for sf in (0.8, 1.4, 2.0)]
    assert taus[0] > taus[1] > taus[2]

