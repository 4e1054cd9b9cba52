"""The benchmark's own checks must fail on deliberately corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import diags

from checks import (causality_bound, check_activation_map, check_calibration,
                    residual_excess)
from spans import layer_metrics

RADIUS, DURATION, H = 0.15, 5.0, 0.05
SITES = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
ONSETS = np.array([10.0, 30.0])
TRUTH = (1.27, 0.28, 0.045)


@pytest.fixture
def grid():
    axis = np.arange(-0.5, 2.55, H)
    x, y = np.meshgrid(axis, axis[:11], indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])


def plausible_map(nodes):
    """Fronts at 0.5 m/s leaving each stimulus ball 1 ms after onset."""
    return causality_bound(nodes, SITES, ONSETS + 1.0, RADIUS, speed=0.05)


def test_plausible_map_passes(grid):
    assert check_activation_map(plausible_map(grid), grid, SITES, ONSETS,
                                RADIUS, DURATION, H) == []


def test_map_shifted_before_causality_bound_fails(grid):
    act = plausible_map(grid)
    far = np.linalg.norm(grid - SITES[0], axis=1) > 1.0
    act[far] -= 0.8 * (act[far] - ONSETS[0])
    problems = check_activation_map(act, grid, SITES, ONSETS, RADIUS,
                                    DURATION, H)
    assert any("causality bound" in p for p in problems)


def test_unactivated_node_fails(grid):
    act = plausible_map(grid)
    act[-1] = np.nan
    problems = check_activation_map(act, grid, SITES, ONSETS, RADIUS,
                                    DURATION, H)
    assert any("did not" in p for p in problems)


def test_window_reach_only_asks_for_the_stimulus_ball(grid):
    act = plausible_map(grid)
    outside = np.min([np.linalg.norm(grid - s, axis=1) for s in SITES],
                     axis=0) > RADIUS
    act[outside] = np.nan
    assert check_activation_map(act, grid, SITES, ONSETS, RADIUS, DURATION,
                                H, reach=RADIUS) == []
    act[np.argmin(np.linalg.norm(grid - SITES[1], axis=1))] = np.nan
    assert check_activation_map(act, grid, SITES, ONSETS, RADIUS, DURATION,
                                H, reach=RADIUS) != []


def test_site_firing_after_its_pulse_fails(grid):
    act = plausible_map(grid)
    at_site = np.linalg.norm(grid - SITES[1], axis=1) <= H
    act[at_site] = ONSETS[1] + DURATION + 1.0
    problems = check_activation_map(act, grid, SITES, ONSETS, RADIUS,
                                    DURATION, H)
    assert any(p.startswith("site 1") for p in problems)


def calibration_output(sigma_hat=TRUTH, computed_shift=0.01):
    measured = np.linspace(60.0, 120.0, 12)
    computed = measured + computed_shift
    rows = [("I", m, m) for m in measured[:6]] + \
        [("II", m, c) for m, c in zip(measured[6:], computed[6:])]
    group2 = np.array([(m, c) for g, m, c in rows if g == "II"])
    mean_rel = float(np.mean(np.abs(group2[:, 1] - group2[:, 0]))
                     / group2[:, 0].max())
    validation = {"converged": True, "sigma_hat": list(sigma_hat),
                  "validation": {"mean_rel": mean_rel, "n_not_activated": 0}}
    return validation, rows


def test_good_calibration_passes():
    assert check_calibration(*calibration_output(), TRUTH) == []


def test_nan_at_group2_point_fails():
    validation, rows = calibration_output()
    group, measured, _ = rows[-1]
    rows[-1] = (group, measured, float("nan"))
    problems = check_calibration(validation, rows, TRUTH)
    assert any("never activated" in p for p in problems)


def test_sigma_hat_off_by_5_percent_fails():
    sigma_hat = (TRUTH[0], TRUTH[1] * 1.05, TRUTH[2])
    problems = check_calibration(*calibration_output(sigma_hat), TRUTH)
    assert any("sigma_hat" in p for p in problems)


def test_not_converged_fails():
    validation, rows = calibration_output()
    validation["converged"] = False
    assert check_calibration(validation, rows, TRUTH) != []


def test_reported_error_that_disagrees_with_correlation_fails():
    validation, rows = calibration_output()
    validation["validation"]["mean_rel"] *= 1.5
    problems = check_calibration(validation, rows, TRUTH)
    assert any("recomputed" in p for p in problems)


def test_large_validation_error_fails():
    problems = check_calibration(*calibration_output(computed_shift=5.0),
                                 TRUTH)
    assert any("mean relative error" in p for p in problems)


def test_residual_above_tolerance_fails():
    n = 50
    matrix = diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
    rhs = np.linspace(1.0, 2.0, n)
    x = np.linalg.solve(matrix.toarray(), rhs)
    assert residual_excess(matrix, rhs, x, 1e-10) <= 1.0
    x[n // 2] += 1e-6
    assert residual_excess(matrix, rhs, x, 1e-10) > 1.0


def test_layer_metrics_take_self_time_and_quiet_steps_from_spans():
    spans = [["cli", 0.0, 10.0, -1, {}],
             ["solver.init", 1.0, 1.5, 0, {"nnz": 27}],
             ["solver.run", 2.0, 9.0, 0, {"dt": 1.0, "first_onset": 2.0}]]
    start = 3.0
    for _ in range(3):
        step = len(spans)
        spans.append(["solver.step", start, start + 1.0, 2, {}])
        spans.append(["fem.gmres", start + 0.25, start + 0.75, step,
                      {"iterations": 4, "basis_bytes": 8e6}])
        start += 2.0
    m = layer_metrics(spans)
    assert m["solver.steps"] == 3
    assert m["solver.quiet_steps"] == 1
    assert m["solver.quiet_s"] == pytest.approx(2.0)
    assert m["solver.setup_s"] == pytest.approx(0.5 + 1.0)
    assert m["solver.loop_s"] == pytest.approx(5.0)
    assert m["solver.system_ms_per_step"] == pytest.approx(500.0)
    assert m["solver.bookkeeping_ms_per_step"] == pytest.approx(2000.0 / 3)
    assert m["fem.gmres_iters_mean"] == 4
    assert m["fem.gmres_basis_mb"] == pytest.approx(8.0)
    assert m["calibration.simulations"] == 0
