"""Box-constrained direct search for the conductivity triple.

Each iteration simulates at the current conductivities and compares the
computed with the measured times of the calibration points once, in one
`activation.ErrorReport`: its signed residuals give the summed error E
and the misfit F, its relative errors eI. The search nudges every
conductivity component along E with fixed acceleration coefficients,
clamping to the physiological box. The update uses the error expressed
in seconds; with conductivities in mS/cm that makes the printed
coefficients (0.45, 0.1, 0.05) dimensionally sensible. The calibration
(group I) and validation (group II) points arrive as
`registration.RawCloud`s.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import activation as act
from . import solver as slv
from .errors import InvalidArgumentError
from .fibers import FiberField
from .geometry import Mesh
from .registration import RawCloud

logger = logging.getLogger(__name__)

DEFAULT_BETA = (0.45, 0.10, 0.05)
TRACE_HEADER = ("iter", "sigma_f", "sigma_s", "sigma_n", "E_ms", "F_ms2",
                "eI_pct")
# The search stops when the misfit of each of the last two steps changed
# by less than this fraction of the latest misfit.
STAGNATION_REL = 1e-3


@dataclass(frozen=True)
class ConductivityBox:
    """Physiological bounds (mS/cm) for each conductivity component."""

    f: tuple[float, float] = (0.70, 2.20)
    s: tuple[float, float] = (0.16, 0.48)
    n: tuple[float, float] = (0.03, 0.10)

    def __post_init__(self):
        for name, (lo, hi) in (("f", self.f), ("s", self.s), ("n", self.n)):
            if not 0.0 < lo < hi < np.inf:
                raise InvalidArgumentError(f"box for sigma_{name} must satisfy "
                                           f"0 < lo < hi < inf, got {(lo, hi)}")

    @property
    def lows(self) -> np.ndarray:
        return np.array([self.f[0], self.s[0], self.n[0]])

    @property
    def highs(self) -> np.ndarray:
        return np.array([self.f[1], self.s[1], self.n[1]])

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lows + self.highs)

    def contains(self, sigma) -> bool:
        s = np.asarray(sigma, dtype=float)
        return bool(np.all(s >= self.lows) and np.all(s <= self.highs))


@dataclass(frozen=True)
class CalibrationConfig:
    """Direct-search settings; solver carries the shared run parameters."""

    solver: slv.SolverParams = field(default_factory=slv.paced_params)
    box: ConductivityBox = field(default_factory=ConductivityBox)
    beta: tuple[float, float, float] = DEFAULT_BETA
    initial_sigma: tuple[float, float, float] | None = None
    tol_ms: float = 1.0
    max_iters: int = 20
    isotropic: bool = False
    max_cal_points: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tol_ms < np.inf or self.max_iters < 1:
            raise InvalidArgumentError(
                "tol_ms must be positive and finite, max_iters >= 1")
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (3,) or not np.isfinite(beta).all():
            raise InvalidArgumentError(
                f"beta must be three finite values, got {self.beta}")
        if self.max_cal_points is not None and self.max_cal_points < 1:
            raise InvalidArgumentError(
                f"max_cal_points must be >= 1, got {self.max_cal_points}")
        if self.initial_sigma is not None \
                and not self.box.contains(self.initial_sigma):
            raise InvalidArgumentError(
                f"initial sigma {self.initial_sigma} lies outside the box")

    def start_sigma(self) -> np.ndarray:
        if self.initial_sigma is not None:
            return np.asarray(self.initial_sigma, dtype=float)
        mid = self.box.midpoint()
        if self.isotropic:
            mid[:] = mid[0]
        return mid


@dataclass
class IterationRecord:
    """State of one direct-search iteration, before its update: the
    conductivities simulated and the group-I comparison at them."""

    sigma: np.ndarray
    report: act.ErrorReport
    clamped: tuple[bool, bool, bool] = (False, False, False)


@dataclass
class CalibrationResult:
    """The estimate and the activation times simulated at it.

    calibration is the group-I cloud as used: ordered by time, then
    acquisition order, and cut to max_cal_points. calibration_computed
    and validation_computed follow the order of that cloud and of the
    validation cloud given; the latter is empty, and validation None,
    when there was none.
    """

    sigma_hat: np.ndarray
    iterations: list[IterationRecord]
    converged: bool
    validation: act.ErrorReport | None
    validation_computed: np.ndarray
    calibration_computed: np.ndarray
    calibration: RawCloud


def update_sigma(sigma, error_sum_ms: float, box: ConductivityBox,
                 beta=DEFAULT_BETA, isotropic: bool = False
                 ) -> tuple[np.ndarray, tuple[bool, bool, bool]]:
    """One direct-search step: sigma + beta * E, clamped to the box.

    E enters in seconds (the convention under which the published
    acceleration values are meaningful). Returns the new triple and
    per-component clamp flags. In isotropic mode a single conductivity is
    updated with the fiber coefficient and bounds, keeping the triple equal.
    """
    sigma = np.asarray(sigma, dtype=float)
    e_s = error_sum_ms * 1e-3
    if isotropic:
        value = float(sigma[0] + beta[0] * e_s)
        clamped_value = min(max(value, box.f[0]), box.f[1])
        return np.full(3, clamped_value), (clamped_value != value,) * 3
    raw = sigma + np.asarray(beta, dtype=float) * e_s
    new = np.minimum(np.maximum(raw, box.lows), box.highs)
    return new, tuple(bool(x) for x in new != raw)


def calibrate(mesh: Mesh, fiber_field: FiberField | None,
              stim_plan: slv.StimulusPlan, cal: RawCloud,
              config: CalibrationConfig | None = None,
              val: RawCloud | None = None) -> CalibrationResult:
    """Estimate conductivities from the calibration points by direct search.

    Stops when the mean per-point signed error falls below tol_ms and
    every calibration point activated (converged), or on misfit
    stagnation / iteration budget (converged False, best-misfit iterate
    kept; an iterate with unactivated points has infinite misfit).

    Every iteration reads the calibration and validation times from the
    same simulation, so the estimate needs no run of its own: its times
    are those stored for the last iterate when converged, otherwise for
    the first iterate of lowest misfit. calibration_computed is always
    set; the validation report is computed from the estimate's times
    alone when a non-empty validation cloud is given.
    """
    config = config or CalibrationConfig()
    if not len(cal):
        raise InvalidArgumentError("calibration cloud is empty")
    cal = cal.subset(np.lexsort((cal.order, cal.taus))[:config.max_cal_points])
    has_val = val is not None and len(val) > 0
    # one lookup per iteration gives both groups' times
    points = np.vstack([cal.points, val.points]) if has_val else cal.points
    n_cal = len(cal)

    sigma = config.start_sigma()
    records: list[IterationRecord] = []
    times: list[np.ndarray] = []
    converged = False

    for it in range(config.max_iters):
        params = replace(config.solver, sigma=tuple(sigma))
        try:
            output = slv.simulate(mesh, fiber_field, params, stim_plan)
        except Exception:
            logger.error("simulation failed at iteration %d, sigma=%s",
                         it, sigma)
            raise
        times.append(act.extract_activation_at(output, points))
        report = act.error_stats(times[-1][:n_cal], cal.taus)
        record = IterationRecord(sigma=sigma.copy(), report=report)
        records.append(record)
        e_mean = report.errors.mean()
        logger.info("iter %d sigma=(%.4f, %.4f, %.4f) E=%.3f ms F=%.3f ms^2 "
                    "eI=%.3f%%", it, *sigma, e_mean, report.misfit,
                    100.0 * report.mean_rel)

        if abs(e_mean) < config.tol_ms and report.n_not_activated == 0:
            converged = True
            break
        if len(records) >= 3:
            f0, f1, f2 = (r.report.misfit for r in records[-3:])
            scale = max(abs(f2), 1e-300)
            if (abs(f2 - f1) < STAGNATION_REL * scale
                    and abs(f1 - f0) < STAGNATION_REL * scale):
                logger.info("misfit stagnated; stopping")
                break
        sigma, clamped = update_sigma(sigma, float(report.errors.sum()),
                                      config.box, config.beta,
                                      config.isotropic)
        record.clamped = clamped

    if converged:
        best = len(records) - 1
    else:
        best = min(range(len(records)), key=lambda i: records[i].report.misfit)
    val_computed = times[best][n_cal:]
    validation = act.error_stats(val_computed, val.taus) if has_val else None
    return CalibrationResult(sigma_hat=records[best].sigma,
                             iterations=records, converged=converged,
                             validation=validation,
                             validation_computed=val_computed,
                             calibration_computed=times[best][:n_cal],
                             calibration=cal)


def write_trace(path, result: CalibrationResult) -> None:
    """Iteration trace as CSV with the fixed reporting header."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        for i, rec in enumerate(result.iterations):
            writer.writerow([i, f"{rec.sigma[0]:.9g}", f"{rec.sigma[1]:.9g}",
                             f"{rec.sigma[2]:.9g}",
                             f"{rec.report.errors.sum():.9g}",
                             f"{rec.report.misfit:.9g}",
                             f"{100.0 * rec.report.mean_rel:.9g}"])
