"""Box-constrained direct search for the conductivity triple.

Each iteration simulates at the current conductivities, sums the signed
activation-time residuals over the calibration points, and nudges every
conductivity component along that signed error with fixed acceleration
coefficients, clamping to the physiological box. The update uses the
error expressed in seconds; with conductivities in mS/cm that makes the
printed coefficients (0.45, 0.1, 0.05) dimensionally sensible.
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

logger = logging.getLogger(__name__)

DEFAULT_BETA = (0.45, 0.10, 0.05)
TRACE_HEADER = ("iter", "sigma_f", "sigma_s", "sigma_n", "E_ms", "F_ms2",
                "eI_pct")


@dataclass(frozen=True)
class ConductivityBox:
    """Physiological bounds (mS/cm) for each conductivity component."""

    f: tuple[float, float] = (0.70, 2.20)
    s: tuple[float, float] = (0.16, 0.48)
    n: tuple[float, float] = (0.03, 0.10)

    def __post_init__(self):
        for name, (lo, hi) in (("f", self.f), ("s", self.s), ("n", self.n)):
            if not 0.0 < lo < hi:
                raise InvalidArgumentError(
                    f"box for sigma_{name} must satisfy 0 < lo < hi, got {(lo, hi)}")

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

    solver: slv.SolverParams = field(default_factory=lambda: slv.SolverParams(
        t_end=150.0, stop_when_activated=True))
    box: ConductivityBox = field(default_factory=ConductivityBox)
    beta: tuple[float, float, float] = DEFAULT_BETA
    initial_sigma: tuple[float, float, float] | None = None
    tol_ms: float = 1.0
    max_iters: int = 20
    stagnation_rel: float = 1e-3
    isotropic: bool = False
    max_cal_points: int | None = None

    def __post_init__(self):
        if self.tol_ms <= 0.0 or self.max_iters < 1:
            raise InvalidArgumentError("tol_ms must be positive, max_iters >= 1")
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
    """State of one direct-search iteration, before its update."""

    sigma: np.ndarray
    error_sum_ms: float
    error_mean_ms: float
    misfit_ms2: float
    cal_mean_rel: float
    n_not_activated: int
    clamped: tuple[bool, bool, bool] = (False, False, False)


@dataclass
class CalibrationResult:
    sigma_hat: np.ndarray
    iterations: list[IterationRecord]
    converged: bool
    validation: act.ErrorReport | None
    validation_computed: np.ndarray | None = None
    calibration_computed: np.ndarray | None = None
    calibration_samples: list[act.ActivationSample] | None = None


def mean_signed_error(computed, measured) -> tuple[float, float]:
    """Signed residual sum and its per-point mean (both ms).

    Positive when the simulation lags the measurements. Pairs whose
    computed time is NaN (not activated) are excluded.
    """
    c = np.atleast_1d(np.asarray(computed, dtype=float))
    m = np.atleast_1d(np.asarray(measured, dtype=float))
    if c.shape != m.shape:
        raise InvalidArgumentError("computed and measured lengths differ")
    ok = np.isfinite(c)
    if not ok.any():
        raise InvalidArgumentError("no activated calibration points")
    d = c[ok] - m[ok]
    return float(d.sum()), float(d.mean())


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
              stim_plan: slv.StimulusPlan,
              cal_samples: list[act.ActivationSample],
              config: CalibrationConfig | None = None,
              val_samples: list[act.ActivationSample] | None = None
              ) -> CalibrationResult:
    """Estimate conductivities from calibration samples by direct search.

    Stops when the mean per-point signed error falls below tol_ms and
    every calibration point activated (converged), or on misfit
    stagnation / iteration budget (converged False, best-misfit iterate
    kept; an iterate with unactivated points has infinite misfit). A
    final simulation at the estimate produces the validation report when
    val_samples are given.
    """
    config = config or CalibrationConfig()
    if not cal_samples:
        raise InvalidArgumentError("calibration sample list is empty")
    cal_samples = sorted(cal_samples, key=lambda s: (s.tau, s.order))
    if config.max_cal_points is not None:
        cal_samples = cal_samples[:config.max_cal_points]
    cal_points = np.array([s.location for s in cal_samples])
    cal_taus = np.array([s.tau for s in cal_samples])

    sigma = config.start_sigma()
    records: list[IterationRecord] = []
    converged = False

    for it in range(config.max_iters):
        params = replace(config.solver, sigma=tuple(sigma))
        try:
            output = slv.simulate(mesh, fiber_field, params, stim_plan)
        except Exception:
            logger.error("simulation failed at iteration %d, sigma=%s",
                         it, sigma)
            raise
        computed = act.extract_activation_at(output, cal_points)
        e_sum, e_mean = mean_signed_error(computed, cal_taus)
        misfit = act.misfit(computed, cal_taus)
        report = act.error_stats(computed, cal_taus)
        record = IterationRecord(
            sigma=sigma.copy(), error_sum_ms=e_sum, error_mean_ms=e_mean,
            misfit_ms2=misfit, cal_mean_rel=report.mean_rel,
            n_not_activated=report.n_not_activated)
        records.append(record)
        logger.info("iter %d sigma=(%.4f, %.4f, %.4f) E=%.3f ms F=%.3f ms^2 "
                    "eI=%.3f%%", it, *sigma, e_mean, misfit,
                    100.0 * report.mean_rel)

        if abs(e_mean) < config.tol_ms and report.n_not_activated == 0:
            converged = True
            break
        if len(records) >= 3:
            f0, f1, f2 = (r.misfit_ms2 for r in records[-3:])
            scale = max(abs(f2), 1e-300)
            if (abs(f2 - f1) < config.stagnation_rel * scale
                    and abs(f1 - f0) < config.stagnation_rel * scale):
                logger.info("misfit stagnated; stopping")
                break
        sigma, clamped = update_sigma(sigma, e_sum, config.box, config.beta,
                                      config.isotropic)
        record.clamped = clamped

    if converged:
        sigma_hat = records[-1].sigma
    else:
        sigma_hat = min(records, key=lambda r: r.misfit_ms2).sigma

    validation = None
    val_computed = None
    cal_computed = None
    if val_samples:
        params = replace(config.solver, sigma=tuple(sigma_hat))
        output = slv.simulate(mesh, fiber_field, params, stim_plan)
        val_points = np.array([s.location for s in val_samples])
        val_computed = act.extract_activation_at(output, val_points)
        cal_computed = act.extract_activation_at(output, cal_points)
        validation = act.error_stats(val_computed,
                                     [s.tau for s in val_samples])
    return CalibrationResult(sigma_hat=sigma_hat, iterations=records,
                             converged=converged, validation=validation,
                             validation_computed=val_computed,
                             calibration_computed=cal_computed,
                             calibration_samples=cal_samples)


def write_trace(path, result: CalibrationResult) -> None:
    """Iteration trace as CSV with the fixed reporting header."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        for i, rec in enumerate(result.iterations):
            writer.writerow([i, f"{rec.sigma[0]:.9g}", f"{rec.sigma[1]:.9g}",
                             f"{rec.sigma[2]:.9g}", f"{rec.error_sum_ms:.9g}",
                             f"{rec.misfit_ms2:.9g}",
                             f"{100.0 * rec.cal_mean_rel:.9g}"])
