"""Box-constrained direct search for the conductivity triple.

Two parts, split between the run and the search. An `Evaluator` is one
calibration problem's forward model: a mesh, a fiber field, a stimulus
plan and the run's `SolverParams`. It simulates a triple the first time
it is asked for, keeps that run's nodal activation map (one float64 per
node, keyed on the triple's bytes, and nothing else of the run) and reads
the times at any node-snapped point set from it. So any number of
searches or studies on one problem simulate each distinct triple once.

`calibrate` is the search: its `CalibrationConfig` holds only search
settings. Each iteration reads the calibration (group I) and validation
(group II) times at one triple and compares group I with the measured
times in one `activation.ErrorReport`, whose signed residuals give the
summed error E and the misfit F; a triple the search returns to (every
moving component clamped) gets its record rebuilt from the cached map.
Each step moves every component along E, taken in seconds, with fixed
acceleration coefficients (0.45, 0.1, 0.05 for mS/cm) and clamps it to
the physiological box. Both groups arrive as `registration.RawCloud`s.
The search returns a `CalibrationResult` and knows no file format: the
command line writes its trace and validation files. A failed run names
its iteration, triple and point group through `errors.located`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import activation as act
from . import solver as slv
from .errors import InvalidArgumentError, located
from .fibers import FiberField
from .geometry import Mesh
from .registration import RawCloud

logger = logging.getLogger(__name__)

DEFAULT_BETA = (0.45, 0.10, 0.05)
# The search stops when the misfit of each of the last two steps changed
# by less than this fraction of the latest misfit.
STAGNATION_REL = 1e-3
# where a calibration failed, formatted by errors.located
_AT = "iteration %d (sigma=(%.4f, %.4f, %.4f))"


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
    """Direct-search settings; the run's parameters belong to the `Evaluator`.

    An isotropic search moves the three equal conductivities as one
    value, within the fiber bounds and with the fiber coefficient. Making
    the config sets box and beta to that once: the s and n bounds become
    the f bounds, and beta becomes beta_f three times.
    """

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
        if self.isotropic:
            object.__setattr__(self, "box", replace(self.box, s=self.box.f,
                                                    n=self.box.f))
            object.__setattr__(self, "beta", (self.beta[0],) * 3)
        if self.initial_sigma is not None:
            start = np.asarray(self.initial_sigma, dtype=float)
            if not (start.shape == (3,) and self.box.contains(start) and (
                    not self.isotropic or bool(np.all(start == start[0])))):
                raise InvalidArgumentError(
                    f"initial sigma {self.initial_sigma} lies outside the "
                    "box" + (" or is not isotropic" if self.isotropic else ""))

    def start_sigma(self) -> np.ndarray:
        if self.initial_sigma is not None:
            return np.asarray(self.initial_sigma, dtype=float)
        return self.box.midpoint()


@dataclass(frozen=True)
class IterationRecord:
    """One simulated conductivity triple: the calibration and validation
    times computed at it and the group-I comparison."""

    sigma: np.ndarray
    calibration_computed: np.ndarray
    validation_computed: np.ndarray
    report: act.ErrorReport


@dataclass
class CalibrationResult:
    """The search's iterates and the one chosen as the estimate.

    iterations has one record per trace row, a revisited triple's record
    again. best is the last iterate when converged, else the first of
    lowest misfit. calibration is the group-I cloud as used: ordered by
    time, then acquisition order, and cut to max_cal_points. The records'
    times follow it and the validation cloud given. validation compares
    best's group-II times with the measured ones.
    """

    iterations: list[IterationRecord]
    best: IterationRecord
    converged: bool
    validation: act.ErrorReport
    calibration: RawCloud


def update_sigma(sigma, error_sum_ms: float, box: ConductivityBox,
                 beta=DEFAULT_BETA) -> np.ndarray:
    """One direct-search step: sigma + beta * E, clamped to the box.

    E enters in seconds (the convention under which the published
    acceleration values are meaningful).
    """
    sigma = np.asarray(sigma, dtype=float)
    e_s = error_sum_ms * 1e-3
    return np.clip(sigma + np.asarray(beta, dtype=float) * e_s, box.lows,
                   box.highs)


class Evaluator:
    """One calibration problem's forward model: sigma -> activation map.

    solver holds the run's parameters, whose sigma each call replaces.
    maps holds the nodal activation map of each triple simulated so far,
    under the triple's float64 bytes.
    """

    def __init__(self, mesh: Mesh, fiber_field: FiberField | None,
                 stim_plan: slv.StimulusPlan, solver: slv.SolverParams):
        self.mesh = mesh
        self.fiber_field = fiber_field
        self.stim_plan = stim_plan
        self.solver = solver
        self.maps: dict[bytes, np.ndarray] = {}

    def times(self, sigma, points) -> np.ndarray:
        """Activation times (ms, NaN where not activated) at sigma at
        node-snapped points."""
        sigma = np.asarray(sigma, dtype=float)
        key = sigma.tobytes()
        if key not in self.maps:
            params = replace(self.solver, sigma=tuple(sigma))
            self.maps[key] = slv.simulate(self.mesh, self.fiber_field, params,
                                          self.stim_plan).activation
        return act.extract_activation_at(self.mesh, self.maps[key], points)


def calibrate(evaluator: Evaluator, cal: RawCloud, config: CalibrationConfig,
              val: RawCloud) -> CalibrationResult:
    """Fit sigma to group I by direct search and validate it on group II.

    Stops when the mean per-point signed error falls below tol_ms and
    every calibration point activated (converged), or on misfit
    stagnation / iteration budget (converged False, best-misfit iterate
    kept; an iterate with unactivated points has infinite misfit).

    The evaluator runs each distinct triple once, and every record carries
    the times of both groups; the validation report compares the
    estimate's group-II times with the measured ones. Both clouds must be
    non-empty. A failed simulation's MonocalError, or a group with no
    activated point, is raised again by `errors.located` with the
    iteration, the triple and the group at fault in front of its message.
    """
    for name, cloud in (("calibration", cal), ("validation", val)):
        if not len(cloud):
            raise InvalidArgumentError(f"{name} cloud is empty")
    cal = cal.subset(np.lexsort((cal.order, cal.taus))[:config.max_cal_points])
    # one lookup per iteration gives both groups' times
    points = np.vstack([cal.points, val.points])
    n_cal = len(cal)
    records: list[IterationRecord] = []

    sigma = config.start_sigma()
    for it in range(config.max_iters):
        with located(_AT, it, *sigma):
            times = evaluator.times(sigma, points)
        with located(_AT + ": group I", it, *sigma):
            report = act.error_stats(times[:n_cal], cal.taus)
        records.append(IterationRecord(
            sigma=sigma, calibration_computed=times[:n_cal],
            validation_computed=times[n_cal:], report=report))
        e_mean = report.errors.mean()
        logger.info("iter %d sigma=(%.4f, %.4f, %.4f) E=%.3f ms F=%.3f ms^2 "
                    "eI=%.3f%%", it, *sigma, e_mean, report.misfit,
                    100.0 * report.mean_rel)
        converged = bool(abs(e_mean) < config.tol_ms
                         and report.n_not_activated == 0)
        if converged:
            break
        if len(records) >= 3:
            f0, f1, f2 = (r.report.misfit for r in records[-3:])
            scale = max(abs(f2), 1e-300)
            if (abs(f2 - f1) < STAGNATION_REL * scale
                    and abs(f1 - f0) < STAGNATION_REL * scale):
                logger.info("misfit stagnated; stopping")
                break
        sigma = update_sigma(sigma, float(report.errors.sum()), config.box,
                             config.beta)

    # the last iterate when converged, else the first of lowest misfit
    misfits = [r.report.misfit for r in records]
    best_it = len(records) - 1 if converged else misfits.index(min(misfits))
    best = records[best_it]
    with located(_AT + ": group II", best_it, *best.sigma):
        validation = act.error_stats(best.validation_computed, val.taus)
    return CalibrationResult(iterations=records, best=best,
                             converged=converged, validation=validation,
                             calibration=cal)

