"""Activation-map analytics.

Extraction of computed activation times at measurement locations, the
quadratic misfit driving calibration, relative-error summaries for the
calibration (I) and validation (II) point groups, and the regression
diagnostics reported alongside them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial import cKDTree

from .errors import (DegenerateConfigurationError, InsufficientDataError,
                     InvalidArgumentError)
from .solver import SimulationOutput


class Site(str, Enum):
    SEPTUM = "septum"
    EPI_VEIN = "vein"


class Group(str, Enum):
    INPUT = "input"
    CAL_I = "I"
    VAL_II = "II"


@dataclass
class ActivationSample:
    """One measured activation point, in mesh coordinates (cm, ms)."""

    location: np.ndarray
    tau: float
    site: Site
    group: Group
    order: int = 0

    def __post_init__(self):
        self.location = np.asarray(self.location, dtype=float)
        if self.location.shape != (3,) or not np.isfinite(self.location).all():
            raise InvalidArgumentError("sample location must be a finite 3-vector")
        if not np.isfinite(self.tau) or self.tau < 0.0:
            raise InvalidArgumentError(f"activation time {self.tau} must be >= 0")
        if (self.group is Group.INPUT) != (self.site is Site.SEPTUM):
            raise InvalidArgumentError(
                "septal samples are stimulus inputs and vice versa")


def extract_activation_at(output: SimulationOutput, points) -> np.ndarray:
    """Computed activation times at the given locations (ms).

    Locations must coincide with mesh nodes (the registration stage snaps
    them); non-activated nodes yield NaN, which the statistics below
    exclude and count.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    tree = cKDTree(output.mesh.nodes)
    dist, idx = tree.query(points)
    tol = 1e-6 * max(1.0, np.abs(output.mesh.nodes).max())
    if dist.max() > tol:
        j = int(np.argmax(dist))
        raise InvalidArgumentError(
            f"point {j} at {points[j]} is {dist[j]:.3g} cm from the nearest "
            "node; project measurements onto the mesh first")
    return output.activation[idx]


def _paired(computed, measured):
    c = np.atleast_1d(np.asarray(computed, dtype=float))
    m = np.atleast_1d(np.asarray(measured, dtype=float))
    if c.shape != m.shape or c.ndim != 1:
        raise InvalidArgumentError(
            f"computed and measured lengths differ: {c.shape} vs {m.shape}")
    return c, m


def misfit(computed, measured) -> float:
    """Quadratic misfit F = sum of 0.5 |tau_computed - tau_measured|^2 (ms^2).

    A non-activated (NaN) computed time makes F infinite: a map that
    leaves a point unactivated is never a better fit than one that
    activates it.
    """
    c, m = _paired(computed, measured)
    if np.isnan(c).any():
        return float("inf")
    d = c - m
    return float(0.5 * (d @ d))


def five_number_summary(values) -> tuple[float, float, float, float, float]:
    """(min, Q1, median, Q3, max) with linearly interpolated quartiles."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise InvalidArgumentError("five-number summary of an empty set")
    q = np.percentile(v, [0.0, 25.0, 50.0, 75.0, 100.0])
    return tuple(float(x) for x in q)


def regression_stats(computed, measured) -> tuple[float, float]:
    """Slope and R^2 of the least-squares line computed = a + s * measured."""
    c, m = _paired(computed, measured)
    ok = np.isfinite(c) & np.isfinite(m)
    c, m = c[ok], m[ok]
    if len(c) < 3:
        raise InsufficientDataError("regression needs at least 3 points")
    m0 = m - m.mean()
    sxx = m0 @ m0
    if sxx <= 0.0:
        raise DegenerateConfigurationError("measured times have zero variance")
    slope = (m0 @ (c - c.mean())) / sxx
    residual = c - (c.mean() + slope * m0)
    total = c - c.mean()
    sst = total @ total
    r2 = 1.0 if sst == 0.0 else 1.0 - (residual @ residual) / sst
    return float(slope), float(r2)


@dataclass
class ErrorReport:
    """Per-group activation-time error summary.

    Relative quantities are fractions; rel_errors normalizes each
    absolute error by the largest measured time of the group, while
    pointwise_rel_errors normalizes by each point's own measured time.
    The five-number summary describes rel_errors (the boxplot variable).
    """

    abs_errors: np.ndarray
    rel_errors: np.ndarray
    pointwise_rel_errors: np.ndarray
    mean_rel: float
    mean_rel_pointwise: float
    std_rel: float
    std_rel_pointwise: float
    summary: tuple[float, float, float, float, float]
    slope: float
    r_squared: float
    n_used: int
    n_not_activated: int


def error_stats(computed, measured) -> ErrorReport:
    """Error metrics of computed against measured activation times.

    Mean relative errors follow the two printed conventions: absolute
    errors divided by the group's largest measured time, and divided by
    each point's own measured time. Standard deviations use the
    population convention (N divisor). NaN computed entries (not
    activated) are excluded and counted.
    """
    c, m = _paired(computed, measured)
    ok = np.isfinite(c)
    n_missing = int((~ok).sum())
    c, m = c[ok], m[ok]
    if len(c) == 0:
        raise InvalidArgumentError("no activated points to compare")
    if np.any(m <= 0.0):
        raise InvalidArgumentError("measured activation times must be positive")

    e = np.abs(c - m)
    tau_max = m.max()
    rel = e / tau_max
    rel_pw = e / m
    if len(c) >= 3 and np.ptp(m) > 0.0:
        slope, r2 = regression_stats(c, m)
    else:
        slope, r2 = np.nan, np.nan
    return ErrorReport(
        abs_errors=e, rel_errors=rel, pointwise_rel_errors=rel_pw,
        mean_rel=float(rel.mean()), mean_rel_pointwise=float(rel_pw.mean()),
        std_rel=float(rel.std()), std_rel_pointwise=float(rel_pw.std()),
        summary=five_number_summary(rel), slope=slope, r_squared=r2,
        n_used=int(len(c)), n_not_activated=n_missing)
