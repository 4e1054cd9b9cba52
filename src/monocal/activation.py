"""Activation-map analytics.

The site (`Site`) and group (`Group`) labels of measured points, the
extraction of computed activation times at mesh nodes (found with
`Mesh.nearest_nodes`, so each location must lie on one), and the one
comparison of computed with measured times: `error_stats` returns an
`ErrorReport` holding the signed residuals, the quadratic misfit that
drives calibration, the relative-error summaries reported for the
calibration (I) and validation (II) point groups, and the regression
diagnostics. The measured points themselves travel as a `RawCloud`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError
from .geometry import Mesh


class Site(str, Enum):
    SEPTUM = "septum"
    EPI_VEIN = "vein"


class Group(str, Enum):
    INPUT = "input"
    CAL_I = "I"
    VAL_II = "II"


def extract_activation_at(mesh: Mesh, activation: np.ndarray,
                          points) -> np.ndarray:
    """Computed activation times at the given locations (ms).

    activation is a nodal map of the mesh, as `SimulationOutput.activation`
    holds it. Locations must coincide with mesh nodes, within a relative
    1e-6 of the mesh's extent (the registration stage snaps them);
    non-activated nodes yield NaN, which the statistics below exclude and
    count.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    idx, dist = mesh.nearest_nodes(points)
    tol = 1e-6 * max(1.0, np.abs(mesh.nodes).max())
    if dist.max() > tol:
        j = int(np.argmax(dist))
        raise InvalidArgumentError(
            f"point {j} at {points[j]} is {dist[j]:.3g} cm from the nearest "
            "node; project measurements onto the mesh first")
    return activation[idx]


def five_number_summary(values) -> tuple[float, float, float, float, float]:
    """(min, Q1, median, Q3, max) with linearly interpolated quartiles."""
    v = np.asarray(values, dtype=float)
    q = np.percentile(v, [0.0, 25.0, 50.0, 75.0, 100.0])
    return tuple(float(x) for x in q)


@dataclass
class ErrorReport:
    """Per-group activation-time error summary.

    errors holds the signed residuals computed - measured (ms) of the
    activated points, in input order; positive where the simulation lags
    the measurements. Relative errors are the absolute residuals as
    fractions of a measured time. The plain ones divide by the largest
    measured time of the group and give mean_rel, std_rel and
    five_number_rel (their five-number summary, the boxplot variable);
    the pointwise ones divide by each point's own measured time. The
    fields but errors, as declared, are the 'validation' block of the
    validation.json that `calibrate` writes and `report` reads.
    """

    errors: np.ndarray
    mean_rel: float
    mean_rel_pointwise: float
    std_rel: float
    std_rel_pointwise: float
    five_number_rel: tuple[float, float, float, float, float]
    slope: float
    r_squared: float
    n_used: int
    n_not_activated: int

    @property
    def misfit(self) -> float:
        """Quadratic misfit F = sum of 0.5 errors^2 (ms^2).

        Any non-activated point makes F infinite: a map that leaves a
        point unactivated is never a better fit than one that activates it.
        """
        if self.n_not_activated:
            return float("inf")
        return float(0.5 * (self.errors @ self.errors))


def error_stats(computed, measured) -> ErrorReport:
    """Error metrics of computed against measured activation times.

    Mean relative errors follow the two printed conventions: absolute
    errors divided by the group's largest measured time, and divided by
    each point's own measured time. Standard deviations use the
    population convention (N divisor). NaN computed entries (not
    activated) are excluded and counted. The slope and R^2 are those of
    the least-squares line computed = a + slope * measured, NaN unless
    at least 3 points remain and their measured times vary.
    """
    c = np.asarray(computed, dtype=float)
    m = np.asarray(measured, dtype=float)
    ok = np.isfinite(c)
    n_missing = int((~ok).sum())
    c, m = c[ok], m[ok]
    if len(c) == 0:
        raise InvalidArgumentError("no activated points to compare")
    if np.any(m <= 0.0):
        raise InvalidArgumentError("measured activation times must be positive")

    d = c - m
    e = np.abs(d)
    tau_max = m.max()
    rel = e / tau_max
    rel_pw = e / m
    m0 = m - m.mean()
    sxx = m0 @ m0
    slope = r2 = np.nan
    if len(c) >= 3 and sxx > 0.0:
        slope = float((m0 @ (c - c.mean())) / sxx)
        residual = c - (c.mean() + slope * m0)
        total = c - c.mean()
        sst = total @ total
        r2 = float(1.0 if sst == 0.0 else 1.0 - (residual @ residual) / sst)
    return ErrorReport(
        errors=d,
        mean_rel=float(rel.mean()), mean_rel_pointwise=float(rel_pw.mean()),
        std_rel=float(rel.std()), std_rel_pointwise=float(rel_pw.std()),
        five_number_rel=five_number_summary(rel), slope=slope, r_squared=r2,
        n_used=int(len(c)), n_not_activated=n_missing)
