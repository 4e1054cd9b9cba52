"""Output checks that rest on physics and known truth, not stored output.

Each check returns a list of problems; an empty list means it passed.

- Activation maps: every node activates (within the reach of the run's
  window when the window is short), the nodes at each pacing site
  activate inside that site's pulse, and no node activates before the
  straight-line causality bound from the pacing sites at
  SPEED_CEILING_CM_PER_MS.
- Linear solves: the true residual meets the solver's relative tolerance.
- Calibration: convergence, recovery of the twin's conductivities, no
  unactivated validation point, and a validation error that matches the
  one recomputed from the per-point correlation file.
"""

from __future__ import annotations

import csv

import numpy as np

# 2 m/s, above any conduction speed the conductivity box allows
SPEED_CEILING_CM_PER_MS = 0.2
SIGMA_REL_TOL = 0.02
VALIDATION_MEAN_REL_MAX = 0.02


def causality_bound(nodes, sites, onsets, radius,
                    speed=SPEED_CEILING_CM_PER_MS) -> np.ndarray:
    """Earliest time (ms) any node can activate: a front leaving the edge
    of each stimulus ball at its onset and travelling in a straight line
    at `speed` (cm/ms)."""
    nodes = np.asarray(nodes, dtype=float)
    bound = np.full(len(nodes), np.inf)
    for site, onset in zip(np.atleast_2d(sites), np.atleast_1d(onsets)):
        gap = np.maximum(np.linalg.norm(nodes - site, axis=1) - radius, 0.0)
        np.minimum(bound, onset + gap / speed, out=bound)
    return bound


def check_activation_map(activation, nodes, sites, onsets, radius, duration,
                         h, reach=None) -> list[str]:
    """Problems with a forward activation map (ms per node, NaN when the
    node never activated).

    Without `reach` every node must activate. With it (cm), only the
    nodes within that distance of a site must: a window that ends soon
    after the pulse guarantees the stimulus ball and little beyond.

    The pulse window [onset, onset + duration] is checked on the nodes
    within one mesh spacing h of each site. Further out in the stimulus
    ball a node may be reached first by a neighbouring site's earlier
    front, or fire only after its pulse once the local front arrives.
    """
    act = np.asarray(activation, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    onsets = np.atleast_1d(np.asarray(onsets, dtype=float))
    problems = []

    distance = np.min([np.linalg.norm(nodes - s, axis=1) for s in sites],
                      axis=0)
    must = np.ones(len(act), dtype=bool) if reach is None \
        else distance <= reach
    missing = must & ~np.isfinite(act)
    if missing.any():
        problems.append(f"{int(missing.sum())} of {int(must.sum())} nodes "
                        "that must activate did not")

    for k, (site, onset) in enumerate(zip(sites, onsets)):
        core = np.linalg.norm(nodes - site, axis=1) <= h * (1.0 + 1e-9)
        t = act[core]
        outside = ~((t >= onset) & (t <= onset + duration))
        if not core.any() or outside.any():
            problems.append(f"site {k}: {int(outside.sum())} of "
                            f"{int(core.sum())} nodes at the site activate "
                            f"outside [{onset:g}, {onset + duration:g}] ms")

    bound = causality_bound(nodes, sites, onsets, radius)
    early = np.isfinite(act) & (act < bound)
    if early.any():
        worst = float((bound - act)[early].max())
        problems.append(f"{int(early.sum())} nodes activate before the "
                        f"causality bound (worst by {worst:.3g} ms)")
    return problems


def residual_excess(matrix, rhs, x, rel_tol) -> float:
    """||b - A x|| over rel_tol ||b||; above 1 means the solve missed its
    tolerance."""
    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        return 0.0
    return float(np.linalg.norm(rhs - matrix @ x) / (rel_tol * norm_b))


def read_correlation(path) -> list[tuple[str, float, float]]:
    """(group, measured, computed) rows; computed is NaN when blank."""
    with open(path, newline="") as handle:
        return [(row["group"], float(row["tau_measured_ms"]),
                 float(row["tau_computed_ms"]) if row["tau_computed_ms"]
                 else float("nan"))
                for row in csv.DictReader(handle)]


def check_calibration(validation: dict, correlation, truth_sigma) -> list[str]:
    """Problems with a twin calibration's validation.json payload and its
    correlation rows, against the twin's true conductivities."""
    problems = []
    if validation.get("converged") is not True:
        problems.append("calibration did not report converged")
    sigma_hat = np.asarray(validation.get("sigma_hat", [np.nan] * 3), float)
    truth = np.asarray(truth_sigma, dtype=float)
    rel = np.abs(sigma_hat - truth) / truth
    if not np.all(rel <= SIGMA_REL_TOL):
        problems.append(f"sigma_hat {sigma_hat.tolist()} is not within "
                        f"{SIGMA_REL_TOL:.0%} of {truth.tolist()}")

    group2 = [(m, c) for g, m, c in correlation if g == "II"]
    if not group2:
        return problems + ["correlation file has no group-II rows"]
    measured, computed = np.array(group2).T
    if not np.isfinite(computed).all():
        problems.append(f"{int((~np.isfinite(computed)).sum())} group-II "
                        "points never activated")
        return problems
    mean_rel = float(np.mean(np.abs(computed - measured)) / measured.max())
    if not mean_rel < VALIDATION_MEAN_REL_MAX:
        problems.append(f"group-II mean relative error {mean_rel:.4f} is "
                        f"not below {VALIDATION_MEAN_REL_MAX}")
    report = validation.get("validation") or {}
    reported = report.get("mean_rel", np.nan)
    # 9 significant digits per time in the file bound the recomputation's
    # rounding by about 1e-8 of the largest time over the largest measured
    if not abs(reported - mean_rel) <= 2e-8 * (1.0 + mean_rel):
        problems.append(f"validation.json mean_rel {reported} differs from "
                        f"{mean_rel} recomputed from correlation.csv")
    if report.get("n_not_activated", 1) != 0:
        problems.append("validation.json counts unactivated group-II points")
    return problems

