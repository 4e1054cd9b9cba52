"""Independent references the tests check the package against.

None of these is on a path the command line runs: the three membrane
currents and a single-cell integrator, a planar conduction-velocity fit,
stimulus plans for one point and for a whole boundary face, one-bincount
assembly and the consistent mass matrix, rigid transform helpers, and
element volumes from LAPACK's determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from monocal import _hex
from monocal.errors import InsufficientDataError, InvalidArgumentError
from monocal.fem import AssemblyPlan
from monocal.geometry import Mesh
from monocal.ionic import (PARAMS, _heav, _tau_out_plateau, _tau_out_rest,
                           gating_rhs, reaction_coefficients, rest_state)
from monocal.registration import RigidTransform
from monocal.solver import SimulationOutput, StimulusPlan


# --- membrane model -----------------------------------------------------------


def ionic_currents(u, w):
    """The three model currents at (u, w), each as a rate in 1/ms.

    w holds the gates in its last axis: shape (3,) or (n, 3). The fast
    inward and slow inward currents are negative (depolarizing), the
    outward current non-negative on the physiological range.
    """
    p = PARAMS
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    w1, w2, w3 = w[..., 0], w[..., 1], w[..., 2]

    h_fast = _heav(u - p.v_fast_threshold)
    h_slow = _heav(u - p.v_slow_threshold)

    i_fast = -h_fast * (u - p.v_fast_threshold) * (p.v_overshoot - u) * w1 / p.tau_fast
    i_out = (u * (1.0 - h_slow) / _tau_out_rest(u)
             + h_slow / _tau_out_plateau(u))
    i_slow = -h_slow * w2 * w3 / p.tau_slow_inward
    return i_fast, i_out, i_slow


@dataclass
class CellTrace:
    """Time series from a single-cell run."""

    t: np.ndarray
    u: np.ndarray
    w: np.ndarray

    def activation_time(self) -> float:
        """Instant of the steepest potential rise."""
        du = np.abs(np.diff(self.u)) / np.diff(self.t)
        return float(self.t[1 + int(np.argmax(du))])

    def peak(self) -> float:
        return float(self.u.max())

    def apd(self, level: float = 0.9) -> float:
        """Action potential duration at the given repolarization level."""
        peak = self.u.max()
        thresh = peak * (1.0 - level)
        above = np.nonzero(self.u > thresh)[0]
        if above.size == 0:
            return 0.0
        return float(self.t[above[-1]] - self.t[above[0]])


def run_single_cell(dt: float = 0.025, t_end: float = 500.0,
                    stim_times=(0.0,), stim_duration: float = 1.0,
                    stim_rate: float = 0.5, state=None) -> CellTrace:
    """Integrate one cell with the same scheme the tissue solver uses.

    Gates advance by forward Euler, the potential by the semi-implicit
    update, so a zero-conductivity tissue simulation reproduces this trace
    node for node. stim_rate is the applied current expressed as a
    potential rate (I_app / (chi * C_m), 1/ms) held for stim_duration ms
    from each entry of stim_times.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise InvalidArgumentError("dt and t_end must be positive")
    n_steps = int(round(t_end / dt))
    u, w = rest_state() if state is None else state
    u = float(u)
    w = np.array(w, dtype=float)
    stim_times = np.asarray(stim_times, dtype=float)

    ts = np.empty(n_steps + 1)
    us = np.empty(n_steps + 1)
    ws = np.empty((n_steps + 1, 3))
    ts[0], us[0], ws[0] = 0.0, u, w
    for n in range(n_steps):
        t_next = (n + 1) * dt
        w = w + dt * gating_rhs(u, w)
        alpha, beta = reaction_coefficients(u, w)
        active = np.any((t_next >= stim_times) & (t_next < stim_times + stim_duration))
        rate = stim_rate if active else 0.0
        u = (u / dt - beta + rate) / (1.0 / dt + alpha)
        ts[n + 1], us[n + 1], ws[n + 1] = t_next, u, w
    return CellTrace(t=ts, u=us, w=ws)


# --- tissue runs --------------------------------------------------------------


def single_plan(point, onset: float = 0.0) -> StimulusPlan:
    """A plan pacing one point at one onset."""
    return StimulusPlan(points=np.asarray(point, dtype=float)[None, :],
                        onsets=np.array([onset]))


def face_plan(mesh: Mesh, axis: int = 0, side: str = "min",
              onset: float = 0.0) -> StimulusPlan:
    """One plan point per node of an axis-aligned boundary face.

    Combined with a sub-grid stimulus radius this excites exactly the
    face nodes and launches a planar wave, the setup conduction
    velocities are measured in.
    """
    coords = mesh.nodes[:, axis]
    value = coords.min() if side == "min" else coords.max()
    tol = 1e-9 * max(1.0, np.abs(mesh.nodes).max())
    pts = mesh.nodes[np.abs(coords - value) <= tol]
    if len(pts) == 0:
        raise InvalidArgumentError(f"no nodes found on face axis={axis} {side}")
    return StimulusPlan(points=pts, onsets=np.full(len(pts), float(onset)))


def measure_planar_cv(output: SimulationOutput, axis: int,
                      window: tuple[float, float] | None = None) -> float:
    """Planar-front speed (m/s) from the slope of position vs. time.

    Nodes are grouped into constant-coordinate planes along the axis; the
    least-squares slope through (mean activation time, position) over the
    interior window gives the speed. The default window spans the central
    60 percent of the axis to skip stimulus and boundary transients.
    """
    coords = output.mesh.nodes[:, axis]
    if window is None:
        lo, hi = coords.min(), coords.max()
        span = hi - lo
        window = (lo + 0.2 * span, hi - 0.2 * span)
    ok = output.activated & (coords >= window[0]) & (coords <= window[1])
    if not ok.any():
        raise InsufficientDataError("no activated nodes in the measurement window")

    positions = np.round(coords[ok], 9)
    times = output.activation[ok]
    planes, inverse = np.unique(positions, return_inverse=True)
    if len(planes) < 4:
        raise InsufficientDataError(
            f"only {len(planes)} activated planes in the window; need at least 4")
    mean_t = np.bincount(inverse, weights=times) / np.bincount(inverse)

    t0 = mean_t - mean_t.mean()
    var = t0 @ t0
    if var <= 0.0:
        raise InsufficientDataError("plane activation times are identical")
    slope_cm_per_ms = (t0 @ (planes - planes.mean())) / var
    return float(np.abs(slope_cm_per_ms) * 10.0)


# --- assembly and geometry ----------------------------------------------------


def assemble(plan: AssemblyPlan, element_blocks: np.ndarray) -> csr_matrix:
    """A CSR matrix on the plan's pattern from all (n_elems, 8, 8)
    element matrices at once, added by one bincount: the reference the
    blocked AssemblyPlan.stiffness is checked against."""
    data = np.bincount(plan.entry_slots, weights=element_blocks.ravel(),
                       minlength=plan.nnz)
    return csr_matrix((data, plan.indices, plan.indptr), shape=plan.shape)


def assemble_mass(mesh: Mesh) -> csr_matrix:
    """Consistent mass matrix int phi_i phi_j, from a fresh plan.

    The stepper uses only its row sums (AssemblyPlan.lumped_mass); the
    full matrix is the reference those row sums are checked against.
    """
    plan = AssemblyPlan(mesh)
    N = _hex.shape_values(_hex.GAUSS2)
    return assemble(plan, np.matmul(N.T * plan.wdet[:, None, :], N))


def element_volumes(mesh: Mesh) -> np.ndarray:
    """Volume of each element from 2x2x2 Gauss integration of det J.

    Kept on LAPACK's determinant, independent of _hex's closed form,
    as the oracle the assembly's volumes are checked against."""
    jac = _hex.jacobians(mesh.nodes[mesh.elems], _hex.GAUSS2)
    return np.linalg.det(jac).sum(axis=1)


# --- registration -------------------------------------------------------------


def identity_transform() -> RigidTransform:
    return RigidTransform(rotation=np.eye(3), translation=np.zeros(3))


def inverse_transform(transform: RigidTransform) -> RigidTransform:
    back = transform.rotation.T
    return RigidTransform(rotation=back,
                          translation=-back @ transform.translation)
