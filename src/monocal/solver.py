"""Semi-implicit monodomain tissue stepping.

Each step advances the gating variables with forward Euler, linearizes the
ionic current about the known potential as I_ion ~= alpha u_new + beta, and
solves one linear system per step. Working in rate form (dividing the
balance by chi C_m) the system reads

    (K/(chi C_m) + diag(m (1/dt + alpha))) u_new = m (u/dt - beta + i_app),

with m the lumped (row-sum) mass vector and i_app the applied current
converted to a potential rate. Lumping collapses the time-derivative and
reaction couplings to the diagonal, which makes every node evolve exactly
like the single-cell integrator when the conductivities vanish, and
keeps the consistent mass from smearing the sharp upstroke across
neighbours. The matrix is assembled once; each step rewrites only its
diagonal. It is symmetric positive definite as long as that diagonal
stays positive, and the conjugate-gradient solver checks that it does.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.spatial import cKDTree

from . import __version__, fem, ionic
from .errors import (InsufficientDataError, InvalidArgumentError,
                     NonConvergenceError, SimulationDivergedError)
from .fibers import FiberField
from .geometry import Mesh

logger = logging.getLogger(__name__)

# A depolarization wave always drives the potential well above 1; nodes
# that never reach this floor (midway between the fast-current threshold
# and the plateau) saw no wavefront and are reported as not activated.
ACTIVATION_PEAK_FLOOR = 0.5
# Relative true-residual tolerance of each time step's linear solve.
LINEAR_REL_TOL = 1e-10
# Log one progress line every this many steps.
PROGRESS_EVERY = 100


@dataclass(frozen=True)
class SolverParams:
    """Physics, stimulus and stepping parameters.

    Units: conductivities mS/cm, chi 1/cm, c_m uF/cm^2, times ms,
    lengths cm, stimulus amplitude uA/cm^3. The default stimulus lasts
    5 ms: at the default amplitude the local potential climbs at about
    0.086 per ms against the outward leak, so reaching the fast-current
    threshold of 0.3 takes roughly 3.5 ms and shorter pulses die out.
    stop_when_activated ends the run once every node has seen its
    upstroke and no activation time can move any more.
    """

    sigma: tuple[float, float, float] = (1.325, 0.293, 0.0675)
    chi: float = 1000.0
    c_m: float = 1.0
    dt: float = 0.025
    t_end: float = 40.0
    stimulus_amplitude: float = 112500.0
    stimulus_radius: float = 0.15
    stimulus_duration: float = 5.0
    stop_when_activated: bool = False

    def __post_init__(self):
        if self.dt <= 0.0:
            raise InvalidArgumentError(f"dt={self.dt} must be positive")
        if self.t_end <= self.dt:
            raise InvalidArgumentError("t_end must exceed dt")
        s = np.asarray(self.sigma, dtype=float)
        if s.shape != (3,) or np.any(s <= 0.0):
            raise InvalidArgumentError("sigma must be three positive values")
        if not (s[0] >= s[1] >= s[2]):
            warnings.warn(f"conductivities {tuple(s)} violate the physiological "
                          "ordering sigma_f >= sigma_s >= sigma_n", stacklevel=3)
        if self.chi <= 0.0 or self.c_m <= 0.0:
            raise InvalidArgumentError("chi and c_m must be positive")
        if self.stimulus_radius <= 0.0 or self.stimulus_duration <= 0.0:
            raise InvalidArgumentError("stimulus radius and duration must be positive")
        if self.stimulus_amplitude < 0.0:
            raise InvalidArgumentError("stimulus amplitude must be nonnegative")


@dataclass(frozen=True)
class StimulusPlan:
    """Stimulation sites (cm) with per-site onset times (ms)."""

    points: np.ndarray
    onsets: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        ons = np.atleast_1d(np.asarray(self.onsets, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidArgumentError("stimulus points must have shape (k, 3)")
        if ons.shape != (len(pts),):
            raise InvalidArgumentError("one onset per stimulus point required")
        if not np.isfinite(pts).all() or not np.isfinite(ons).all():
            raise InvalidArgumentError("stimulus plan contains non-finite values")
        if np.any(ons < 0.0):
            raise InvalidArgumentError("stimulus onsets must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "onsets", ons)

    @classmethod
    def single(cls, point, onset: float = 0.0) -> "StimulusPlan":
        return cls(points=np.asarray(point, dtype=float)[None, :],
                   onsets=np.array([onset]))

    @classmethod
    def face(cls, mesh: Mesh, axis: int = 0, side: str = "min",
             onset: float = 0.0) -> "StimulusPlan":
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
        return cls(points=pts, onsets=np.full(len(pts), float(onset)))


def build_conductivity_tensors(mesh: Mesh, fiber_field: FiberField,
                               sigma) -> np.ndarray:
    """Per-element conductivity tensors from nodal fiber frames.

    The eight corner frames are averaged (sign-aligned first, since f and
    -f describe the same fiber), re-orthonormalized, and combined as
    sigma_s I + (sigma_f - sigma_s) f f^T + (sigma_n - sigma_s) n n^T,
    whose eigenvalues are exactly the three conductivities.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (3,) or np.any(sigma <= 0.0):
        raise InvalidArgumentError("sigma must be three positive values")
    for name, v in (("f", fiber_field.f), ("n", fiber_field.n)):
        lens = np.linalg.norm(v, axis=1)
        if np.abs(lens - 1.0).max() > 1e-6:
            raise InvalidArgumentError(f"fiber axis {name} is not unit length")
    dots = np.abs(np.sum(fiber_field.f * fiber_field.n, axis=1))
    if dots.max() > 1e-6:
        raise InvalidArgumentError("fiber frame axes f and n are not orthogonal")

    def averaged(vectors):
        corners = vectors[mesh.elems]
        sign = np.where(np.einsum("ekd,ed->ek", corners, corners[:, 0]) < 0.0,
                        -1.0, 1.0)
        mean = np.einsum("ek,ekd->ed", sign, corners) / 8.0
        return mean

    f = averaged(fiber_field.f)
    norms = np.linalg.norm(f, axis=1)
    if norms.min() < 1e-8:
        raise InvalidArgumentError(
            f"fiber directions cancel within element {int(np.argmin(norms))}")
    f /= norms[:, None]
    n = averaged(fiber_field.n)
    n -= np.sum(n * f, axis=1)[:, None] * f
    norms = np.linalg.norm(n, axis=1)
    if norms.min() < 1e-8:
        raise InvalidArgumentError(
            f"sheet normals degenerate within element {int(np.argmin(norms))}")
    n /= norms[:, None]

    sf, ss, sn = sigma
    eye = np.broadcast_to(np.eye(3), (len(mesh.elems), 3, 3))
    return (ss * eye + (sf - ss) * np.einsum("ei,ej->eij", f, f)
            + (sn - ss) * np.einsum("ei,ej->eij", n, n))


class _StimulusSets:
    """Precomputed node memberships for every stimulus site."""

    def __init__(self, mesh: Mesh, plan: StimulusPlan, params: SolverParams):
        tree = cKDTree(mesh.nodes)
        h = mesh.characteristic_size
        by_onset: dict[float, list[np.ndarray]] = {}
        for k, (point, onset) in enumerate(zip(plan.points, plan.onsets)):
            dist, nearest = tree.query(point)
            if dist > 2.0 * h:
                warnings.warn(f"stimulus point {k} lies {dist:.4g} cm from the "
                              f"nearest mesh node (h={h:g}); it may miss the tissue",
                              stacklevel=3)
            ids = tree.query_ball_point(point, params.stimulus_radius)
            members = np.asarray(ids if ids else [nearest], dtype=np.int64)
            by_onset.setdefault(float(onset), []).append(members)
        self.groups = [(onset, np.unique(np.concatenate(parts)))
                       for onset, parts in sorted(by_onset.items())]
        self.duration = params.stimulus_duration
        self.amplitude = params.stimulus_amplitude
        self.n_nodes = mesh.n_nodes

    def current(self, t: float) -> np.ndarray:
        """Nodal applied current (uA/cm^3) at time t; active on
        [onset, onset + duration)."""
        out = np.zeros(self.n_nodes)
        for onset, members in self.groups:
            if onset <= t < onset + self.duration:
                out[members] = self.amplitude
        return out


@dataclass
class SimulationOutput:
    """Activation map plus bookkeeping from one monodomain run."""

    activation: np.ndarray
    activated: np.ndarray
    peak_u: np.ndarray
    final_u: np.ndarray
    snapshots: dict[float, np.ndarray]
    mesh: Mesh
    manifest: dict[str, Any] = field(default_factory=dict)

    @property
    def n_not_activated(self) -> int:
        return int((~self.activated).sum())


class MonodomainSolver:
    """Owns the assembled operators and advances the coupled system."""

    def __init__(self, mesh: Mesh, fiber_field: FiberField | None,
                 params: SolverParams):
        self.mesh = mesh
        self.params = params
        self.ionic_params = ionic.IonicParams()
        if fiber_field is None:
            fiber_field = FiberField.uniform(mesh.n_nodes)
        self.fiber_field = fiber_field

        geo = fem.precompute_geometry(mesh)
        plan = self.plan = fem.AssemblyPlan(mesh)
        tensors = build_conductivity_tensors(mesh, fiber_field, params.sigma)
        scale = 1.0 / (params.chi * params.c_m)
        self.matrix = plan.assemble(fem.stiffness_blocks(geo, tensors))
        data = self.matrix.data
        data *= scale
        self.m_lump = fem.lumped_mass_vector(mesh, geo=geo)
        data[plan.diag_slots] += self.m_lump / params.dt
        # the diagonal without the reaction term, which changes every step
        self.base_diag = data[plan.diag_slots]
        # Applied current to potential rate: amplitude/(chi c_m) is in mV/ms
        # for these units, and the dimensionless potential spans the action
        # potential on the volt scale, hence the extra 1e-3. The default
        # amplitude then drives the tissue at 0.1125 per ms, a few percent
        # above the slowest rate that still ignites within the default pulse.
        self.rate_scale = 1e-3 * scale

    def _system(self, u, alpha, beta, stim_rate):
        """Write this step's reaction term into the matrix diagonal in
        place; return the right-hand side of the implicit solve and the
        diagonal written, which the solve's preconditioner reuses."""
        diag = self.base_diag + self.m_lump * alpha
        self.matrix.data[self.plan.diag_slots] = diag
        return self.m_lump * (u / self.params.dt - beta + stim_rate), diag

    def step(self, u: np.ndarray, w: np.ndarray, stim_rate: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, fem.SolveReport]:
        """Advance one dt: gating first, then the linearized potential solve.

        stim_rate is the applied current already divided by chi c_m, i.e.
        a potential rate (1/ms), evaluated at the new time level.
        """
        p = self.params
        w_next = ionic.step_gating(u, w, p.dt, self.ionic_params)
        alpha, beta = ionic.reaction_coefficients(u, w_next, self.ionic_params)
        rhs, diag = self._system(u, alpha, beta, stim_rate)
        report = fem.gmres_solve(self.matrix, rhs, x0=u,
                                 rel_tol=LINEAR_REL_TOL, diag=diag)
        return report.x, w_next, report

    def simulate(self, stim_plan: StimulusPlan,
                 initial_state: tuple[np.ndarray, np.ndarray] | None = None,
                 snapshot_times=()) -> SimulationOutput:
        p = self.params
        if stim_plan.onsets.size and stim_plan.onsets.max() > p.t_end:
            raise InvalidArgumentError("stimulus onset beyond end of simulation")
        stim = _StimulusSets(self.mesh, stim_plan, p)
        n = self.mesh.n_nodes
        if initial_state is None:
            u = np.zeros(n)
            _, w = ionic.rest_state(n)
        else:
            u = np.array(initial_state[0], dtype=float)
            w = np.array(initial_state[1], dtype=float)

        n_steps = int(round(p.t_end / p.dt))
        snap_steps: dict[int, float] = {}
        for ts in snapshot_times:
            k = int(round(ts / p.dt))
            if not 0 <= k <= n_steps:
                raise InvalidArgumentError(f"snapshot time {ts} outside [0, t_end]")
            snap_steps[k] = float(ts)
        snapshots: dict[float, np.ndarray] = {}
        if 0 in snap_steps:
            snapshots[snap_steps[0]] = u.copy()

        activation = np.full(n, np.nan)
        best_rate = np.full(n, -1.0)
        peak = u.copy()
        stim_end = (stim_plan.onsets.max() if stim_plan.onsets.size else 0.0) \
            + p.stimulus_duration

        for k in range(1, n_steps + 1):
            t = k * p.dt
            try:
                u_new, w, report = self.step(u, w, stim.current(t) * self.rate_scale)
            except NonConvergenceError as exc:
                raise NonConvergenceError(
                    f"step {k} (t={t:.4g} ms): {exc}", best=exc.best,
                    residual=exc.residual, iterations=exc.iterations) from exc

            rate = np.abs(u_new - u) / p.dt
            faster = rate > best_rate
            best_rate[faster] = rate[faster]
            activation[faster] = t
            np.maximum(peak, u_new, out=peak)
            if np.abs(u_new).max() > 5.0:
                raise SimulationDivergedError(
                    f"potential magnitude exceeded 5 at t={t:.4g} ms",
                    step=k, time_ms=t)
            u = u_new
            if k in snap_steps:
                snapshots[snap_steps[k]] = u.copy()
            if k % PROGRESS_EVERY == 0:
                logger.info("step %d/%d  t=%.3f ms  max u=%.4f  cg iters=%d",
                            k, n_steps, t, float(u.max()), int(report.iterations))
            if (p.stop_when_activated and k < n_steps
                    and np.all(peak >= ACTIVATION_PEAK_FLOOR)
                    and t >= stim_end and rate.max() < 1.0):
                # every node has seen its upstroke and the remaining
                # dynamics (plateau, repolarization) are far too slow to
                # displace any running slope maximum
                logger.info("all nodes activated by t=%.3f ms; stopping early", t)
                n_steps = k
                break

        activated = peak >= ACTIVATION_PEAK_FLOOR
        activation[~activated] = np.nan
        manifest = {
            "version": __version__,
            "mesh_hash": self.mesh.content_hash(),
            "n_nodes": int(n),
            "n_steps": int(n_steps),
            "params": {
                "sigma": [float(s) for s in self.params.sigma],
                "chi": p.chi, "c_m": p.c_m, "dt": p.dt, "t_end": p.t_end,
                "stimulus_amplitude": p.stimulus_amplitude,
                "stimulus_radius": p.stimulus_radius,
                "stimulus_duration": p.stimulus_duration,
            },
            "ionic": self.ionic_params.manifest(),
            "stimulus_sites": int(len(stim_plan.points)),
        }
        return SimulationOutput(
            activation=activation, activated=activated, peak_u=peak,
            final_u=u, snapshots=snapshots, mesh=self.mesh, manifest=manifest)


def simulate(mesh: Mesh, fiber_field: FiberField | None, params: SolverParams,
             stim_plan: StimulusPlan, initial_state=None,
             snapshot_times=()) -> SimulationOutput:
    """Run one monodomain simulation end to end."""
    solver = MonodomainSolver(mesh, fiber_field, params)
    return solver.simulate(stim_plan, initial_state=initial_state,
                           snapshot_times=snapshot_times)


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
