"""Semi-implicit monodomain tissue stepping.

Each step advances the gating variables with forward Euler, linearizes the
ionic current about the known potential as I_ion ~= alpha u_new + beta, and
solves one linear system per step. Working in rate form (dividing the
balance by chi C_m) the system reads

    (K/(chi C_m) + diag(m (1/dt + alpha))) u_new = m (u/dt - beta + i_app),

with m the lumped (row-sum) mass vector and i_app the applied current
converted to a potential rate. Lumping collapses the time-derivative and
reaction couplings to the diagonal, which makes every node evolve exactly
like the single-cell integrator in tests/oracles.py when the
conductivities vanish, and keeps the consistent mass from smearing the
sharp upstroke across neighbours. The matrix is assembled once; each
step rewrites only its diagonal. It is symmetric positive definite as
long as that diagonal stays positive, and the conjugate-gradient solver
checks that it does.

Two exact shortcuts keep the time loop short:

- Quiet lead-in. Paced runs start at an external fiducial, so the first
  onset often comes long after t = 0. While u is exactly zero, every
  node carries the same gates and no stimulus is on, the right-hand
  side is zero, the solve returns u = 0 at once, and only the gates
  move, all alike; every rate is zero, so the activation times, best
  slopes and peaks stay as they are (from rest, step 1 sets them to dt,
  0 and 0). Such a state after step 1 is advanced by stepping a single
  gate row up to the first step with a stimulus. The snapshots and
  progress lines in that window are still written, and the result is
  bit-identical to stepping every node.
- Extrapolated start. Each step's conjugate-gradient solve starts from
  2 u^n - u^(n-1) (u^n on the first step), a linear extrapolation in
  time that saves iterations on smooth stretches (P. F. Fischer,
  Comput. Methods Appl. Mech. Engrg. 163 (1998) 193). Each solve still
  meets the same true-residual tolerance, but the differences from a
  run that starts every solve from u^n add up over many steps through
  the nonlinear upstroke, so u can drift from that run by more than the
  tolerance, most near a moving front. Identical activation times are
  therefore likely but not guaranteed.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import __version__, fem, ionic
from .errors import (InvalidArgumentError, NonConvergenceError,
                     SimulationDivergedError)
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
_PROGRESS = "step %d/%d  t=%.3f ms  max u=%.4f  cg iters=%d"


@dataclass(frozen=True)
class SolverParams:
    """Physics, stimulus and stepping parameters.

    Units: conductivities mS/cm, chi 1/cm, c_m uF/cm^2, times ms,
    lengths cm, stimulus amplitude uA/cm^3. The default stimulus lasts
    5 ms: at the default amplitude the local potential climbs at about
    0.086 per ms against the outward leak, so reaching the fast-current
    threshold of 0.3 takes roughly 3.5 ms and shorter pulses die out.
    stop_when_activated ends the run once every node has seen its
    upstroke and no activation time can move any more, but not before
    the last requested snapshot.
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
        # written so that NaN fails every check and infinity the bound
        if not 0.0 < self.dt < np.inf:
            raise InvalidArgumentError(f"dt={self.dt} must be positive and finite")
        if not self.dt < self.t_end < np.inf:
            raise InvalidArgumentError("t_end must be finite and exceed dt")
        s = np.asarray(self.sigma, dtype=float)
        if s.shape != (3,) or not np.all((s > 0.0) & (s < np.inf)):
            raise InvalidArgumentError("sigma must be three positive finite values")
        if not (s[0] >= s[1] >= s[2]):
            warnings.warn(f"conductivities {tuple(s)} violate the physiological "
                          "ordering sigma_f >= sigma_s >= sigma_n", stacklevel=3)
        if not (0.0 < self.chi < np.inf and 0.0 < self.c_m < np.inf):
            raise InvalidArgumentError("chi and c_m must be positive and finite")
        if not (0.0 < self.stimulus_radius < np.inf
                and 0.0 < self.stimulus_duration < np.inf):
            raise InvalidArgumentError(
                "stimulus radius and duration must be positive and finite")
        if not 0.0 <= self.stimulus_amplitude < np.inf:
            raise InvalidArgumentError(
                "stimulus amplitude must be nonnegative and finite")


def paced_params(**overrides) -> SolverParams:
    """Parameters of a paced ventricle run, the default of the command
    line, the calibration and the twin: up to 150 ms, ending once every
    node has activated. Keyword arguments override any field."""
    return SolverParams(**{"t_end": 150.0, "stop_when_activated": True,
                           **overrides})


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


def build_conductivity_tensors(mesh: Mesh, fiber_field: FiberField,
                               sigma) -> np.ndarray:
    """Per-element conductivity tensors from nodal fiber frames.

    The eight corner frames are averaged (sign-aligned first, since f and
    -f describe the same fiber), re-orthonormalized, and combined as
    sigma_s I + (sigma_f - sigma_s) f f^T + (sigma_n - sigma_s) n n^T,
    whose eigenvalues are exactly the three conductivities.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (3,) or not np.all((sigma > 0.0) & (sigma < np.inf)):
        raise InvalidArgumentError("sigma must be three positive finite values")
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
        h = mesh.characteristic_size
        nearest, dist = mesh.nearest_nodes(plan.points)
        by_onset: dict[float, list[np.ndarray]] = {}
        for k, (point, onset) in enumerate(zip(plan.points, plan.onsets)):
            if dist[k] > 2.0 * h:
                if not h > 0.0:
                    raise InvalidArgumentError(
                        f"stimulus point {k} lies {dist[k]:.4g} cm from the "
                        "nearest mesh node, and the mesh has no size h (its "
                        "title has no h= token) to check that against 2h")
                warnings.warn(f"stimulus point {k} lies {dist[k]:.4g} cm from "
                              f"the nearest mesh node (h={h:g}); it may miss the "
                              "tissue", stacklevel=3)
            ball = mesh.nodes_within(point, params.stimulus_radius)
            by_onset.setdefault(float(onset), []).append(
                ball if ball.size else nearest[k:k + 1])
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
    """Owns the assembled operators and advances the coupled system.

    The conductivity-independent set-up (pattern, Gauss-point geometry,
    lumped mass) is the mesh's shared fem.AssemblyPlan, built once and used
    by the fiber Laplace solve and every solver on that mesh; each solver
    assembles only its own stiffness matrix.
    """

    def __init__(self, mesh: Mesh, fiber_field: FiberField | None,
                 params: SolverParams):
        self.mesh = mesh
        self.params = params
        if fiber_field is None:
            fiber_field = FiberField.uniform(mesh.n_nodes)
        self.fiber_field = fiber_field

        plan = self.plan = fem.AssemblyPlan.of(mesh)
        tensors = build_conductivity_tensors(mesh, fiber_field, params.sigma)
        scale = 1.0 / (params.chi * params.c_m)
        self.matrix = plan.stiffness(tensors)
        data = self.matrix.data
        data *= scale
        self.m_lump = plan.lumped_mass
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

    def step(self, u: np.ndarray, w: np.ndarray, stim_rate: np.ndarray,
             x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, fem.SolveReport]:
        """Advance one dt: gating first, then the linearized potential solve.

        stim_rate is the applied current already divided by chi c_m, i.e.
        a potential rate (1/ms), evaluated at the new time level. x0 is
        the solve's initial guess.
        """
        p = self.params
        w_next = ionic.step_gating(u, w, p.dt)
        alpha, beta = ionic.reaction_coefficients(u, w_next)
        rhs, diag = self._system(u, alpha, beta, stim_rate)
        report = fem.gmres_solve(self.matrix, rhs, x0=x0,
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
            for name, state, shape in (("u", u, (n,)), ("w", w, (n, 3))):
                if state.shape != shape:
                    raise InvalidArgumentError(
                        f"initial_state {name} must have shape {shape}, "
                        f"got {state.shape}")
                if not np.isfinite(state).all():
                    raise InvalidArgumentError(
                        f"initial_state {name} must be finite (NaN or inf "
                        f"at node {int(np.nonzero(~np.isfinite(state))[0][0])})")

        n_steps = int(round(p.t_end / p.dt))
        # every requested time, grouped by the step it rounds to
        snap_steps: dict[int, list[float]] = {}
        for ts in snapshot_times:
            k = int(round(ts / p.dt)) if np.isfinite(ts) else -1
            if not 0 <= k <= n_steps:
                raise InvalidArgumentError(f"snapshot time {ts} outside [0, t_end]")
            snap_steps.setdefault(k, []).append(float(ts))
        last_snap = max(snap_steps, default=0)
        snapshots: dict[float, np.ndarray] = {}
        for ts in snap_steps.get(0, ()):
            snapshots[ts] = u.copy()

        activation = np.full(n, np.nan)
        best_rate = np.full(n, -1.0)
        peak = u.copy()
        stim_end = (stim_plan.onsets.max() if stim_plan.onsets.size else 0.0) \
            + p.stimulus_duration
        first_onset = stim_plan.onsets.min() if stim_plan.onsets.size else np.inf
        cg = {"calls": 0, "iterations": 0, "max_iterations": 0}
        u_prev = None

        k = 0
        while k < n_steps:
            k += 1
            t = k * p.dt
            x0 = u if u_prev is None else 2.0 * u - u_prev
            try:
                u_new, w, report = self.step(
                    u, w, stim.current(t) * self.rate_scale, x0)
            except NonConvergenceError as exc:
                raise NonConvergenceError(
                    f"step {k} (t={t:.4g} ms): {exc}", best=exc.best,
                    residual=exc.residual, iterations=exc.iterations) from exc
            cg["calls"] += 1
            cg["iterations"] += report.iterations
            cg["max_iterations"] = max(cg["max_iterations"], report.iterations)

            rate = np.abs(u_new - u) / p.dt
            faster = rate > best_rate
            best_rate[faster] = rate[faster]
            activation[faster] = t
            np.maximum(peak, u_new, out=peak)
            if np.abs(u_new).max() > 5.0:
                raise SimulationDivergedError(
                    f"potential magnitude exceeded 5 at t={t:.4g} ms",
                    step=k, time_ms=t)
            u_prev, u = u, u_new
            for ts in snap_steps.get(k, ()):
                snapshots[ts] = u.copy()
            if k % PROGRESS_EVERY == 0:
                logger.info(_PROGRESS, k, n_steps, t, float(u.max()),
                            int(report.iterations))
            if (p.stop_when_activated and last_snap <= k < n_steps
                    and np.all(peak >= ACTIVATION_PEAK_FLOOR)
                    and t >= stim_end and rate.max() < 1.0):
                # every node has seen its upstroke and the remaining
                # dynamics (plateau, repolarization) are far too slow to
                # displace any running slope maximum
                logger.info("all nodes activated by t=%.3f ms; stopping early", t)
                n_steps = k
                break
            if k == 1 and not u.any() and np.all(w == w[0]):
                # quiet lead-in (module docstring): up to the first onset
                # only the gates move, alike on every node, and the rate,
                # activation and peak bookkeeping has nothing to update
                row = w[:1]
                while k < n_steps and first_onset > (k + 1) * p.dt:
                    k += 1
                    row = ionic.step_gating(u[:1], row, p.dt)
                    for ts in snap_steps.get(k, ()):
                        snapshots[ts] = u.copy()
                    if k % PROGRESS_EVERY == 0:
                        logger.info(_PROGRESS, k, n_steps, k * p.dt, 0.0, 0)
                w = np.repeat(row, n, axis=0)
                u_prev = u

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
            "ionic": ionic.PARAMS.manifest(),
            "stimulus_sites": int(len(stim_plan.points)),
            "linear_solver": cg,
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

