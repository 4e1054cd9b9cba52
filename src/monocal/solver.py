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

- Quiet lead-in. Every run starts from rest (u = 0 and the resting
  gates on every node, `ionic.rest_state`), and paced runs start at an
  external fiducial, so the first onset often comes long after t = 0.
  Until then no stimulus is on, the right-hand side is zero and a solve
  would return u = 0, so the plan alone says which steps are quiet:
  every step k > 1 with k dt before the first onset. A quiet step moves
  one gate row (the gates move alike on every node), which the first
  solve after the window broadcasts over the nodes; every rate is zero,
  so the activation times, best slopes and peaks keep the values that
  step 1, which always solves, set (dt, 0 and 0). Quiet steps still
  write their snapshots and progress lines, and the result is
  bit-identical to stepping every node.
- Extrapolated start. Each step's conjugate-gradient solve starts from
  2 u^n - u^(n-1), a linear extrapolation in time that saves
  iterations on smooth stretches (P. F. Fischer, Comput. Methods Appl.
  Mech. Engrg. 163 (1998) 193); u^(-1) is the rest state, so the first
  solve starts from u^0. Each solve still meets the same true-residual
  tolerance, but the differences from a run that starts every solve
  from u^n add up over many steps through the nonlinear upstroke, so u
  can drift from that run by more than the tolerance, most near a
  moving front. Identical activation times are therefore likely but
  not guaranteed.

A run returns a `SimulationOutput`: the activation map, the peak
potential, the requested snapshots and the run's facts as plain values
(the steps taken and the conjugate-gradient counts). It writes nothing;
the command line lays out `manifest.json` from these values. A failed
step names itself: `errors.located` puts "step k (t=... ms)" in front.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from . import _hex, fem, ionic
from .errors import InvalidArgumentError, MonocalError, located
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
    lengths cm, stimulus amplitude uA/cm^3. The defaults are those of a
    paced ventricle run, as the command line, the calibration and the
    twin make it: up to 150 ms, ending once every node has activated.
    The default stimulus lasts 5 ms: at the default amplitude the local
    potential climbs at about 0.086 per ms against the outward leak, so
    reaching the fast-current threshold of 0.3 takes roughly 3.5 ms and
    shorter pulses die out. stop_when_activated ends the run once every
    node has seen its upstroke and no activation time can move any
    more, but not before the last requested snapshot.
    """

    sigma: tuple[float, float, float] = (1.325, 0.293, 0.0675)
    chi: float = 1000.0
    c_m: float = 1.0
    dt: float = 0.025
    t_end: float = 150.0
    stimulus_amplitude: float = 112500.0
    stimulus_radius: float = 0.15
    stimulus_duration: float = 5.0
    stop_when_activated: bool = True

    def __post_init__(self):
        # written so that NaN fails every check and infinity the bound
        if not 0.0 < self.dt < np.inf:
            raise InvalidArgumentError(f"dt={self.dt} must be positive and finite")
        if not self.dt < self.t_end < np.inf:
            raise InvalidArgumentError("t_end must be finite and exceed dt")
        if not self.t_end / self.dt < np.inf:
            raise InvalidArgumentError("the step count t_end/dt must be finite")
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


@dataclass(frozen=True)
class StimulusPlan:
    """Stimulation sites (cm) with per-site onset times (ms); a plan needs
    at least one site, since a run that paces nothing has no map."""

    points: np.ndarray
    onsets: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        ons = np.atleast_1d(np.asarray(self.onsets, dtype=float))
        if pts.size == 0:
            raise InvalidArgumentError(
                "a stimulus plan needs at least one stimulus site")
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
    whose eigenvalues are exactly the three conductivities. The nodal
    frames are orthonormal (`FiberField` checks itself) and sigma holds
    three positive values (`SolverParams.sigma`). An averaged fiber
    cannot vanish: its component along corner 0's fiber is the mean of
    |f_k . f_0|, at least 1/8. Only the sheet normal, orthogonalized
    against it, can degenerate; the element with the shortest one is
    named. The elements are taken a block of _hex.BLOCK at a time.
    """

    def averaged(vectors, part):
        corners = vectors[mesh.elems[part]]
        sign = np.where(np.einsum("ekd,ed->ek", corners, corners[:, 0]) < 0.0,
                        -1.0, 1.0)
        return np.einsum("ek,ekd->ed", sign, corners) / 8.0

    sf, ss, sn = sigma
    tensors = np.empty((mesh.n_elems, 3, 3))
    shortest, where = np.inf, 0
    for part in _hex.blocks(mesh.n_elems):
        f = averaged(fiber_field.f, part)
        f /= np.linalg.norm(f, axis=1)[:, None]
        n = averaged(fiber_field.n, part)
        n -= np.sum(n * f, axis=1)[:, None] * f
        norms = np.linalg.norm(n, axis=1)
        k = int(np.argmin(norms))
        if norms[k] < shortest:
            shortest, where = norms[k], part.start + k
        if shortest < 1e-8:
            continue  # raised below, once every block is measured
        n /= norms[:, None]
        tensors[part] = (ss * np.eye(3) + (sf - ss) * np.einsum("ei,ej->eij", f, f)
                         + (sn - ss) * np.einsum("ei,ej->eij", n, n))
    if shortest < 1e-8:
        raise InvalidArgumentError(
            f"sheet normals degenerate within element {where}")
    return tensors


class _StimulusSets:
    """Precomputed node memberships, one array per stimulus site: the
    nodes of its ball, or its nearest node when the ball holds none."""

    def __init__(self, mesh: Mesh, plan: StimulusPlan, params: SolverParams):
        h = mesh.characteristic_size
        nearest, dist = mesh.nearest_nodes(plan.points)
        self.sites = []
        for k, (point, onset) in enumerate(zip(plan.points, plan.onsets)):
            if dist[k] > 2.0 * h:
                warnings.warn(f"stimulus point {k} lies {dist[k]:.4g} cm from "
                              f"the nearest mesh node (h={h:g}); it may miss the "
                              "tissue", stacklevel=3)
            ball = mesh.nodes_within(point, params.stimulus_radius)
            self.sites.append((float(onset),
                               ball if ball.size else nearest[k:k + 1]))
        self.duration = params.stimulus_duration
        self.amplitude = params.stimulus_amplitude
        self.n_nodes = mesh.n_nodes

    def current(self, t: float) -> np.ndarray:
        """Nodal applied current (uA/cm^3) at time t: the amplitude on the
        nodes of each site active on [onset, onset + duration)."""
        out = np.zeros(self.n_nodes)
        for onset, members in self.sites:
            if onset <= t < onset + self.duration:
                out[members] = self.amplitude
        return out


@dataclass
class SimulationOutput:
    """Activation map plus the run's facts from one monodomain run; NaN
    in activation marks a node that did not activate. n_steps counts the
    steps taken (fewer than t_end/dt after an early stop), and cg holds
    the linear solves' `calls`, total `iterations` and `max_iterations`."""

    activation: np.ndarray
    peak_u: np.ndarray
    snapshots: dict[float, np.ndarray]
    n_steps: int
    cg: dict[str, int]

    @property
    def n_not_activated(self) -> int:
        return int(np.isnan(self.activation).sum())


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

    def step(self, u: np.ndarray, w: np.ndarray, stim_rate: np.ndarray,
             x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, fem.SolveReport]:
        """Advance one dt: gating first, then the linearized potential solve.

        stim_rate is the applied current already divided by chi c_m, i.e.
        a potential rate (1/ms), evaluated at the new time level. x0 is
        the solve's initial guess. The reaction term is written into the
        matrix diagonal in place; the solve's preconditioner reuses it.
        """
        p = self.params
        w_next = ionic.step_gating(u, w, p.dt)
        alpha, beta = ionic.reaction_coefficients(u, w_next)
        diag = self.base_diag + self.m_lump * alpha
        self.matrix.data[self.plan.diag_slots] = diag
        rhs = self.m_lump * (u / p.dt - beta + stim_rate)
        report = fem.gmres_solve(self.matrix, rhs, x0=x0,
                                 rel_tol=LINEAR_REL_TOL, diag=diag)
        return report.x, w_next, report

    def simulate(self, stim_plan: StimulusPlan,
                 snapshot_times=()) -> SimulationOutput:
        """Run from rest up to t_end (or the early stop)."""
        p = self.params
        if stim_plan.onsets.max() > p.t_end:
            raise InvalidArgumentError("stimulus onset beyond end of simulation")
        stim = _StimulusSets(self.mesh, stim_plan, p)
        n = self.mesh.n_nodes
        u, w = ionic.rest_state(n)

        n_steps = int(round(p.t_end / p.dt))
        # every requested time, grouped by the step it rounds to; NaN and
        # huge times fail the range check before the int conversion
        snap_steps: dict[int, list[float]] = {}
        for ts in snapshot_times:
            k = np.rint(ts / p.dt)
            if not 0 <= k <= n_steps:
                raise InvalidArgumentError(f"snapshot time {ts} outside [0, t_end]")
            snap_steps.setdefault(int(k), []).append(float(ts))
        last_snap = max(snap_steps, default=0)
        snapshots: dict[float, np.ndarray] = {}
        for ts in snap_steps.get(0, ()):
            snapshots[ts] = u.copy()

        activation = np.full(n, np.nan)
        best_rate = np.full(n, -1.0)
        peak = u.copy()
        stim_end = stim_plan.onsets.max() + p.stimulus_duration
        first_onset = stim_plan.onsets.min()
        cg = {"calls": 0, "iterations": 0, "max_iterations": 0}
        u_prev = u

        for k in range(1, n_steps + 1):
            t = k * p.dt
            if 1 < k and t < first_onset:
                # quiet lead-in (module docstring): only one gate row moves
                w = ionic.step_gating(u[:1], w[:1], p.dt)
                iterations = 0
            else:
                with located("step %d (t=%.4g ms)", k, t):
                    u_new, w, report = self.step(
                        u, w, stim.current(t) * self.rate_scale,
                        2.0 * u - u_prev)
                    if np.abs(u_new).max() > 5.0:
                        raise MonocalError("potential magnitude exceeded 5")
                iterations = report.iterations
                cg["calls"] += 1
                cg["iterations"] += iterations
                cg["max_iterations"] = max(cg["max_iterations"], iterations)

                rate = np.abs(u_new - u) / p.dt
                faster = rate > best_rate
                best_rate[faster] = rate[faster]
                activation[faster] = t
                np.maximum(peak, u_new, out=peak)
                u_prev, u = u, u_new
            for ts in snap_steps.get(k, ()):
                snapshots[ts] = u.copy()
            if k % PROGRESS_EVERY == 0:
                logger.info(_PROGRESS, k, n_steps, t, float(u.max()),
                            iterations)
            # a quiet step has t < first_onset <= stim_end: only a full
            # step can stop the run
            if (p.stop_when_activated and last_snap <= k < n_steps
                    and t >= stim_end and np.all(peak >= ACTIVATION_PEAK_FLOOR)
                    and rate.max() < 1.0):
                # every node has seen its upstroke and the remaining
                # dynamics (plateau, repolarization) are far too slow to
                # displace any running slope maximum
                logger.info("all nodes activated by t=%.3f ms; stopping early", t)
                n_steps = k
                break

        activation[peak < ACTIVATION_PEAK_FLOOR] = np.nan
        return SimulationOutput(activation=activation, peak_u=peak,
                                snapshots=snapshots, n_steps=n_steps, cg=cg)


def simulate(mesh: Mesh, fiber_field: FiberField | None, params: SolverParams,
             stim_plan: StimulusPlan, snapshot_times=()) -> SimulationOutput:
    """Run one monodomain simulation end to end."""
    solver = MonodomainSolver(mesh, fiber_field, params)
    return solver.simulate(stim_plan, snapshot_times=snapshot_times)

