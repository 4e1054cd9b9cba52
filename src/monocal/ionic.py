"""Minimal ventricular ionic model (three gates, phenomenological currents).

The transmembrane potential u is dimensionless: 0 at rest, around 1 on the
plateau, overshooting toward v_overshoot during the upstroke. All currents
are returned as potential rates in 1/ms; the monodomain solver multiplies
by chi * C_m where a physical current density is needed.

The outward current vanishes at rest and uses a smooth tanh crossover of
the plateau time constant (Bueno-Orovio, Cherry & Fenton, J. Theor. Biol.
253 (2008) 544).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np


@dataclass(frozen=True)
class GatingParams:
    """Time constants and switches of the three gating variables.

    Values are for the human-ventricle parameterization the conduction
    constants in IonicParams come from. Times in ms, potentials unitless.
    """

    v_inact_threshold: float = 0.015   # fast gate closes above this
    tau_v1_minus: float = 60.0
    tau_v2_minus: float = 1150.0
    tau_v_plus: float = 1.4506
    tau_w1_minus: float = 70.0
    tau_w2_minus: float = 20.0
    k_w_minus: float = 65.0
    u_w_minus: float = 0.03
    tau_w_plus: float = 280.0
    tau_s1: float = 2.7342
    tau_s2: float = 3.0
    k_s: float = 2.0994
    u_s: float = 0.9087
    tau_w_inf_slope: float = 0.07
    w_inf_plateau: float = 0.94


@dataclass(frozen=True)
class IonicParams:
    """Current magnitudes, thresholds and time scales of the model.

    Potentials are dimensionless, times in ms. tau_fast controls the
    upstroke speed and hence the conduction velocity scale.
    """

    v_open_threshold: float = 0.006    # switches recovery time constant and w target
    v_fast_threshold: float = 0.3      # fast inward current activates above this
    v_slow_threshold: float = 0.015    # slow inward / plateau outward switch
    v_overshoot: float = 1.58
    tau_fast: float = 0.11
    tau_slow_inward: float = 2.8723
    tau_out_rest1: float = 6.0
    tau_out_rest2: float = 6.0
    tau_out_plateau_slow: float = 43.0
    tau_out_plateau_fast: float = 0.2
    k_plateau: float = 2.0458          # steepness of the plateau tanh crossover
    u_plateau: float = 0.65            # centre of the plateau tanh crossover
    gating: GatingParams = field(default_factory=GatingParams)

    def manifest(self) -> dict:
        """All adopted constants as a flat, unit-annotated dictionary."""
        out = {"units": {"time": "ms", "potential": "dimensionless"}}
        d = asdict(self)
        gating = d.pop("gating")
        out["currents"] = d
        out["gating"] = gating
        return out


# The one parameter set the model runs with.
PARAMS = IonicParams()


def rest_state(n: int | None = None) -> tuple[np.ndarray | float, np.ndarray]:
    """Resting potential and gate values (u=0, gates (1, 1, 0)).

    The third gate relaxes toward its small resting attractor over a few
    ms but leaves the potential untouched, so u stays exactly at rest.
    """
    if n is None:
        return 0.0, np.array([1.0, 1.0, 0.0])
    return np.zeros(n), np.tile([1.0, 1.0, 0.0], (n, 1))


def _heav(x):
    return (np.asarray(x) >= 0.0).astype(float)


def _tau_out_rest(u):
    p = PARAMS
    return p.tau_out_rest1 + _heav(u - p.v_open_threshold) * (p.tau_out_rest2 - p.tau_out_rest1)


def _tau_out_plateau(u):
    p = PARAMS
    span = p.tau_out_plateau_fast - p.tau_out_plateau_slow
    return p.tau_out_plateau_slow + span * 0.5 * (
        1.0 + np.tanh(p.k_plateau * (u - p.u_plateau)))


def gating_rhs(u, w) -> np.ndarray:
    """Right-hand side of the three gating ODEs, shaped like w."""
    p = PARAMS
    g = p.gating
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    w1, w2, w3 = w[..., 0], w[..., 1], w[..., 2]

    h_fast = _heav(u - p.v_fast_threshold)
    h_slow = _heav(u - p.v_slow_threshold)
    h_open = _heav(u - p.v_open_threshold)

    v_inf = (u < g.v_inact_threshold).astype(float)
    tau_v_minus = np.where(_heav(u - g.v_inact_threshold) > 0.0,
                           g.tau_v2_minus, g.tau_v1_minus)
    dw1 = (1.0 - h_fast) * (v_inf - w1) / tau_v_minus - h_fast * w1 / g.tau_v_plus

    w_inf = (1.0 - h_open) * (1.0 - u / g.tau_w_inf_slope) + h_open * g.w_inf_plateau
    tau_w_minus = g.tau_w1_minus + (g.tau_w2_minus - g.tau_w1_minus) * 0.5 * (
        1.0 + np.tanh(g.k_w_minus * (u - g.u_w_minus)))
    dw2 = (1.0 - h_slow) * (w_inf - w2) / tau_w_minus - h_slow * w2 / g.tau_w_plus

    s_inf = 0.5 * (1.0 + np.tanh(g.k_s * (u - g.u_s)))
    tau_s = np.where(h_slow > 0.0, g.tau_s2, g.tau_s1)
    dw3 = (s_inf - w3) / tau_s
    return np.stack([dw1, dw2, dw3], axis=-1)


def step_gating(u, w, dt: float) -> np.ndarray:
    """One forward Euler step of the gating ODEs."""
    return np.asarray(w, dtype=float) + dt * gating_rhs(u, w)


def reaction_coefficients(u, w_next):
    """Linearization I_ion ~= alpha * u_next + beta used by the stepper.

    Evaluated at the known potential u (previous step) and the freshly
    updated gates. The fast current's (u - threshold) factor and the
    outward current's linear-in-u rest branch are the implicit
    parts; everything else lands in beta.
    """
    p = PARAMS
    u = np.asarray(u, dtype=float)
    w = np.asarray(w_next, dtype=float)
    w1, w2, w3 = w[..., 0], w[..., 1], w[..., 2]

    h_fast = _heav(u - p.v_fast_threshold)
    h_slow = _heav(u - p.v_slow_threshold)

    fast_gain = h_fast * (p.v_overshoot - u) * w1 / p.tau_fast
    alpha = -fast_gain
    beta = p.v_fast_threshold * fast_gain

    alpha = alpha + (1.0 - h_slow) / _tau_out_rest(u)
    beta = beta + h_slow / _tau_out_plateau(u)
    beta = beta - h_slow * w2 * w3 / p.tau_slow_inward
    return alpha, beta

