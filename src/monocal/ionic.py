"""Minimal ventricular ionic model (three gates, phenomenological currents).

The transmembrane potential u is dimensionless: 0 at rest, around 1 on the
plateau, overshooting toward v_overshoot during the upstroke. All currents
are returned as potential rates in 1/ms; the monodomain solver multiplies
by chi * C_m where a physical current density is needed.

The outward current vanishes at rest and uses a smooth tanh crossover of
the plateau time constant (Bueno-Orovio, Cherry & Fenton, J. Theor. Biol.
253 (2008) 544).

The model is piecewise. Each Heaviside switch H(u - threshold) is the
boolean u >= threshold (the fast gate's target is 1 where u <
v_inact_threshold), and each switched quantity is one np.where on it.
A switched term of a sum is 0.0 on the side the switch turns it off,
and the sums keep the operand order of the literal form
(1 - H) * a + H * b, so tests/oracles.py's literal Heaviside form gives
the same bits, signed zeros included.

Inputs must be finite. The solver never passes anything else: its
linear solve raises rather than return a non-finite potential, and the
run stops once |u| > 5. On a non-finite u the literal form's 0 * inf
gives NaN where np.where gives a finite value.
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


def rest_state(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Resting potential and gate values of n nodes (u=0, gates (1, 1, 0)).

    The third gate relaxes toward its small resting attractor over a few
    ms but leaves the potential untouched, so u stays exactly at rest.
    """
    return np.zeros(n), np.tile([1.0, 1.0, 0.0], (n, 1))


def gating_rhs(u, w) -> np.ndarray:
    """Right-hand side of the three gating ODEs, shaped like w."""
    p = PARAMS
    g = p.gating
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    w1, w2, w3 = w[..., 0], w[..., 1], w[..., 2]
    fast = u >= p.v_fast_threshold
    slow = u >= p.v_slow_threshold

    v_inf = np.where(u < g.v_inact_threshold, 1.0, 0.0)
    tau_v_minus = np.where(u >= g.v_inact_threshold, g.tau_v2_minus, g.tau_v1_minus)
    dw1 = (np.where(fast, 0.0, (v_inf - w1) / tau_v_minus)
           - np.where(fast, w1 / g.tau_v_plus, 0.0))

    w_inf = np.where(u >= p.v_open_threshold, g.w_inf_plateau,
                     1.0 - u / g.tau_w_inf_slope)
    tau_w_minus = g.tau_w1_minus + (g.tau_w2_minus - g.tau_w1_minus) * 0.5 * (
        1.0 + np.tanh(g.k_w_minus * (u - g.u_w_minus)))
    dw2 = (np.where(slow, 0.0, (w_inf - w2) / tau_w_minus)
           - np.where(slow, w2 / g.tau_w_plus, 0.0))

    s_inf = 0.5 * (1.0 + np.tanh(g.k_s * (u - g.u_s)))
    dw3 = (s_inf - w3) / np.where(slow, g.tau_s2, g.tau_s1)
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
    slow = u >= p.v_slow_threshold

    fast_gain = np.where(u >= p.v_fast_threshold,
                         (p.v_overshoot - u) * w1 / p.tau_fast, 0.0)
    tau_out_rest = np.where(u >= p.v_open_threshold,
                            p.tau_out_rest2, p.tau_out_rest1)
    tau_out_plateau = p.tau_out_plateau_slow + (
        p.tau_out_plateau_fast - p.tau_out_plateau_slow) * 0.5 * (
        1.0 + np.tanh(p.k_plateau * (u - p.u_plateau)))
    alpha = -fast_gain + np.where(slow, 0.0, 1.0 / tau_out_rest)
    beta = (p.v_fast_threshold * fast_gain
            + np.where(slow, 1.0 / tau_out_plateau, 0.0)
            - np.where(slow, w2 * w3 / p.tau_slow_inward, 0.0))
    return alpha, beta
