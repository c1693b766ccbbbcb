"""Closed-form approximations to the inversion, one entry for two regimes.

Both hold for the intensity-dependent sqrt coupling at resonance and
moderately large mean photon number, where the Poisson sum over blocks
can be done exactly after linearizing the two surviving oscillation
frequencies in n.  The envelope factor exp(-2<n> sin^2 tau) and the
fast phase 3 tau + <n> sin 2 tau are common to both regimes; they differ
in how the anharmonicity or the atom-atom detuning splits the pair of
frequencies.

The regime is read from the parameters.  chi = 0 is the standard cavity,
with x = (kappa - J)/g in [0, 1).  chi > 0 is the locked Kerr cavity: it
needs chi = 2(kappa - J), and x = chi/g.  The two overlap only at
chi = kappa - J = 0, where the Kerr form reduces to the standard one.

Validity is limited to tau = g t well below ~4 <n>^2, where the dropped
quadratic dephasing is negligible; evaluating further out sets off a
warning, not an error.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TwojcError
from .model import FKind, ModelParams

# anharmonicity ratio above which the locked-Kerr expansion is dubious
_X_WARN_KERR = 0.1


def _regime(params: ModelParams, mean_n: float):
    """(locked Kerr?, x) of the parameters; raises where neither regime
    applies, and warns (at the caller's caller) where accuracy degrades."""
    if params.f_kind.kind is not FKind.BUCK_SUKUMAR:
        raise TwojcError("approximations assume the sqrt(n) coupling")
    if params.delta != 0.0:
        raise TwojcError("approximations assume resonance (delta = 0)")
    if mean_n < 1.0:
        raise TwojcError("approximations need mean_n >= 1")
    if mean_n < 10.0:
        warnings.warn("approximation accuracy degrades below mean_n ~ 10",
                      stacklevel=3)
    if params.chi == 0.0:
        x = params.kappa_minus_j / params.g
        if not 0.0 <= x < 1.0:
            raise TwojcError(f"(kappa - J)/g = {x:.3g} outside [0, 1)")
        return False, x
    lock = params.chi - 2.0 * params.kappa_minus_j
    if abs(lock) > 1e-12 * max(params.chi, abs(params.kappa_minus_j), params.g):
        raise TwojcError(
            f"chi > 0 needs the locked Kerr cavity chi = 2(kappa - J); off by {lock!r}")
    x = params.chi / params.g
    if x > _X_WARN_KERR:
        warnings.warn(f"chi/g = {x:.3g} is large for the locked-Kerr expansion",
                      stacklevel=3)
    return True, x


def kerr_weight_amplitudes(x: float) -> dict:
    """Large-n weighting amplitudes as functions of x = chi/g."""
    s = math.sqrt(1.0 + x * x)
    up = x * x + x * s + 1.0
    dn = x * x - x * s + 1.0
    return {
        "lam_31": 1.0 / (4.0 * (1.0 + x * x) * up),
        "lam_23": 1.0 / (4.0 * (1.0 + x * x) * dn),
        "lam_11": -(x * x + x * s) / (4.0 * up ** 3),
        "lam_22": -(x * x - x * s) / (4.0 * dn ** 3),
        "lam_21": 0.0,
        "lam_33": 0.0,
    }


def approx_inversion(params: ModelParams, mean_n: float, tau):
    """Large-n inversion estimate at tau = g t (scalar or array), in the
    regime the parameters set; env = exp(-2<n> sin^2 tau).

    standard: env cos(x tau) cos(3 tau + <n> sin 2tau), inside env.
    locked Kerr: L11 + L22 + 2 env [L31 cos(3(1+x)tau + c) + L23 cos(3(1-x)tau + c)]
    with c = phi x^2 tau + <n> sin 2tau.  Each off-diagonal amplitude counts
    twice, as in the completeness sum, so both forms read 1 at tau = 0.
    """
    kerr, x = _regime(params, mean_n)
    tau = np.asarray(tau, dtype=float)
    tmax = float(np.max(np.abs(tau), initial=0.0))
    window = 4.0 * mean_n ** 2
    if tmax > window:
        warnings.warn(f"tau up to {tmax:.3g} exceeds the trusted window ~{window:.3g}",
                      stacklevel=2)
    env = np.exp(-2.0 * mean_n * np.sin(tau) ** 2)
    if kerr:
        lam = kerr_weight_amplitudes(x)
        # mean-photon phase shift from the exact sqrt-coupling ladder sums at <n>
        delta_plus = (mean_n + 2.0) ** 2 + (mean_n + 1.0) ** 2
        phi = math.sqrt(2.0) * (mean_n + 1.0) ** 2 / math.sqrt(delta_plus)
        common = phi * x * x * tau + mean_n * np.sin(2.0 * tau)
        val = (lam["lam_11"] + lam["lam_22"]
               + 2.0 * env * (lam["lam_31"] * np.cos(3.0 * (1.0 + x) * tau + common)
                              + lam["lam_23"] * np.cos(3.0 * (1.0 - x) * tau + common)))
    else:
        val = env * np.cos(x * tau) * np.cos(3.0 * tau + mean_n * np.sin(2.0 * tau))
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class Timescales:
    """Characteristic tau = g t scales: inner collapse and revival, and
    the node-to-node period of the slow beat envelope."""

    tau_collapse: float
    tau_revival: float
    beat_period: float


def timescales(params: ModelParams, mean_n: float) -> Timescales:
    """Timescales in the regime the parameters set (see `approx_inversion`)."""
    kerr, x = _regime(params, mean_n)
    beat = math.pi / ((3.0 if kerr else 1.0) * x) if x else math.inf
    return Timescales(1.0 / math.sqrt(2.0 * mean_n), math.pi, beat)
