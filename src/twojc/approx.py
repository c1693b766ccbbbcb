"""Closed-form approximations to the inversion in two regimes.

Both hold for the intensity-dependent sqrt coupling at resonance and
moderately large mean photon number, where the Poisson sum over blocks
can be done exactly after linearizing the two surviving oscillation
frequencies in n.  The envelope factor exp(-2<n> sin^2 tau) and the
fast phase 3 tau + <n> sin 2 tau are common to both regimes; they differ
in how the anharmonicity or the atom-atom detuning splits the pair of
frequencies.

Validity is limited to tau = g t well below ~4 <n>^2, where the dropped
quadratic dephasing is negligible; evaluating further out sets off a
warning, not an error.
"""

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TwojcError
from .model import FKind, ModelParams

# anharmonicity ratio above which the locked-Kerr expansion is dubious
_X_WARN_KERR = 0.1


class RegimeKind(Enum):
    KERR_LOCKED = "kerr_locked"          # chi = 2(kappa - J), x = chi/g
    STANDARD_CAVITY = "standard_cavity"  # chi = 0, x = (kappa - J)/g


@dataclass(frozen=True)
class ApproxRegime:
    kind: RegimeKind
    x: float
    mean_n: float
    phi: float = None  # mean-photon phase-shift coefficient (locked Kerr only)

    def __post_init__(self):
        if self.mean_n < 1.0:
            raise TwojcError("approximations need mean_n >= 1")
        if self.mean_n < 10.0:
            warnings.warn("approximation accuracy degrades below mean_n ~ 10",
                          stacklevel=3)

    @property
    def tau_validity(self) -> float:
        """Upper end of the trusted window in tau = g t."""
        return 4.0 * self.mean_n ** 2


def _require_sqrt_coupling(params):
    if params.f_kind.kind is not FKind.BUCK_SUKUMAR:
        raise TwojcError("approximations assume the sqrt(n) coupling")


def kerr_regime(params: ModelParams, mean_n: float) -> ApproxRegime:
    """Locked-Kerr regime: requires chi = 2(kappa - J) and delta = 0."""
    _require_sqrt_coupling(params)
    lock = params.chi - 2.0 * params.kappa_minus_j
    if abs(lock) > 1e-12 * max(params.chi, abs(params.kappa_minus_j), params.g):
        raise TwojcError(
            f"locked-Kerr regime needs chi = 2(kappa - J); off by {lock!r}")
    if params.delta != 0.0:
        raise TwojcError("locked-Kerr regime assumes resonance (delta = 0)")
    x = params.chi / params.g
    if x > _X_WARN_KERR:
        warnings.warn(f"chi/g = {x:.3g} is large for the locked-Kerr expansion",
                      stacklevel=2)
    # exact sqrt-coupling ladder sums at n = <n>
    delta_plus = (mean_n + 2.0) ** 2 + (mean_n + 1.0) ** 2
    phi = math.sqrt(2.0) * (mean_n + 1.0) ** 2 / math.sqrt(delta_plus)
    return ApproxRegime(kind=RegimeKind.KERR_LOCKED, x=x, mean_n=float(mean_n),
                        phi=phi)


def standard_regime(params: ModelParams, mean_n: float) -> ApproxRegime:
    """Standard-cavity regime: chi = 0, 0 < (kappa - J)/g < 1, delta = 0."""
    _require_sqrt_coupling(params)
    if params.chi != 0.0:
        raise TwojcError("standard-cavity regime needs chi = 0")
    if params.delta != 0.0:
        raise TwojcError("standard-cavity regime assumes resonance (delta = 0)")
    x = params.kappa_minus_j / params.g
    if not 0.0 <= x < 1.0:
        raise TwojcError(f"(kappa - J)/g = {x:.3g} outside [0, 1)")
    return ApproxRegime(kind=RegimeKind.STANDARD_CAVITY, x=x, mean_n=float(mean_n))


def _warn_outside_window(regime, tau):
    tmax = float(np.max(np.abs(tau)))
    if tmax > regime.tau_validity:
        warnings.warn(
            f"tau up to {tmax:.3g} exceeds the trusted window ~{regime.tau_validity:.3g}",
            stacklevel=3)


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


def kerr_approx_inversion(regime: ApproxRegime, tau):
    """Locked-Kerr inversion estimate at tau = g t (scalar or array).

    offset + envelope * [L31 cos(3(1+x)tau + phi x^2 tau + <n> sin 2tau)
                         + L23 cos(3(1-x)tau + phi x^2 tau + <n> sin 2tau)]
    """
    if regime.kind is not RegimeKind.KERR_LOCKED:
        raise TwojcError("regime is not locked-Kerr")
    _warn_outside_window(regime, tau)
    tau = np.asarray(tau, dtype=float)
    lam = kerr_weight_amplitudes(regime.x)
    nb, x, phi = regime.mean_n, regime.x, regime.phi
    env = np.exp(-2.0 * nb * np.sin(tau) ** 2)
    common = phi * x * x * tau + nb * np.sin(2.0 * tau)
    val = (lam["lam_11"] + lam["lam_22"]
           + env * (lam["lam_31"] * np.cos(3.0 * (1.0 + x) * tau + common)
                    + lam["lam_23"] * np.cos(3.0 * (1.0 - x) * tau + common)))
    return val if val.ndim else float(val)


def standard_approx_inversion(regime: ApproxRegime, tau):
    """Standard-cavity inversion estimate at tau = g t (scalar or array).

    exp(-2<n> sin^2 tau) cos(x tau) cos(3 tau + <n> sin 2 tau); bounded
    by the exponential envelope by construction.
    """
    if regime.kind is not RegimeKind.STANDARD_CAVITY:
        raise TwojcError("regime is not standard-cavity")
    _warn_outside_window(regime, tau)
    tau = np.asarray(tau, dtype=float)
    val = (np.exp(-2.0 * regime.mean_n * np.sin(tau) ** 2)
           * np.cos(regime.x * tau)
           * np.cos(3.0 * tau + regime.mean_n * np.sin(2.0 * tau)))
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class Timescales:
    """Characteristic tau = g t scales: inner collapse and revival, and
    the node-to-node period of the slow beat envelope."""

    tau_collapse: float
    tau_revival: float
    beat_period: float


def timescales(regime: ApproxRegime) -> Timescales:
    tau_c = 1.0 / math.sqrt(2.0 * regime.mean_n)
    if regime.kind is RegimeKind.KERR_LOCKED:
        beat = math.pi / (3.0 * regime.x) if regime.x else math.inf
    else:
        beat = math.pi / regime.x if regime.x else math.inf
    return Timescales(tau_collapse=tau_c, tau_revival=math.pi, beat_period=beat)
