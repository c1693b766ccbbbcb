"""Physical parameters, photon-number nonlinearities, and the 3x3
interaction-picture blocks.

Two identical two-level atoms couple to one cavity mode.  The cavity
energy is omega0 * n * h(n), the atom-field coupling carries a
photon-number weight f(n), and the atoms interact directly through an
excitation-exchange term (strength kappa) and a sigma_z sigma_z term
(strength J).  Because total excitation is conserved, the symmetric
sector splits into independent 3x3 blocks, one per photon index n,
spanned by

    |e,e> x |n>,   (|e,g> + |g,e>)/sqrt(2) x |n+1>,   |g,g> x |n+2>.

A block is a plain float array: build_block gives (3, 3) for one index
and (..., 3, 3) for an index array.  Its entries are written only by
block_formula, whose numbers (g, J, kappa, delta, chi) broadcast against
n, so a stack of blocks with a parameter set per row is one call.  All
frequencies are angular, in units with hbar = 1.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalGuardError, TwojcError

SQRT2 = math.sqrt(2.0)


class HKind(Enum):
    """Cavity-energy nonlinearity h(n): energy is omega0 * n * h(n)."""

    STANDARD = "standard"        # h(n) = 1, harmonic cavity
    KERR = "kerr"                # h(n) = 1 + (chi/omega0) n
    CUSTOM = "custom"            # tabulated


class FKind(Enum):
    """Coupling weight f(n) multiplying the ladder operators."""

    LINEAR = "linear"            # f(n) = 1
    BUCK_SUKUMAR = "buck_sukumar"  # f(n) = sqrt(n)
    CUSTOM = "custom"            # tabulated


@dataclass(frozen=True)
class NonlinearitySelector:
    """One of the named nonlinearities, or a finite table of values.

    Tables (not callables) keep parameter sets serializable; a CUSTOM
    selector must tabulate every index the run will touch, i.e.
    n in [0, n_max + 2].
    """

    kind: HKind | FKind
    custom_table: tuple = None

    def __post_init__(self):
        if self.kind in (HKind.CUSTOM, FKind.CUSTOM):
            if not self.custom_table:
                raise TwojcError("custom nonlinearity requires a value table")
            object.__setattr__(self, "custom_table",
                               tuple(float(v) for v in self.custom_table))
        elif self.custom_table is not None:
            raise TwojcError("custom_table only applies to the CUSTOM kind")

    def table_value(self, n):
        """Tabulated value at index n (an int or an index array)."""
        n = np.asarray(n)
        outside = (n < 0) | (n >= len(self.custom_table))
        if np.any(outside):
            raise TwojcError(
                f"custom nonlinearity table has {len(self.custom_table)} entries; "
                f"index {n[outside].flat[0]} out of range")
        return np.asarray(self.custom_table)[n]


H_STANDARD = NonlinearitySelector(HKind.STANDARD)
H_KERR = NonlinearitySelector(HKind.KERR)
F_LINEAR = NonlinearitySelector(FKind.LINEAR)
F_BUCK_SUKUMAR = NonlinearitySelector(FKind.BUCK_SUKUMAR)


@dataclass(frozen=True)
class ModelParams:
    """All physical constants of the model (angular frequencies, hbar = 1).

    delta is stored redundantly next to omega and omega0; the constructor
    accepts either omega or delta (or both, if they agree) and always
    stores delta = omega - omega0 exactly.
    """

    omega0: float                # cavity mode frequency
    g: float                     # atom-field coupling (same for both atoms)
    kappa: float = 0.0           # excitation-exchange (dipole-dipole) strength
    J_ising: float = 0.0         # sigma_z sigma_z strength
    chi: float = 0.0             # Kerr anharmonicity
    omega: float = None          # atomic transition frequency
    delta: float = None          # detuning omega - omega0
    h_kind: NonlinearitySelector = H_STANDARD
    f_kind: NonlinearitySelector = F_LINEAR

    def __post_init__(self):
        for name in ("omega0", "g", "kappa", "J_ising", "chi", "omega", "delta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise TwojcError(f"{name} must be finite, got {value!r}")
        if not (self.omega0 > 0):
            raise TwojcError("omega0 must be positive")
        if not (self.g > 0):
            raise TwojcError("g must be positive")
        if self.chi < 0:
            raise TwojcError("chi must be nonnegative")
        omega, delta = self.omega, self.delta
        if omega is None and delta is None:
            omega, delta = self.omega0, 0.0
        elif omega is None:
            omega = self.omega0 + delta
        elif delta is None:
            delta = omega - self.omega0
        else:
            scale = max(1.0, abs(omega), abs(self.omega0))
            if abs(delta - (omega - self.omega0)) > 1e-12 * scale:
                raise TwojcError(
                    f"inconsistent (omega, omega0, delta): "
                    f"{omega} - {self.omega0} != {delta}")
        if not math.isfinite(float(omega) - float(self.omega0)):
            raise TwojcError(f"omega = {omega!r} and omega0 = {self.omega0!r} "
                             "do not give a finite detuning")
        object.__setattr__(self, "omega", float(omega))
        # stored delta is exactly omega - omega0 by construction
        object.__setattr__(self, "delta", float(omega) - float(self.omega0))
        if not isinstance(self.h_kind.kind, HKind):
            raise TwojcError("h_kind must carry an HKind selector")
        if not isinstance(self.f_kind.kind, FKind):
            raise TwojcError("f_kind must carry an FKind selector")
        if self.chi != 0.0 and self.h_kind.kind is not HKind.KERR:
            raise TwojcError(f"chi = {self.chi!r} needs h_kind kerr: "
                             f"the {self.h_kind.kind.value} cavity has no Kerr term")

    @property
    def kappa_minus_j(self):
        return self.kappa - self.J_ising


def _check_index(n, least=0):
    if (np.asarray(n) < least).any():
        raise TwojcError(f"photon index must be >= {least}")


def eval_h(selector: NonlinearitySelector, params: ModelParams, n):
    """Cavity nonlinearity h(n) for an index or an index array; dimensionless."""
    _check_index(n)
    kind = selector.kind
    if kind is HKind.STANDARD:
        return np.ones(np.shape(n))[()]
    if kind is HKind.KERR:
        return 1.0 + (params.chi / params.omega0) * n
    return selector.table_value(n)


def eval_f(selector: NonlinearitySelector, n):
    """Coupling weight f(n) for an index or an index array; dimensionless."""
    _check_index(n)
    kind = selector.kind
    if kind is FKind.LINEAR:
        return np.ones(np.shape(n))[()]
    if kind is FKind.BUCK_SUKUMAR:
        return np.sqrt(n)
    return selector.table_value(n)


def ladder_factor(selector: NonlinearitySelector, m):
    """Ladder product f_m = f(m) * sqrt(m), for m >= 1 (or an array of them).

    This is the matrix element weight of a f(n) between |m> and |m-1>.
    For the intensity-dependent sqrt coupling it is exactly m.
    """
    _check_index(m, least=1)
    if selector.kind is FKind.BUCK_SUKUMAR:
        return np.asarray(m, dtype=float)[()]  # sqrt(m)*sqrt(m), exact for integer m
    return eval_f(selector, m) * np.sqrt(m)


def shift_factor(h_kind: NonlinearitySelector, omega0, chi, m):
    """omega0 * m * (h(m) - 1): the anharmonic part of the cavity energy;
    omega0 and chi broadcast against m."""
    if h_kind.kind is HKind.KERR:
        # avoids the (chi/omega0)*omega0 round trip
        return chi * m * m
    # a standard or tabulated h reads no parameter
    return omega0 * m * (eval_h(h_kind, None, m) - 1.0)


def build_block(params: ModelParams, n) -> np.ndarray:
    """The symmetric-sector block of photon index n, read-only (3, 3);
    an index array n gives the stack of every index at once, with n's
    axes in front.  It is block_formula with params' numbers."""
    return block_formula(params.f_kind, params.h_kind, n, omega0=params.omega0,
                         g=params.g, J_ising=params.J_ising, kappa=params.kappa,
                         delta=params.delta, chi=params.chi)


def block_formula(f_kind: NonlinearitySelector, h_kind: NonlinearitySelector, n,
                  *, omega0, g, J_ising, kappa, delta, chi) -> np.ndarray:
    """The one writer of the block entries.  The numbers (omega0, g,
    J_ising, kappa, delta, chi) are floats or arrays that broadcast
    against n, and the read-only result has their broadcast shape in
    front of (3, 3).  In rad/time a block is

        [ w0*F0 + delta + J      sqrt(2) g f_{n+1}      0            ]
        [ sqrt(2) g f_{n+1}      w0*F1 - J + 2 kappa    sqrt(2) g f_{n+2} ]
        [ 0                      sqrt(2) g f_{n+2}      w0*F2 - delta + J ]

    with f_m = f(m) sqrt(m) (ladder_factor) and F_i = (n+i)(h(n+i) - 1).
    An entry beyond double range trips the numerical guard, which names
    the photon index of the first such block.
    """
    _check_index(n)
    shape = np.broadcast_shapes(*map(np.shape, (n, omega0, g, J_ising, kappa, delta, chi)))
    mat = np.zeros(shape + (3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        off1 = SQRT2 * g * ladder_factor(f_kind, n + 1)
        off2 = SQRT2 * g * ladder_factor(f_kind, n + 2)
        mat[..., 0, 0] = shift_factor(h_kind, omega0, chi, n) + delta + J_ising
        mat[..., 1, 1] = shift_factor(h_kind, omega0, chi, n + 1) - J_ising + 2.0 * kappa
        mat[..., 2, 2] = shift_factor(h_kind, omega0, chi, n + 2) - delta + J_ising
        mat[..., 0, 1] = mat[..., 1, 0] = off1
        mat[..., 1, 2] = mat[..., 2, 1] = off2
    bad = ~np.isfinite(mat).all(axis=(-2, -1))
    if bad.any():
        raise NumericalGuardError(
            f"block n = {int(np.broadcast_to(n, shape)[bad].flat[0])}: non-finite entries "
            "(the couplings overflow double range)")
    mat.setflags(write=False)
    return mat


def validity_ratios(params: ModelParams, weights: np.ndarray) -> dict:
    """Diagnostic ratios for the weak-coupling / two-level regime.

    weights is the photon-number distribution P_n.  Returns the ratios
    g<f>/(omega0<h>) and g<f>/omega; both should be small for the model
    assumptions to hold.  No cutoff is enforced here.
    """
    w = np.asarray(weights, dtype=float)
    ns = np.arange(len(w))
    mean_f = float(np.sum(w * eval_f(params.f_kind, ns)))
    mean_h = float(np.sum(w * eval_h(params.h_kind, params, ns)))
    return {
        "g_f_over_omega0_h": params.g * mean_f / (params.omega0 * mean_h),
        "g_f_over_omega": params.g * mean_f / params.omega if params.omega else math.inf,
    }
