"""Closed-form diagonalization of the 3x3 photon blocks.

The characteristic polynomial E^3 + beta E^2 + gamma E + eta = 0 is
solved with the trigonometric (Cardano) form; the three roots keep the
fixed phase labeling

    E_j = -beta/3 + 2 sqrt(-Q) cos((theta + 2(j-1) pi)/3),  j = 1, 2, 3,

which downstream amplitude labels depend on (roots are never re-sorted;
with theta in [0, pi] this makes E_1 >= E_3 >= E_2).  Eigenvector rows
come from the adjugate of (H - E I).  Wherever that formula degenerates,
the block is solved by LAPACK's eigh instead, which gives the row both
its energies and its vectors, labelled by sorted order: the ascending
eigenvalues are E_2, E_3, E_1.  Every function takes the blocks as the plain
(..., 3, 3) arrays of model.build_block.  The package's one hand-written
eigensolver is the oracle's cyclic Jacobi, which the roots are checked
against so that the reference shares no code with this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError, TwojcError
from .model import ModelParams, build_block

# fallback threshold for the adjugate normalization, scaled by ||H||_F^2
_NORM_FLOOR = 1e-10
# orthonormality defect that forces the numeric fallback
_QUALITY_TOL = 5e-12
# degeneracy threshold on -Q, scaled by max|H|^2 so that 2^k H is flagged as H is
_DEGENERACY = 1e-14
# E_1, E_2, E_3 as indices into eigh's ascending eigenvalues (E_1 >= E_3 >= E_2)
_SORTED_LABELS = [2, 0, 1]


@dataclass(frozen=True)
class CardanoIntermediates:
    """Characteristic-polynomial data for a block or a stack of blocks.

    beta, gamma, eta are the cubic coefficients; Q, R, theta the
    trigonometric-solution quantities.  degenerate marks the (near)
    triple root branch where theta is meaningless.  Every field has the
    leading shape of the blocks.
    """

    beta: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    theta: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class SpectrumTable:
    """Eigensystems of a stack of photon blocks in the fixed Cardano labeling.

    Row i belongs to photon index n[i]: energies (N, 3); coeffs (N, 3, 3),
    where coeffs[i, j] is eigenvector j in the symmetric basis
    (|e,e,n>, sym|n+1>, |g,g,n+2>); used_fallback (N,) marks rows solved by
    the eigh fallback.  table[k] is row k.  The frequencies and weighting
    amplitudes follow from these: rabi_frequencies(energies) and
    weighting_amplitudes(coeffs).
    """

    n: np.ndarray
    energies: np.ndarray
    coeffs: np.ndarray
    used_fallback: np.ndarray

    def __len__(self):
        return len(self.n)

    def __getitem__(self, k):
        return SpectrumTable(n=self.n[k], energies=self.energies[k],
                             coeffs=self.coeffs[k], used_fallback=self.used_fallback[k])


def cardano(H) -> CardanoIntermediates:
    """Characteristic-polynomial coefficients and Cardano quantities."""
    h00, h11, h22 = H[..., 0, 0], H[..., 1, 1], H[..., 2, 2]
    h01, h12 = H[..., 0, 1], H[..., 1, 2]
    beta = -(h00 + h11 + h22)
    gamma = h00 * h11 + h00 * h22 + h11 * h22 - h01 * h01 - h12 * h12
    det = h00 * (h11 * h22 - h12 * h12) - h01 * h01 * h22
    eta = -det
    Q = (3.0 * gamma - beta * beta) / 9.0
    R = (9.0 * beta * gamma - 27.0 * eta - 2.0 * beta ** 3) / 54.0
    degenerate = -Q <= _DEGENERACY * np.square(np.abs(H).max(axis=(-2, -1)))
    trig = ~degenerate & (Q < 0.0)
    # rounding can push |R / sqrt(-Q^3)| slightly past 1 near repeated roots
    cos3 = np.clip(R / np.sqrt(-np.where(trig, Q, -1.0) ** 3), -1.0, 1.0)
    theta = np.where(trig, np.arccos(cos3), 0.0)
    return CardanoIntermediates(beta=beta, gamma=gamma, eta=eta, Q=Q, R=R,
                                theta=theta, degenerate=degenerate)


def _char_poly(H, E):
    """det(H - E I) and its derivative for tridiagonal blocks; E carries the
    roots on its last axis."""
    d0 = H[..., 0, 0, None] - E
    d1 = H[..., 1, 1, None] - E
    d2 = H[..., 2, 2, None] - E
    a2, b2 = H[..., 0, 1, None] ** 2, H[..., 1, 2, None] ** 2
    p = d0 * d1 * d2 - b2 * d0 - a2 * d2
    dp = -(d1 * d2 + d0 * d2 + d0 * d1) + a2 + b2
    return p, dp


def eigenvalues(inter: CardanoIntermediates, H) -> np.ndarray:
    """The three roots in the fixed j = 1, 2, 3 labeling, on the last axis.

    Each Cardano root is polished with two guarded Newton steps on
    det(H - E I); a root stops at the first step that is not finite or
    larger than 1e-6 max(1, max|H|).  Near a triple root all three
    collapse to -beta/3.
    """
    third = (-inter.beta / 3.0)[..., None]
    amp = 2.0 * np.sqrt(np.where(inter.degenerate, 0.0, -inter.Q))[..., None]
    E = third + amp * np.cos((inter.theta[..., None] + 2.0 * np.arange(3) * np.pi) / 3.0)
    scale = np.maximum(1.0, np.abs(H).max(axis=(-2, -1)))[..., None]
    active = ~inter.degenerate[..., None]
    for _ in range(2):
        p, dp = _char_poly(H, E)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = p / dp
        active = active & (dp != 0.0) & np.isfinite(corr) & (np.abs(corr) <= 1e-6 * scale)
        E = np.where(active, E - corr, E)
    return np.where(inter.degenerate[..., None], third, E)


def _adjugate_rows(H, E):
    """Unnormalized eigenvectors for the roots E (adjugate columns), one
    row per root."""
    h00, h11 = H[..., 0, 0, None], H[..., 1, 1, None]
    h01, h12 = H[..., 0, 1, None], H[..., 1, 2, None]
    return np.stack([np.broadcast_to(h01 * h12, E.shape),
                     h12 * (E - h00),
                     (E - h11) * (E - h00) - h01 ** 2], axis=-1)


def eigenvector_coeffs(energies, H):
    """Row-orthonormal eigenvector coefficients in the symmetric basis.

    Returns (energies, C, used_fallback), C with the blocks' leading shape
    plus (3, 3).  The adjugate formula is used wherever its normalization
    is healthy; a block with a tiny row normalization (e.g. g = 0 makes
    every component vanish) or any residual orthonormality defect is
    solved by one stacked eigh instead, and only those blocks are; such a
    block takes eigh's eigenvalues too.  Each eigh row points along the
    adjugate row at its own eigenvalue, else has its first nonzero entry
    positive.
    """
    hnorm2 = np.sum(H * H, axis=(-2, -1))
    rows = _adjugate_rows(H, energies)
    norm = np.sqrt((rows[..., None, :] @ rows[..., :, None])[..., 0, 0])
    healthy = norm > _NORM_FLOOR * hnorm2[..., None]
    C = rows / np.where(healthy, norm, 1.0)[..., None]
    defect = np.abs(C @ np.swapaxes(C, -1, -2) - np.eye(3)).max(axis=(-2, -1))
    used_fallback = ~healthy.all(axis=-1) | (defect > _QUALITY_TOL)
    blocks = H[used_fallback]
    w, V = np.linalg.eigh(blocks)
    w, V = w[:, _SORTED_LABELS], np.swapaxes(V, -1, -2)[:, _SORTED_LABELS]
    s = (_adjugate_rows(blocks, w)[..., None, :] @ V[..., :, None])[..., 0, 0]
    first = np.take_along_axis(V, np.argmax(V != 0.0, axis=-1)[..., None], axis=-1)[..., 0]
    s = np.where(s == 0.0, first, s)
    energies = np.array(energies)
    energies[used_fallback] = w
    C[used_fallback] = np.where(s[..., None] >= 0.0, V, -V)
    return energies, C, used_fallback


def rabi_frequencies(energies) -> np.ndarray:
    """(E1-E2, E1-E3, E3-E2) from the stored roots, on the last axis.

    The first entry is built as the sum of the other two, so the
    identity O21 = O23 + O31 holds bit-exactly.
    """
    o31 = energies[..., 0] - energies[..., 2]
    o23 = energies[..., 2] - energies[..., 1]
    return np.stack([o23 + o31, o31, o23], axis=-1)


def rabi_frequencies_trig(inter: CardanoIntermediates) -> np.ndarray:
    """Same three frequencies from the trigonometric root form: the
    independent reference that tests hold rabi_frequencies to."""
    m3q = np.sqrt(np.where(inter.degenerate, 0.0, -3.0 * inter.Q))
    c = np.cos(inter.theta / 3.0)
    s = np.sin(inter.theta / 3.0)
    return np.stack([m3q * (math.sqrt(3.0) * c + s),
                     m3q * (math.sqrt(3.0) * c - s),
                     2.0 * m3q * s], axis=-1)


def weighting_amplitudes(C):
    """Inversion weighting amplitudes from the coefficient rows.

    lam[j,k] = C_j1 C_k1 (C_j1 C_k1 - C_j3 C_k3); returns the diagonal
    (11, 22, 33) and the off-diagonal triple (21, 31, 23), on the last axis.
    """
    c1 = C[..., :, 0]
    c3 = C[..., :, 2]
    p1 = c1[..., :, None] * c1[..., None, :]
    p3 = c3[..., :, None] * c3[..., None, :]
    lam = p1 * (p1 - p3)
    diag = np.stack([lam[..., 0, 0], lam[..., 1, 1], lam[..., 2, 2]], axis=-1)
    off = np.stack([lam[..., 1, 0], lam[..., 2, 0], lam[..., 1, 2]], axis=-1)
    return diag, off


def solve_blocks(H, n) -> SpectrumTable:
    """Closed-form eigensystems of a block or a stack of blocks at once,
    labelled by the photon indices n (H's leading shape).

    Each block is solved as 2^-e H, with max|H| < 2^e <= 2 max|H|, so the
    cubic's coefficients stay in double range for any finite block, and
    the energies are scaled back by 2^e.  A power of two moves no bit of
    the result, except that the Newton steps of eigenvalues() then stop at
    corrections above 1e-6 2^e.  Blocks not (..., 3, 3), or holding a NaN
    or Inf, abort.
    """
    if np.shape(H)[-2:] != (3, 3):
        raise TwojcError(f"blocks must be (..., 3, 3), got shape {np.shape(H)}")
    if not np.isfinite(H).all():
        raise NumericalGuardError("block holds non-finite entries")
    e = np.frexp(np.abs(H).max(axis=(-2, -1)))[1]
    scaled = np.ldexp(H, -e[..., None, None])
    energies, C, fell_back = eigenvector_coeffs(eigenvalues(cardano(scaled), scaled), scaled)
    table = SpectrumTable(n=np.array(n), energies=np.ldexp(energies, e[..., None]),
                          coeffs=C, used_fallback=fell_back)
    for arr in (table.n, table.energies, C, fell_back):
        arr.setflags(write=False)
    return table


def spectrum_table(params: ModelParams, n_max: int) -> SpectrumTable:
    """Block spectra for every photon index in [0, n_max], as one table."""
    n = np.arange(n_max + 1)
    return solve_blocks(build_block(params, n), n)


def block_spectrum(params: ModelParams, n: int) -> SpectrumTable:
    """The spectrum_table row of photon index n, solved alone."""
    n = np.array([n])
    return solve_blocks(build_block(params, n), n)[0]
