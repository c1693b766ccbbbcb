"""Closed-form diagonalization of the 3x3 photon blocks.

The characteristic polynomial E^3 + beta E^2 + gamma E + eta = 0 is
solved with the trigonometric (Cardano) form; the three roots keep the
fixed phase labeling

    E_j = -beta/3 + 2 sqrt(-Q) cos((theta + 2(j-1) pi)/3),  j = 1, 2, 3,

which downstream amplitude labels depend on (roots are never re-sorted;
with theta in [0, pi] this makes E_1 >= E_3 >= E_2).  Eigenvector rows
come from the adjugate of (H - E I); an in-module Jacobi eigensolver
backs the formula up wherever it degenerates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PhotonBlock, build_block

__all__ = [
    "CardanoIntermediates", "BlockSpectrum", "cardano", "eigenvalues",
    "eigenvector_coeffs", "rabi_frequencies", "rabi_frequencies_trig",
    "weighting_amplitudes", "block_spectrum", "spectrum_table", "jacobi_eigh",
]

# fallback threshold for the adjugate normalization, scaled by ||H||_F^2
_NORM_FLOOR = 1e-10
# orthonormality defect that forces the numeric fallback
_QUALITY_TOL = 5e-12
# degeneracy threshold on -Q, scaled by freq_scale^2
_DEGENERACY = 1e-14


@dataclass(frozen=True)
class CardanoIntermediates:
    """Characteristic-polynomial data for one block.

    beta, gamma, eta are the cubic coefficients; Q, R, theta the
    trigonometric-solution quantities; F_sum, delta_plus, delta_minus, G
    the photon-number combinations that the closed-form parameter
    expressions are written in.  degenerate marks the (near) triple root
    branch where theta is meaningless.
    """

    beta: float
    gamma: float
    eta: float
    Q: float
    R: float
    theta: float
    F_sum: float
    delta_plus: float
    delta_minus: float
    G: float
    degenerate: bool = False


@dataclass(frozen=True)
class BlockSpectrum:
    """Eigensystem of one photon block in the fixed Cardano labeling.

    coeffs[j] is eigenvector j expressed in the symmetric basis
    (|e,e,n>, sym|n+1>, |g,g,n+2>); rabi = (E1-E2, E1-E3, E3-E2);
    lam_diag / lam_off are the inversion weighting amplitudes
    (11, 22, 33) and (21, 31, 23).
    """

    n: int
    energies: np.ndarray
    coeffs: np.ndarray
    rabi: np.ndarray
    lam_diag: np.ndarray
    lam_off: np.ndarray
    intermediates: CardanoIntermediates
    used_fallback: bool


def jacobi_eigh(mat):
    """Eigenvalues and eigenvector columns of a small symmetric matrix.

    Classical Jacobi (largest off-diagonal pivot), iterated until the
    largest off-diagonal is below 1e-14 * ||mat||_F; the reference that the
    closed form is checked against, and its fallback.
    """
    A = np.array(mat, dtype=np.float64)
    n = A.shape[0]
    V = np.eye(n)
    nrm = 0.0
    for i in range(n):
        for j in range(n):
            nrm += A[i, j] * A[i, j]
    tol = 1e-14 * math.sqrt(nrm)
    for _ in range(60 * n * n):
        p, q, big = 0, 1, -1.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = abs(A[i, j])
                if aij > big:
                    big = aij
                    p, q = i, j
        if big <= tol:
            break
        apq = A[p, q]
        tau = 0.5 * (A[q, q] - A[p, p]) / apq
        if tau >= 0.0:
            t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
        else:
            t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = t * c
        for k in range(n):
            akp = A[k, p]
            akq = A[k, q]
            A[k, p] = c * akp - s * akq
            A[k, q] = s * akp + c * akq
        for k in range(n):
            apk = A[p, k]
            aqk = A[q, k]
            A[p, k] = c * apk - s * aqk
            A[q, k] = s * apk + c * aqk
        for k in range(n):
            vkp = V[k, p]
            vkq = V[k, q]
            V[k, p] = c * vkp - s * vkq
            V[k, q] = s * vkp + c * vkq
    return np.diag(A).copy(), V


def cardano(block: PhotonBlock) -> CardanoIntermediates:
    """Characteristic-polynomial coefficients and Cardano quantities."""
    H = block.matrix
    h00, h11, h22 = H[0, 0], H[1, 1], H[2, 2]
    h01, h12 = H[0, 1], H[1, 2]
    beta = -(h00 + h11 + h22)
    gamma = h00 * h11 + h00 * h22 + h11 * h22 - h01 * h01 - h12 * h12
    det = h00 * (h11 * h22 - h12 * h12) - h01 * h01 * h22
    eta = -det
    Q = (3.0 * gamma - beta * beta) / 9.0
    R = (9.0 * beta * gamma - 27.0 * eta - 2.0 * beta ** 3) / 54.0
    degenerate = -Q <= _DEGENERACY * block.freq_scale ** 2
    if degenerate or Q >= 0.0:
        theta = 0.0
    else:
        # rounding can push |R / sqrt(-Q^3)| slightly past 1 near repeated roots
        theta = math.acos(max(-1.0, min(1.0, R / math.sqrt(-Q ** 3))))
    f1sq = block.f_np1 ** 2
    f2sq = block.f_np2 ** 2
    return CardanoIntermediates(
        beta=beta, gamma=gamma, eta=eta, Q=Q, R=R, theta=theta,
        F_sum=block.F_n0 + block.F_n1 + block.F_n2,
        delta_plus=f2sq + f1sq, delta_minus=f2sq - f1sq,
        G=block.F_n0 * f2sq + block.F_n2 * f1sq,
        degenerate=degenerate)


def _char_poly(H, E):
    """det(H - E I) and its derivative for the tridiagonal block."""
    d0, d1, d2 = H[0, 0] - E, H[1, 1] - E, H[2, 2] - E
    a2, b2 = H[0, 1] ** 2, H[1, 2] ** 2
    p = d0 * d1 * d2 - b2 * d0 - a2 * d2
    dp = -(d1 * d2 + d0 * d2 + d0 * d1) + a2 + b2
    return p, dp


def eigenvalues(inter: CardanoIntermediates, block: PhotonBlock) -> np.ndarray:
    """The three roots in the fixed j = 1, 2, 3 labeling.

    Each Cardano root is polished with two guarded Newton steps on
    det(H - E I); near a triple root all three collapse to -beta/3.
    """
    if inter.degenerate:
        return np.full(3, -inter.beta / 3.0)
    amp = 2.0 * math.sqrt(-inter.Q)
    H = block.matrix
    scale = max(1.0, float(np.abs(H).max()))
    out = np.empty(3)
    for j in range(3):
        E = -inter.beta / 3.0 + amp * math.cos((inter.theta + 2.0 * j * math.pi) / 3.0)
        for _ in range(2):
            p, dp = _char_poly(H, E)
            if dp == 0.0:
                break
            corr = p / dp
            if not math.isfinite(corr) or abs(corr) > 1e-6 * scale:
                break
            E -= corr
        out[j] = E
    return out


def _adjugate_row(H, E):
    """Unnormalized eigenvector for eigenvalue E (adjugate column)."""
    return np.array([
        H[0, 1] * H[1, 2],
        H[1, 2] * (E - H[0, 0]),
        (E - H[1, 1]) * (E - H[0, 0]) - H[0, 1] ** 2,
    ])


def _fallback_coeffs(H, energies, rows):
    """Orthonormal rows from the Jacobi eigensystem, matched to the
    requested eigenvalue labels and sign-aligned with the adjugate rows."""
    w, V = jacobi_eigh(H)
    taken = np.zeros(len(w), dtype=bool)
    C = np.empty((3, 3))
    for j in range(3):
        free = np.where(~taken)[0]
        k = free[np.argmin(np.abs(w[free] - energies[j]))]
        taken[k] = True
        v = V[:, k]
        ref = rows[j]
        s = float(ref @ v)
        if s == 0.0:
            # deterministic sign: first nonzero component positive
            for comp in v:
                if comp != 0.0:
                    s = comp
                    break
        C[j] = v if s >= 0.0 else -v
    return C


def eigenvector_coeffs(energies, block: PhotonBlock):
    """Row-orthonormal eigenvector coefficients in the symmetric basis.

    Returns (C, used_fallback).  The adjugate formula is used wherever
    its normalization is healthy; rows with a tiny normalization (e.g.
    g = 0 makes every component vanish) or any residual orthonormality
    defect switch the whole block to the Jacobi path.
    """
    H = block.matrix
    hnorm2 = float(np.sum(H * H))
    rows = [_adjugate_row(H, E) for E in energies]
    if hnorm2 == 0.0:
        return np.eye(3), True
    C = np.empty((3, 3))
    for j, v in enumerate(rows):
        N = math.sqrt(float(v @ v))
        if N <= _NORM_FLOOR * hnorm2:
            return _fallback_coeffs(H, energies, rows), True
        C[j] = v / N
    defect = float(np.abs(C @ C.T - np.eye(3)).max())
    if defect > _QUALITY_TOL:
        return _fallback_coeffs(H, energies, rows), True
    return C, False


def rabi_frequencies(energies) -> np.ndarray:
    """(E1-E2, E1-E3, E3-E2) from the stored roots.

    The first entry is built as the sum of the other two, so the
    identity O21 = O23 + O31 holds bit-exactly.
    """
    e1, e2, e3 = energies
    o31 = e1 - e3
    o23 = e3 - e2
    return np.array([o23 + o31, o31, o23])


def rabi_frequencies_trig(inter: CardanoIntermediates) -> np.ndarray:
    """Same three frequencies from the trigonometric root form."""
    if inter.degenerate:
        return np.zeros(3)
    m3q = math.sqrt(-3.0 * inter.Q)
    c = math.cos(inter.theta / 3.0)
    s = math.sin(inter.theta / 3.0)
    return np.array([
        m3q * (math.sqrt(3.0) * c + s),
        m3q * (math.sqrt(3.0) * c - s),
        2.0 * m3q * s,
    ])


def weighting_amplitudes(C):
    """Inversion weighting amplitudes from the coefficient rows.

    lam[j,k] = C_j1 C_k1 (C_j1 C_k1 - C_j3 C_k3); returns the diagonal
    (11, 22, 33) and the off-diagonal triple (21, 31, 23).
    """
    c1 = C[:, 0]
    c3 = C[:, 2]
    p1 = np.outer(c1, c1)
    p3 = np.outer(c3, c3)
    lam = p1 * (p1 - p3)
    diag = np.array([lam[0, 0], lam[1, 1], lam[2, 2]])
    off = np.array([lam[1, 0], lam[2, 0], lam[1, 2]])
    return diag, off


def block_spectrum(params: ModelParams, n: int) -> BlockSpectrum:
    """Full closed-form eigensystem of the block with photon index n."""
    block = build_block(params, n)
    inter = cardano(block)
    energies = eigenvalues(inter, block)
    C, fell_back = eigenvector_coeffs(energies, block)
    lam_diag, lam_off = weighting_amplitudes(C)
    energies = np.asarray(energies)
    rabi = rabi_frequencies(energies)
    for arr in (energies, C, rabi, lam_diag, lam_off):
        arr.setflags(write=False)
    return BlockSpectrum(n=n, energies=energies, coeffs=C, rabi=rabi,
                         lam_diag=lam_diag, lam_off=lam_off,
                         intermediates=inter, used_fallback=fell_back)


def spectrum_table(params: ModelParams, n_max: int) -> list:
    """Block spectra for every photon index in [0, n_max]."""
    return [block_spectrum(params, n) for n in range(n_max + 1)]


def stack_spectra(spectra):
    """Stack a spectrum table into arrays (energies, coeffs, rabi,
    lam_diag, lam_off), each indexed by photon number first."""
    E = np.stack([s.energies for s in spectra])
    C = np.stack([s.coeffs for s in spectra])
    O = np.stack([s.rabi for s in spectra])
    ld = np.stack([s.lam_diag for s in spectra])
    lo = np.stack([s.lam_off for s in spectra])
    return E, C, O, ld, lo
