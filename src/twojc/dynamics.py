"""Analytic time evolution and observables.

With the blocks diagonalized, the joint state at time t is a sum over
photon indices n of the three symmetric-sector branches

    sum_k A_n D_k^(n)(t) |phi_k> x |n+k-1>,

where D_k^(n)(t) = sum_j C_j,init C_jk exp(-i E_j t) and the initial
atomic state selects init = 1 (both excited) or init = 2 (symmetric
entangled).  Everything observable -- inversion, reduced densities,
purity, concurrence, entropies, the Husimi distribution -- is assembled
from these coefficients.  Note the bookkeeping convention: block n puts
n+k-1 photons under branch k, so a "symmetric" run starting in branch 2
carries one quantum more in the field than the bare amplitude index
suggests.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalGuardError, TruncationError, TwojcError
from .spectral import stack_spectra

SQRT2 = math.sqrt(2.0)

TAIL_TOL = 1e-12
NORM_TOL = 1e-12


class AtomInit(Enum):
    BOTH_EXCITED = "both_excited"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class FieldInit:
    """Initial field amplitudes on a truncated Fock ladder.

    amplitudes[n] weights block n; the top two slots act as a safety
    buffer (the joint basis reaches n+2) and must be essentially empty.
    """

    amplitudes: np.ndarray
    n_max: int
    mean_n: float
    atom_init: AtomInit = AtomInit.BOTH_EXCITED

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if len(amps) != self.n_max + 1:
            raise TwojcError("amplitudes must have n_max + 1 entries")
        # tail first: a heavily truncated state is a truncation problem,
        # not a normalization problem
        tail = float(np.sum(np.abs(amps[self.n_max - 1:]) ** 2))
        if tail >= TAIL_TOL:
            raise TruncationError(
                f"tail mass {tail:.3e} above the top two Fock slots; increase n_max",
                suggested_n_max=auto_n_max(self.mean_n))
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise TwojcError(f"field amplitudes not normalized: sum P_n = {norm!r}")

    @property
    def probabilities(self):
        return np.abs(self.amplitudes) ** 2


def _log_factorials(count: int) -> np.ndarray:
    """ln(p!) for p = 0 .. count - 1."""
    return np.array([math.lgamma(p + 1.0) for p in range(count)])


def auto_n_max(mean_n: float) -> int:
    """Truncation heuristic leaving a wide Poisson tail margin."""
    return int(math.ceil(mean_n + 12.0 * math.sqrt(max(mean_n, 0.0)) + 20.0))


def coherent_field(mean_n: float, phase: float = 0.0, n_max: int = None,
                   atom_init: AtomInit = AtomInit.BOTH_EXCITED) -> FieldInit:
    """Coherent-state amplitudes A_n = e^{-m/2} (sqrt(m) e^{i phi})^n / sqrt(n!).

    Computed in log space so large n never touches an explicit
    factorial.  n_max defaults to auto_n_max(mean_n).
    """
    if mean_n < 0:
        raise TwojcError("mean photon number must be nonnegative")
    if n_max is None:
        n_max = auto_n_max(mean_n)
    n = np.arange(n_max + 1)
    if mean_n == 0.0:
        amps = np.zeros(n_max + 1, dtype=np.complex128)
        amps[0] = 1.0
    else:
        logmag = (-mean_n / 2.0 + 0.5 * n * math.log(mean_n)
                  - 0.5 * _log_factorials(n_max + 1))
        amps = np.exp(logmag) * np.exp(1j * n * phase)
    return FieldInit(amplitudes=amps, n_max=n_max, mean_n=float(mean_n),
                     atom_init=atom_init)


@dataclass(frozen=True)
class EvolutionCoeffs:
    """Branch coefficients D_k^(n)(t) for every block, at one time."""

    time: float
    atom_init: AtomInit
    coeffs: np.ndarray  # (n_max+1, 3) complex


def _init_column(atom_init: AtomInit) -> int:
    return 0 if atom_init is AtomInit.BOTH_EXCITED else 1


def _coeff_batch(E, C, times, atom_init):
    """D[t, n, k] over a time array; (T, n_max+1, 3) complex."""
    col = _init_column(atom_init)
    W = C[:, :, col][:, :, None] * C              # (N+1, 3, 3) over j
    phases = np.exp(-1j * E[None, :, :] * np.asarray(times)[:, None, None])
    return np.einsum("njk,tnj->tnk", W, phases)


def evolve_coeffs(spectra, atom_init: AtomInit, t: float) -> EvolutionCoeffs:
    """Branch coefficients at time t from the block spectra."""
    E, C, _, _, _ = stack_spectra(spectra)
    D = _coeff_batch(E, C, np.array([t]), atom_init)[0]
    return EvolutionCoeffs(time=float(t), atom_init=atom_init, coeffs=D)


# ---------------------------------------------------------------------------
# densities

@dataclass(frozen=True)
class AtomDensity:
    """Reduced 3x3 atomic density in the basis (|e,e>, sym, |g,g>)."""

    matrix: np.ndarray

    @property
    def trace_defect(self):
        return abs(float(np.trace(self.matrix).real) - 1.0)

    @property
    def hermiticity_defect(self):
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


@dataclass(frozen=True)
class FieldDensity:
    """Reduced field density on Fock levels 0 .. n_max + 2.

    factors, when known, holds rows chi_k with matrix = sum_k |chi_k><chi_k|
    (rank <= 3 for the states built here); husimi_grid works from them.
    """

    matrix: np.ndarray
    factors: np.ndarray = None

    @property
    def n_max(self):
        return self.matrix.shape[0] - 3

    @property
    def trace_defect(self):
        return abs(float(np.trace(self.matrix).real) - 1.0)

    def mean_photons(self):
        return float(np.sum(np.arange(self.matrix.shape[0]) * np.diag(self.matrix).real))


def _rho_atoms_batch(A, D):
    """rho_A[t] from padded shifted sums; (T, 3, 3) complex.

    Entry (k, j) sums A_{n+j-k} A_n^* D_k^{(n+j-k)} D_j^{(n)*}; amplitude
    and coefficient indices outside [0, n_max] count as zero.
    """
    T = D.shape[0]
    Np1 = len(A)
    Ap = np.concatenate([np.zeros(2, np.complex128), A, np.zeros(2, np.complex128)])
    Dp = np.concatenate([np.zeros((T, 2, 3), np.complex128), D,
                         np.zeros((T, 2, 3), np.complex128)], axis=1)
    idx = np.arange(Np1)
    rho = np.empty((T, 3, 3), dtype=np.complex128)
    for k in range(3):
        for j in range(3):
            s = j - k
            rho[:, k, j] = np.sum(
                Ap[None, idx + 2 + s] * np.conj(A)[None, :]
                * Dp[:, idx + 2 + s, k] * np.conj(D[:, idx, j]), axis=1)
    return rho


def reduced_atom_density(field: FieldInit, spectra, t: float) -> AtomDensity:
    E, C, _, _, _ = stack_spectra(spectra)
    D = _coeff_batch(E, C, np.array([t]), field.atom_init)
    rho = _rho_atoms_batch(field.amplitudes, D)[0]
    rho.setflags(write=False)
    return AtomDensity(matrix=rho)


def reduced_field_density(field: FieldInit, spectra, t: float) -> FieldDensity:
    """rho_F(t) = sum_k |chi_k><chi_k| with chi_k[n+k-1] = A_n D_k^(n)."""
    E, C, _, _, _ = stack_spectra(spectra)
    D = _coeff_batch(E, C, np.array([t]), field.atom_init)[0]
    N = field.n_max
    M = N + 3
    chi = np.zeros((3, M), dtype=np.complex128)
    rho = np.zeros((M, M), dtype=np.complex128)
    for k in range(3):
        chi[k, k:k + N + 1] = field.amplitudes * D[:, k]
        rho += np.outer(chi[k], chi[k].conj())
    rho.setflags(write=False)
    chi.setflags(write=False)
    return FieldDensity(matrix=rho, factors=chi)


# ---------------------------------------------------------------------------
# scalar observables

def inversion_series(field: FieldInit, spectra, times) -> np.ndarray:
    """<D_Z>(t) for each t; D_Z = (sigma_z^(1) + sigma_z^(2)) / 2."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if field.atom_init is AtomInit.BOTH_EXCITED:
        E, C, O, ld, lo = stack_spectra(spectra)
        Pn = field.probabilities
        const = float(np.sum(Pn * ld.sum(axis=1)))
        cosines = np.cos(O[None, :, :] * times[:, None, None])
        return const + 2.0 * np.einsum("n,nk,tnk->t", Pn, lo, cosines)
    # symmetric start: no closed form with these amplitudes; use rho_A
    E, C, _, _, _ = stack_spectra(spectra)
    D = _coeff_batch(E, C, times, field.atom_init)
    rho = _rho_atoms_batch(field.amplitudes, D)
    return np.real(rho[:, 0, 0] - rho[:, 2, 2])


def atomic_inversion(field: FieldInit, spectra, t: float) -> float:
    return float(inversion_series(field, spectra, [t])[0])


def purity(rho: AtomDensity) -> float:
    """Tr(rho^2); for the Hermitian 3x3 this is the squared entry sum."""
    m = rho.matrix if isinstance(rho, AtomDensity) else np.asarray(rho)
    return float(np.sum(np.abs(m) ** 2))


def hermitian_eigvals(mat) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of a stack of them
    (last two axes)."""
    return np.linalg.eigvalsh(np.asarray(mat, dtype=np.complex128))


def field_entropy(rho: AtomDensity) -> float:
    """von Neumann entropy of the field through the atomic eigenvalues.

    For a joint pure state the field and atom entropies coincide, so the
    3x3 atomic density is enough; see entropy_of_eigvals for the clipping.
    """
    m = rho.matrix if isinstance(rho, AtomDensity) else np.asarray(rho)
    return entropy_of_eigvals(hermitian_eigvals(m))


def entropy_of_eigvals(w):
    """-sum w ln w over the last axis.

    Eigenvalues are clipped to [0, 1] and anything at or below 1e-14
    contributes nothing (x ln x -> 0).  A 1-D input gives a float, a
    stack of spectra an array.
    """
    w = np.clip(np.asarray(w, dtype=float), 0.0, 1.0)
    keep = w > 1e-14
    terms = np.zeros_like(w)
    terms[keep] = w[keep] * np.log(w[keep])
    s = -np.sum(terms, axis=-1)
    return float(s) if s.ndim == 0 else s


# computational-basis order (|g,g>, |g,e>, |e,g>, |e,e>)
_EMBED = np.zeros((4, 3))
_EMBED[3, 0] = 1.0
_EMBED[1, 1] = _EMBED[2, 1] = 1.0 / SQRT2
_EMBED[0, 2] = 1.0

_YY = np.zeros((4, 4))
_YY[0, 3] = _YY[3, 0] = -1.0
_YY[1, 2] = _YY[2, 1] = 1.0


def embed_atom_density(rho) -> np.ndarray:
    """Map the symmetric-sector 3x3 density (or a stack of them) into the
    two-qubit computational basis (zero antisymmetric component)."""
    m = rho.matrix if isinstance(rho, AtomDensity) else np.asarray(rho)
    return _EMBED @ m @ _EMBED.T


def concurrence(rho):
    """Two-qubit concurrence of the atomic state.

    Accepts the symmetric-sector 3x3 (embedded automatically) or a full
    4x4 in the computational basis, or a (T, 3, 3) / (T, 4, 4) stack, for
    which it returns an array.  Eigenvalues of rho (YY) rho* (YY) are
    real up to rounding; an imaginary residue above 1e-8 aborts rather
    than being dropped.
    """
    m = rho.matrix if isinstance(rho, AtomDensity) else np.asarray(rho)
    if m.ndim not in (2, 3) or m.shape[-2:] not in ((3, 3), (4, 4)):
        raise TwojcError("concurrence expects 3x3 or 4x4 density matrices")
    if m.shape[-1] == 3:
        m = embed_atom_density(m)
    mt = m @ _YY @ m.conj() @ _YY
    ev = np.linalg.eigvals(mt)
    residue = np.abs(ev.imag).max()
    if residue > 1e-8:
        raise NumericalGuardError(
            f"concurrence eigenproblem left imaginary residue {residue:.2e}")
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)), axis=-1)[..., ::-1]
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if c.ndim == 0 else c


# ---------------------------------------------------------------------------
# Husimi distribution

@dataclass(frozen=True)
class QGrid:
    """Husimi values on a rectangular grid of alpha = re + i im.

    values[i, j] corresponds to (im_axis[i], re_axis[j]).
    """

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        dre = self.re_axis[1] - self.re_axis[0]
        dim = self.im_axis[1] - self.im_axis[0]
        return float(self.values.sum() * dre * dim)


_HORNER_RESCALE_EVERY = 32  # Horner steps between checks of the partial sums
_HORNER_RESCALE_ABOVE = 1e150  # ... which are rescaled once they pass this
_HUSIMI_CHUNK = 1 << 18  # partial sums held at once, rows x points


def _check_window(rho_dim: int, alpha_sq_max: float):
    n_max = rho_dim - 3
    if alpha_sq_max > 0.5 * n_max:
        raise NumericalGuardError(
            f"|alpha|^2 = {alpha_sq_max:.2f} outside the trusted window "
            f"(needs n_max >= {int(math.ceil(2 * alpha_sq_max))}, have {n_max})")


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Fock components <p|alpha> for p < dim, built in log space."""
    p = np.arange(dim)
    aa = abs(alpha) ** 2
    if aa == 0.0:
        c = np.zeros(dim, dtype=np.complex128)
        c[0] = 1.0
        return c
    logmag = -aa / 2.0 + 0.5 * p * math.log(aa) - 0.5 * _log_factorials(dim)
    return np.exp(logmag) * np.exp(1j * p * np.angle(alpha))


def husimi_q(rho: FieldDensity, alpha: complex) -> float:
    """Q(alpha) = <alpha| rho |alpha> / pi at a single phase-space point."""
    m = rho.matrix if isinstance(rho, FieldDensity) else np.asarray(rho)
    _check_window(m.shape[0], abs(alpha) ** 2)
    c = coherent_vector(alpha, m.shape[0])
    return float(np.real(c.conj() @ (m @ c)) / math.pi)


def _bargmann_factors(rho):
    """(weights, rows) with rho = sum_k weights[k] |rows[k]><rows[k]|.

    A bare matrix is factored by eigh; eigenpairs below its numerical rank
    (|w| <= dim * eps * max |w|, as in numpy.linalg.matrix_rank) are dropped.
    """
    if isinstance(rho, FieldDensity) and rho.factors is not None:
        return np.ones(len(rho.factors)), rho.factors
    m = rho.matrix if isinstance(rho, FieldDensity) else np.asarray(rho)
    w, V = np.linalg.eigh(np.asarray(m, dtype=np.complex128))
    keep = np.abs(w) > m.shape[0] * np.finfo(float).eps * np.abs(w).max(initial=0.0)
    return w[keep], V.T[keep]


def _bargmann_amplitudes(rows, z):
    """e^{-|z|^2/2} v_k(z) for each row v_k, by Horner over the points z.

    The partial sums grow like e^{|z|^2/2}, beyond double range for
    |z|^2 > 1400.  Once they pass 1e150 they are divided by their largest
    modulus per point, every few steps, and the Gaussian is applied to the
    log of the accumulated scale at the end.
    """
    dim = rows.shape[1]
    inv_sqrt = 1.0 / np.sqrt(np.arange(1, dim))
    acc = np.empty((len(rows), z.size), dtype=np.complex128)
    acc[:] = rows[:, -1:]
    log_scale = np.zeros(z.size)   # acc holds the partial sums * e^{-log_scale}
    inv_scale = None               # e^{-log_scale}, once any point is rescaled
    step = np.empty_like(z)
    for p in range(dim - 1, 0, -1):
        np.multiply(z, inv_sqrt[p - 1], out=step)
        acc *= step
        acc += rows[:, p - 1:p] if inv_scale is None else rows[:, p - 1:p] * inv_scale
        if p % _HORNER_RESCALE_EVERY == 0:
            big = np.abs(acc).max(axis=0)
            if big.max() > _HORNER_RESCALE_ABOVE:
                np.maximum(big, 1.0, out=big)
                acc /= big
                inv_scale = 1.0 / big if inv_scale is None else inv_scale / big
                log_scale += np.log(big)
    return acc * np.exp(log_scale - 0.5 * np.abs(z) ** 2)


def husimi_grid(rho: FieldDensity, re_axis, im_axis) -> QGrid:
    """Husimi values over a rectangular grid.

    With rho = sum_k w_k |v_k><v_k| and the Bargmann polynomial
    v(z) = sum_p v_p z^p / sqrt(p!), <alpha|v> = e^{-|alpha|^2/2} v(conj alpha)
    (Bargmann 1961), so Q = sum_k w_k |e^{-|alpha|^2/2} v_k(conj alpha)|^2 / pi.
    Each polynomial is evaluated by Horner over the grid points at once, as
    v_0 + z/sqrt(1) (v_1 + z/sqrt(2) (v_2 + ...)).  The field densities
    built here carry their rank <= 3 factors, so a grid costs three
    polynomials rather than a quadratic form in the full Fock space.
    """
    m = rho.matrix if isinstance(rho, FieldDensity) else np.asarray(rho)
    re_axis = np.ascontiguousarray(re_axis, dtype=float)
    im_axis = np.ascontiguousarray(im_axis, dtype=float)
    corners = max(abs(re_axis[0]), abs(re_axis[-1])) ** 2 \
        + max(abs(im_axis[0]), abs(im_axis[-1])) ** 2
    _check_window(m.shape[0], corners)
    weights, rows = _bargmann_factors(rho)
    z = (re_axis[None, :] - 1j * im_axis[:, None]).ravel()
    values = np.zeros(z.size)
    chunk = max(1, _HUSIMI_CHUNK // max(1, len(rows)))
    for lo in range(0, z.size, chunk):
        amps = _bargmann_amplitudes(rows, z[lo:lo + chunk])
        values[lo:lo + chunk] = weights @ np.abs(amps) ** 2 / math.pi
    return QGrid(re_axis=re_axis, im_axis=im_axis,
                 values=values.reshape(len(im_axis), len(re_axis)))


# ---------------------------------------------------------------------------
# series driver

SERIES_OBSERVABLES = ("inversion", "purity", "concurrence", "entropy")


def observable_series(field: FieldInit, spectra, times, observables) -> dict:
    """Evaluate the requested scalar observables on a shared time grid.

    Returns {name: array}; branch coefficients and densities are reused
    across observables.  Times are in absolute units (multiply tau = g t
    by 1/g upstream).
    """
    times = np.asarray(times, dtype=float)
    bad = [o for o in observables if o not in SERIES_OBSERVABLES]
    if bad:
        raise TwojcError(f"unknown observables: {bad}")
    out = {}
    need_rho = any(o in observables for o in ("purity", "concurrence", "entropy"))
    if "inversion" in observables:
        out["inversion"] = inversion_series(field, spectra, times)
    if need_rho:
        E, C, _, _, _ = stack_spectra(spectra)
        D = _coeff_batch(E, C, times, field.atom_init)
        rho = _rho_atoms_batch(field.amplitudes, D)
        if "purity" in observables:
            out["purity"] = np.sum(np.abs(rho) ** 2, axis=(1, 2))
        if "concurrence" in observables:
            out["concurrence"] = concurrence(rho)
        if "entropy" in observables:
            out["entropy"] = entropy_of_eigvals(hermitian_eigvals(rho))
    return out
