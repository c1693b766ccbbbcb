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
        # NaN passes both checks below, so non-finite amplitudes stop here
        if not np.all(np.isfinite(amps)):
            raise TwojcError("field amplitudes not finite")
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
        with np.errstate(over="ignore", invalid="ignore"):  # FieldInit rejects the result
            amps = np.exp(logmag) * np.exp(1j * n * phase)
    try:
        return FieldInit(amplitudes=amps, n_max=n_max, mean_n=float(mean_n),
                         atom_init=atom_init)
    except NumericalGuardError:
        raise
    except TwojcError as exc:  # log-space rounding, which grows with mean_n
        raise NumericalGuardError(f"coherent field at mean_n = {mean_n!r}: {exc}") from exc


def _init_column(atom_init: AtomInit) -> int:
    return 0 if atom_init is AtomInit.BOTH_EXCITED else 1


# phases per time chunk (times x levels x 3); a chunk's temporaries take about
# 70 bytes per phase, so a series holds ~9 MB whatever its number of times
_SERIES_CHUNK = 1 << 17


def _time_chunks(n_times: int, n_levels: int):
    """Slices of a time axis, each holding about _SERIES_CHUNK phases."""
    step = max(1, _SERIES_CHUNK // (3 * n_levels))
    return [slice(lo, lo + step) for lo in range(0, n_times, step)]


def _fold_weights(spectra, atom_init: AtomInit, amplitudes=None):
    """W[k, j, n] = A_n C[n, j, init] C[n, j, k]; (3, 3, N+1) over (k, j, n).

    Without amplitudes A_n = 1, and the rows are the bare D_k^(n)(t).
    """
    C = spectra.coeffs
    W = C[:, :, _init_column(atom_init)][:, :, None] * C
    if amplitudes is not None:
        W = amplitudes[:, None, None] * W
    return np.ascontiguousarray(W.transpose(2, 1, 0))


def _branch_rows(weights, energies, times):
    """Rows X[t, k, n + k] = sum_j W[k, j, n] e^{-i E[n, j] t}; (T, 3, N+3).

    With the weights of _fold_weights, row k is chi_k[n + k] = A_n D_k^(n)(t),
    the branch-k amplitudes on their Fock levels, and entries outside
    k .. k + N are zero; so rho_A = X X^dagger and rho_F = X^T X^*.
    """
    n_levels = energies.shape[0]
    x = np.multiply.outer(times, -energies.T)     # (T, 3, N+1): -E t
    phases = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=phases.real)
    np.sin(x, out=phases.imag)
    branch = np.einsum("tjn,kjn->tkn", phases, weights)
    rows = np.zeros((len(times), 3, n_levels + 2), dtype=np.complex128)
    for k in range(3):
        rows[:, k, k:k + n_levels] = branch[:, k]
    return rows


def evolve_coeffs(spectra, atom_init: AtomInit, t: float) -> np.ndarray:
    """Branch coefficients D_k^(n)(t) of every block at time t; (N+1, 3)."""
    rows = _branch_rows(_fold_weights(spectra, atom_init), spectra.energies,
                        np.array([float(t)]))[0]
    levels = len(spectra)
    return np.stack([rows[k, k:k + levels] for k in range(3)], axis=1)


# ---------------------------------------------------------------------------
# densities

@dataclass(frozen=True)
class FieldDensity:
    """Reduced field density on Fock levels 0 .. n_max + 2, held as its factors.

    factors (K, n_max + 3) holds rows chi_k with rho_F = sum_k |chi_k><chi_k|
    (K = 3 for the states built here); the dense matrix is formed only when
    .matrix is read.
    """

    factors: np.ndarray

    @property
    def matrix(self):
        return self.factors.T @ self.factors.conj()

    @property
    def n_max(self):
        return self.factors.shape[1] - 3

    def _populations(self):
        """Diagonal of rho_F: sum_k |chi_k[p]|^2 per Fock level p."""
        return np.sum(np.abs(self.factors) ** 2, axis=0)

    @property
    def trace_defect(self):
        return abs(float(np.sum(self._populations())) - 1.0)

    def mean_photons(self):
        pop = self._populations()
        return float(np.sum(np.arange(len(pop)) * pop))


def _rho_atoms(field: FieldInit, spectra, times) -> np.ndarray:
    """rho_A(t) = X X^dagger over a time array, one chunk at a time; (T, 3, 3).

    Entry (k, j) sums A_{n+j-k} A_n^* D_k^{(n+j-k)} D_j^{(n)*} over n: the
    Gram matrix of the branch rows (_branch_rows).
    """
    weights = _fold_weights(spectra, field.atom_init, field.amplitudes)
    rho = np.empty((len(times), 3, 3), dtype=np.complex128)
    for part in _time_chunks(len(times), len(spectra)):
        X = _branch_rows(weights, spectra.energies, times[part])
        np.matmul(X, X.conj().swapaxes(1, 2), out=rho[part])
    return rho


def reduced_atom_density(field: FieldInit, spectra, t: float) -> np.ndarray:
    """rho_A(t), 3x3 in the basis (|e,e>, sym, |g,g>)."""
    return _rho_atoms(field, spectra, np.array([float(t)]))[0]


def reduced_field_density(field: FieldInit, spectra, t: float) -> FieldDensity:
    """rho_F(t) = sum_k |chi_k><chi_k| with chi_k[n+k-1] = A_n D_k^(n)."""
    weights = _fold_weights(spectra, field.atom_init, field.amplitudes)
    chi = _branch_rows(weights, spectra.energies, np.array([float(t)]))[0]
    chi.setflags(write=False)
    return FieldDensity(factors=chi)


# ---------------------------------------------------------------------------
# scalar observables

def inversion_series(field: FieldInit, spectra, times) -> np.ndarray:
    """<D_Z>(t) for each t; D_Z = (sigma_z^(1) + sigma_z^(2)) / 2."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return _inversion_of(_rho_atoms(field, spectra, times))


def atomic_inversion(field: FieldInit, spectra, t: float) -> float:
    return float(inversion_series(field, spectra, [t])[0])


def _scalar_or_array(x):
    """A float for a 0-d result (one 3x3 input), the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _inversion_of(rho):
    """<D_Z> = rho_00 - rho_22 of a 3x3 atomic density or a stack of them."""
    return _scalar_or_array(np.real(rho[..., 0, 0] - rho[..., 2, 2]))


def purity(rho):
    """Tr(rho^2); for a Hermitian matrix this is the squared entry sum."""
    return _scalar_or_array(np.sum(np.abs(np.asarray(rho)) ** 2, axis=(-2, -1)))


def hermitian_eigvals(mat) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of a stack of them
    (last two axes)."""
    return np.linalg.eigvalsh(np.asarray(mat, dtype=np.complex128))


def field_entropy(rho):
    """von Neumann entropy of the field through the atomic eigenvalues.

    For a joint pure state the field and atom entropies coincide, so the
    3x3 atomic density (or a stack of them) is enough; see
    entropy_of_eigvals for the clipping.
    """
    return entropy_of_eigvals(hermitian_eigvals(rho))


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
    return _scalar_or_array(-np.sum(terms, axis=-1))


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
    return _EMBED @ np.asarray(rho) @ _EMBED.T


def concurrence(rho):
    """Two-qubit concurrence of the atomic state.

    Accepts the symmetric-sector 3x3 (embedded automatically) or a full
    4x4 in the computational basis, or a (T, 3, 3) / (T, 4, 4) stack, for
    which it returns an array.  With rho = A A^dagger (A = V sqrt(w) from
    eigh), the lambda_i are the singular values of A^T (YY) A: no square
    roots of near-zero eigenvalues of rho (YY) rho* (YY).  Input that is
    not Hermitian to 1e-8 aborts.
    """
    m = np.asarray(rho)
    if m.ndim not in (2, 3) or m.shape[-2:] not in ((3, 3), (4, 4)):
        raise TwojcError("concurrence expects 3x3 or 4x4 density matrices")
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max()
    if defect > 1e-8:
        raise NumericalGuardError(f"concurrence input is not Hermitian: defect {defect:.2e}")
    if m.shape[-1] == 3:
        m = embed_atom_density(m)
    w, V = np.linalg.eigh(m)
    A = V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    lam = np.linalg.svd(A.swapaxes(-1, -2) @ _YY @ A, compute_uv=False)
    return _scalar_or_array(np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1)))


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


def corner_alpha_sq(re_axis, im_axis) -> float:
    """max |alpha|^2 over the rectangle spanned by the end points of two
    axes: its farthest corner."""
    re = max(abs(float(re_axis[0])), abs(float(re_axis[-1])))
    im = max(abs(float(im_axis[0])), abs(float(im_axis[-1])))
    return re * re + im * im  # inf rather than OverflowError for huge bounds


def window_n_max(alpha_sq_max: float):
    """Smallest n_max whose Husimi window holds every |alpha|^2 up to
    alpha_sq_max: the trusted window is n_max >= 2 max|alpha|^2.  Inf
    when that is beyond double range."""
    need = 2.0 * alpha_sq_max
    return math.ceil(need) if math.isfinite(need) else math.inf


def _check_window(rho_dim: int, alpha_sq_max: float):
    n_max = rho_dim - 3
    need = window_n_max(alpha_sq_max)
    if need > n_max:
        raise NumericalGuardError(
            f"|alpha|^2 = {alpha_sq_max:.2f} outside the trusted window "
            f"(needs n_max >= {need}, have {n_max})")


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
    """Q(alpha) = sum_k |<alpha|chi_k>|^2 / pi at a single phase-space point."""
    dim = rho.factors.shape[1]
    _check_window(dim, abs(alpha) ** 2)
    overlaps = rho.factors @ coherent_vector(alpha, dim).conj()
    return float(np.sum(np.abs(overlaps) ** 2) / math.pi)


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

    With rho = sum_k |v_k><v_k| and the Bargmann polynomial
    v(z) = sum_p v_p z^p / sqrt(p!), <alpha|v> = e^{-|alpha|^2/2} v(conj alpha)
    (Bargmann 1961), so Q = sum_k |e^{-|alpha|^2/2} v_k(conj alpha)|^2 / pi.
    Each polynomial is evaluated by Horner over the grid points at once, as
    v_0 + z/sqrt(1) (v_1 + z/sqrt(2) (v_2 + ...)).  A FieldDensity is its
    rank <= 3 factors, so a grid costs three polynomials rather than a
    quadratic form in the full Fock space.
    """
    rows = rho.factors
    re_axis = np.ascontiguousarray(re_axis, dtype=float)
    im_axis = np.ascontiguousarray(im_axis, dtype=float)
    _check_window(rows.shape[1], corner_alpha_sq(re_axis, im_axis))
    z = (re_axis[None, :] - 1j * im_axis[:, None]).ravel()
    values = np.zeros(z.size)
    chunk = max(1, _HUSIMI_CHUNK // max(1, len(rows)))
    for lo in range(0, z.size, chunk):
        amps = _bargmann_amplitudes(rows, z[lo:lo + chunk])
        values[lo:lo + chunk] = np.sum(np.abs(amps) ** 2, axis=0) / math.pi
    return QGrid(re_axis=re_axis, im_axis=im_axis,
                 values=values.reshape(len(im_axis), len(re_axis)))


# ---------------------------------------------------------------------------
# series driver

SERIES_OBSERVABLES = ("inversion", "purity", "concurrence", "entropy")


def observable_series(field: FieldInit, spectra, times, observables) -> dict:
    """Evaluate the requested scalar observables on a shared time grid.

    Returns {name: array}.  rho_A is built once, as a (T, 3, 3) stack, and
    every observable is one function of that stack.  Times are in absolute
    units (multiply tau = g t by 1/g upstream).
    """
    times = np.asarray(times, dtype=float)
    bad = [o for o in observables if o not in SERIES_OBSERVABLES]
    if bad:
        raise TwojcError(f"unknown observables: {bad}")
    # looked up at call time, so a wrapped module attribute is the one called
    of_rho = {"inversion": _inversion_of, "purity": purity,
              "concurrence": concurrence, "entropy": field_entropy}
    rho = _rho_atoms(field, spectra, times)
    return {name: of_rho[name](rho) for name in observables}
