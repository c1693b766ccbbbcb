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
import os
import threading
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
                f"tail mass {tail:.3e} above the top two Fock slots; increase "
                f"n_max (auto_n_max gives {auto_n_max(self.mean_n)})")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise TwojcError(f"field amplitudes not normalized: sum P_n = {norm!r}")

    @property
    def probabilities(self):
        return np.abs(self.amplitudes) ** 2


def _coherent_amplitudes(m: float, phase: float, dim: int) -> np.ndarray:
    """exp(-m/2 + p/2 ln m - ln(p!)/2) e^{i p phase} for p < dim: the Fock
    components of the coherent state of mean photon number m, in log space."""
    if m == 0.0:
        amps = np.zeros(dim, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    p = np.arange(dim)
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    logmag = -m / 2.0 + 0.5 * p * math.log(m) - 0.5 * log_factorials
    return np.exp(logmag) * np.exp(1j * p * phase)


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
    with np.errstate(over="ignore", invalid="ignore"):  # FieldInit rejects the result
        amps = _coherent_amplitudes(mean_n, phase, n_max + 1)
    try:
        return FieldInit(amplitudes=amps, n_max=n_max, mean_n=float(mean_n),
                         atom_init=atom_init)
    except NumericalGuardError:
        raise
    except TwojcError as exc:  # log-space rounding, which grows with mean_n
        raise NumericalGuardError(f"coherent field at mean_n = {mean_n!r}: {exc}") from exc


def _init_column(atom_init: AtomInit) -> int:
    return 0 if atom_init is AtomInit.BOTH_EXCITED else 1


def _core_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# threads that build one rho_A stack or Husimi grid; numpy releases the GIL in
# every kernel they run, and no result depends on their number
_WORKERS = min(4, _core_count())

# units of work in flight over all workers: phases (times x levels x 3) for
# rho_A, the complex values a Husimi point holds (its powers of z, block sums
# and partial sums) x points for a Husimi grid; a unit takes about 60-70
# bytes with its temporaries, so a kernel holds about 9 MB
_CHUNK = 1 << 17


def _chunks(n_items: int, width: int):
    """Slices of n_items items of `width` units each, for _run_chunks.

    A worker holds at most cap = _CHUNK // _WORKERS // width items.  Work
    within one cap is one slice, which the caller runs alone; more is cut
    into a multiple of _WORKERS slices (one per item if fewer), their sizes
    within one item of each other, the larger first.
    """
    cap = max(1, _CHUNK // _WORKERS // width)
    if n_items <= cap:
        return [slice(0, n_items)]
    count = min(n_items, _WORKERS * -(-n_items // (cap * _WORKERS)))
    size, extra = divmod(n_items, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_chunks(share, chunks):
    """Run every chunk, dealt round-robin to up to _WORKERS threads.

    Share i, chunks[i::_WORKERS], is one call share(its chunks) in its own
    thread.  The calling thread takes the first share, and a single chunk
    starts no thread.  The first share's exception, in share order, is
    re-raised here once every thread has finished.  Worker threads run
    under numpy's default error state, not under the caller's np.errstate.
    """
    shares = [chunks[i::_WORKERS] for i in range(min(_WORKERS, len(chunks)))]
    errors = [None] * len(shares)

    def work(i):
        try:
            share(shares[i])
        except BaseException as exc:  # handed to the caller below
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, len(shares))]
    for thread in threads:
        thread.start()
    if shares:
        work(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _check_phases(energies, times):
    """Abort when a time is NaN or a phase E t of the table is beyond
    double range."""
    if not len(times):
        return
    t_max = float(np.abs(times).max())  # NaN when any time is
    if math.isnan(t_max):
        raise NumericalGuardError("times hold NaN")
    if not math.isfinite(float(np.abs(energies).max()) * t_max):
        raise NumericalGuardError("phases E t beyond double range")


def _fold_weights(spectra, atom_init: AtomInit, amplitudes):
    """W[k, j, n] = A_n C[n, j, init] C[n, j, k]; (3, 3, N+1) over (k, j, n).

    With every A_n = 1 the rows are the bare D_k^(n)(t).
    """
    C = spectra.coeffs
    W = amplitudes[:, None, None] * (C[:, :, _init_column(atom_init)][:, :, None] * C)
    return np.ascontiguousarray(W.transpose(2, 1, 0))


class _BranchRows:
    """Rows X[t, k, n + k] = sum_j W[k, j, n] e^{-i E[n, j] t}; (T, 3, N+3).

    With the weights of _fold_weights, row k is chi_k[n + k] = A_n D_k^(n)(t),
    the branch-k amplitudes on their Fock levels, and entries outside
    k .. k + N are zero; so rho_A = X X^dagger and rho_F = X^T X^*.  A call
    takes up to `capacity` times and returns a view of buffers that the
    next call overwrites, so the chunks of one share reuse the same memory.
    The caller checks the phases first (_check_phases).
    """

    def __init__(self, weights, energies, capacity: int):
        self._weights = weights
        self._minus_i_energies = -1j * energies.T  # (3, N+1)
        self._phases = np.empty((capacity,) + self._minus_i_energies.shape, dtype=np.complex128)
        self._rows = np.zeros((capacity, 3, energies.shape[0] + 2), dtype=np.complex128)
        self._spare = np.empty_like(self._rows)  # the branch sums, then conj(X)

    def __call__(self, times):
        n_times = len(times)
        n_levels = self._phases.shape[2]
        phases = self._phases[:n_times]
        branch, rows = self._spare[:n_times, :, :n_levels], self._rows[:n_times]
        np.exp(np.multiply.outer(times, self._minus_i_energies, out=phases), out=phases)
        np.einsum("tjn,kjn->tkn", phases, self._weights, out=branch)
        for k in range(3):
            rows[:, k, k:k + n_levels] = branch[:, k]
        return rows

    def gram(self, times, out):
        """X X^dagger of the rows at `times`, written to out (T, 3, 3)."""
        X = self(times)
        X_conj = np.conjugate(X, out=self._spare[:len(times)])
        np.matmul(X, X_conj.swapaxes(1, 2), out=out)


def evolve_coeffs(spectra, atom_init: AtomInit, times) -> np.ndarray:
    """Branch coefficients D_k^(n)(t) of every block at each time; (T, N+1, 3)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_phases(spectra.energies, times)
    weights = _fold_weights(spectra, atom_init, np.ones(len(spectra)))
    rows = _BranchRows(weights, spectra.energies, len(times))(times)
    levels = len(spectra)
    return np.stack([rows[:, k, k:k + levels] for k in range(3)], axis=2)


# ---------------------------------------------------------------------------
# densities

# blocks at the two ends of the ladder whose combined probability is at most
# this are left out of rho_A and rho_F (_support)
_SUPPORT_MASS = 1e-32


def _support(amplitudes):
    """Blocks [lo, hi) that hold the field: the ladder less the longest runs
    at its two ends whose combined probability sum |A_n|^2 is at most
    _SUPPORT_MASS (of the splits that drop the most blocks, the one with
    the smallest lo)."""
    p = np.abs(amplitudes) ** 2
    head = np.concatenate(([0.0], np.cumsum(p)))              # mass below block i
    tail = np.concatenate((np.cumsum(p[::-1])[::-1], [0.0]))  # mass from block j up
    los = np.flatnonzero(head <= _SUPPORT_MASS)
    # the first hi whose tail fits in what each lo leaves; tail never grows
    his = np.searchsorted(-tail, head[los] - _SUPPORT_MASS)
    best = int(np.argmax(los - his))
    return int(los[best]), int(his[best])


def _support_weights(field: FieldInit, spectra, times):
    """(lo, support, weights) for the branch rows of the field's support.

    The phase guard reads every block of the table at `times`; then the
    blocks [lo, hi) that hold the field (_support) are sliced out as
    `support`, with their _fold_weights.  Each row is
    chi_k[n + k] = A_n D_k^(n) with sum_k |D_k^(n)|^2 = 1, so the blocks
    left out carry at most _SUPPORT_MASS = m of the state: every entry of
    rho_A moves by at most 2 sqrt(m) + m, about 2e-16, and every Husimi
    value by at most (2 sqrt(m) + m) / pi.
    """
    _check_phases(spectra.energies, times)
    lo, hi = _support(field.amplitudes)
    support = spectra[lo:hi]
    return lo, support, _fold_weights(support, field.atom_init, field.amplitudes[lo:hi])


# samples of a time array handed on at once (_density_windows): a series
# holds one window of them, whatever its length
_WINDOW = 1 << 14


def _density_windows(field: FieldInit, spectra, taus, g=1.0):
    """Yield (part, run) over consecutive windows of a time array, in time
    order: run(read) builds rho_A at the times t = tau / g of taus[part] and
    calls read(at, rho) on each chunk of it, rho (len, 3, 3) holding rho_A
    at the times taus[part][at].

    The chunks of one plan (_chunks) run on _WORKERS threads (_run_chunks),
    up to about _WINDOW samples at a time, in one pass per window.  Each
    thread builds its chunks' rho_A as the Gram of the branch rows
    (_BranchRows) of the field's support (_support_weights) in row buffers
    of its own, lets those go, and then reads the same chunks; so a window
    peaks no higher than building its rho_A.  rho is a view that the next
    window overwrites, and every entry is the same bits for any thread
    count.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if not len(taus):
        return
    # the end times reach every |t| that the phase guard reads
    _, support, weights = _support_weights(field, spectra,
                                           np.array([taus.min(), taus.max()]) / g)
    chunks = _chunks(len(taus), 3 * len(support))
    size = chunks[0].stop
    per_window = _WORKERS * max(1, _WINDOW // (size * _WORKERS))
    rho = np.empty((min(len(taus), size * per_window), 3, 3), dtype=np.complex128)
    for first in range(0, len(chunks), per_window):
        window = chunks[first:first + per_window]
        lo = window[0].start
        times = taus[lo:window[-1].stop] / g  # so that a worker allocates only its buffers

        def run(read):
            def share(parts):
                ats = [slice(part.start - lo, part.stop - lo) for part in parts]
                rows = _BranchRows(weights, support.energies, size)
                for at in ats:
                    rows.gram(times[at], out=rho[at])
                del rows
                for at in ats:
                    read(at, rho[at])

            _run_chunks(share, window)

        yield slice(lo, window[-1].stop), run


def reduced_atom_density(field: FieldInit, spectra, times) -> np.ndarray:
    """rho_A(t) = X X^dagger over a time array; (T, 3, 3) in the basis
    (|e,e>, sym, |g,g>).

    Entry (k, j) sums A_{n+j-k} A_n^* D_k^{(n+j-k)} D_j^{(n)*} over n: the
    Gram matrix of the branch rows of the field's support, built window by
    window on _WORKERS threads (_density_windows); every entry is the same
    bits for any thread count.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rho = np.empty((len(times), 3, 3), dtype=np.complex128)
    for part, run in _density_windows(field, spectra, times):
        run(rho[part].__setitem__)  # each chunk's rho_A into its place
    return rho


def reduced_field_density(field: FieldInit, spectra, t) -> np.ndarray:
    """The factors chi of rho_F(t) = sum_k |chi_k><chi_k|,
    chi_k[n + k] = A_n D_k^(n), at each time of t: t.shape + (3, n_max + 3),
    so (3, n_max + 3) for a scalar t; read-only.

    The rows of the field's support [lo, hi) (_support_weights, once for
    all the times) fill levels [lo, hi + 2) of zeroed factors, so Horner in
    husimi_grid starts at level hi + 1 while the window guard still reads
    the ladder.  Each time's factors are the bits its own call gives.
    """
    t = np.asarray(t, dtype=float)
    times = t.reshape(-1)
    lo, support, weights = _support_weights(field, spectra, times)
    chi = np.zeros((len(times), 3, len(spectra) + 2), dtype=np.complex128)
    chi[:, :, lo:lo + len(support) + 2] = _BranchRows(weights, support.energies,
                                                       len(times))(times)
    chi = chi.reshape(t.shape + chi.shape[1:])
    chi.setflags(write=False)
    return chi


# ---------------------------------------------------------------------------
# scalar observables

def inversion_series(field: FieldInit, spectra, times) -> np.ndarray:
    """<D_Z>(t) for each t; D_Z = (sigma_z^(1) + sigma_z^(2)) / 2."""
    return _inversion_of(reduced_atom_density(field, spectra, times))


def _inversion_of(rho):
    """<D_Z> = rho_00 - rho_22 of a 3x3 atomic density or a stack of them."""
    return np.real(rho[..., 0, 0] - rho[..., 2, 2])


def purity(rho):
    """Tr(rho^2); for a Hermitian matrix this is the squared entry sum."""
    return np.sum(np.abs(np.asarray(rho)) ** 2, axis=(-2, -1))


def hermitian_eigvals(mat) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of a stack of them
    (last two axes)."""
    return np.linalg.eigvalsh(np.asarray(mat, dtype=np.complex128))


def field_entropy(rho):
    """von Neumann entropy of the field through the atomic eigenvalues.

    For a joint pure state the field and atom entropies coincide, so the
    3x3 atomic density (or a stack of them) is enough; see
    entropy_of_eigvals for the clipping.  Input that is not finite and
    Hermitian, or whose eigenvalues are not those of a density, to 1e-8
    aborts.
    """
    m = np.asarray(rho)
    _check_hermitian(m)
    w = hermitian_eigvals(m)
    _check_density_eigvals(w)
    return entropy_of_eigvals(w)


def entropy_of_eigvals(w):
    """-sum w ln w over the last axis.

    Eigenvalues are clipped to [0, 1] and anything at or below 1e-14
    contributes nothing (x ln x -> 0).  A 1-D input gives an np.float64,
    a stack of spectra an array.  A NaN or Inf aborts.
    """
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise NumericalGuardError("entropy input holds non-finite eigenvalues")
    w = np.clip(w, 0.0, 1.0)
    keep = w > 1e-14
    terms = np.zeros_like(w)
    terms[keep] = w[keep] * np.log(w[keep])
    return -np.sum(terms, axis=-1)


# computational-basis order (|g,g>, |g,e>, |e,g>, |e,e>)
_EMBED = np.zeros((4, 3))
_EMBED[3, 0] = 1.0
_EMBED[1, 1] = _EMBED[2, 1] = 1.0 / SQRT2
_EMBED[0, 2] = 1.0

# Wootters' spin flip sigma_y x sigma_y (YY) restricted to the symmetric sector,
# _EMBED.T @ YY @ _EMBED
_SPIN_FLIP = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


def embed_atom_density(rho) -> np.ndarray:
    """Map the symmetric-sector 3x3 density (or a stack of them) into the
    two-qubit computational basis (zero antisymmetric component): the
    reference form that tests hold to the oracle's 4x4 partial trace."""
    return _EMBED @ np.asarray(rho) @ _EMBED.T


def concurrence(rho):
    """Two-qubit concurrence (Wootters 1998) of the symmetric-sector atomic
    state.

    Accepts a 3x3 density in the basis (|e,e>, sym, |g,g>), or a (T, 3, 3)
    stack, for which it returns an array (an np.float64 for one 3x3).
    Input that is not finite and Hermitian, or whose eigenvalues are not
    those of a density, to 1e-8 aborts; see _concurrence_of for the rest.
    """
    m = np.asarray(rho)
    if m.ndim not in (2, 3) or m.shape[-2:] != (3, 3):
        raise TwojcError("concurrence expects 3x3 symmetric-sector density matrices")
    _check_hermitian(m)
    w, V = np.linalg.eigh(m)
    _check_density_eigvals(w)
    return _concurrence_of(w, V)


def _check_hermitian(m):
    """Abort when a density (or a stack of them) is not Hermitian to 1e-8;
    a NaN or Inf entry leaves a NaN or Inf defect, which aborts too."""
    with np.errstate(invalid="ignore"):  # inf - inf
        defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
    if not defect <= 1e-8:
        raise NumericalGuardError(f"density is not finite and Hermitian: defect {defect:.2e}")


def _check_density_eigvals(w):
    """Abort when the eigenvalues w (last axis) of a Hermitian matrix, or
    of a stack of them, are not a density's: each sum 1 and none negative,
    to 1e-8."""
    defect = max(np.abs(w.sum(axis=-1) - 1.0).max(initial=0.0), -w.min(initial=0.0))
    if not defect <= 1e-8:
        raise NumericalGuardError(f"density is not unit-trace and positive: defect {defect:.2e}")


def _concurrence_of(w, V):
    """Concurrence from eigh's (w, V) of rho.  With rho = A A^dagger
    (A = V sqrt(w)), the lambda_i are the singular values of A^T (YY) A, YY
    being the spin flip in the same 3-state frame: no square roots of
    near-zero eigenvalues of rho (YY) rho* (YY)."""
    A = V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    lam = np.linalg.svd(A.swapaxes(-1, -2) @ _SPIN_FLIP @ A, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1))


# ---------------------------------------------------------------------------
# Husimi distribution

@dataclass(frozen=True)
class QGrid:
    """Husimi values on a rectangular grid of alpha = re + i im.

    values[..., i, j] corresponds to (im_axis[i], re_axis[j]); a stack of
    snapshots has one leading axis.
    """

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray

    def integral(self):
        """The Riemann sum of Q over the grid; one per snapshot of a stack.
        An axis of fewer than two points aborts."""
        if min(len(self.re_axis), len(self.im_axis)) < 2:
            raise NumericalGuardError("a Riemann sum needs two points on each grid axis")
        dre = self.re_axis[1] - self.re_axis[0]
        dim = self.im_axis[1] - self.im_axis[0]
        return self.values.sum(axis=(-2, -1)) * dre * dim


# Fock levels per block of the Husimi kernel (_bargmann_amplitudes)
_LEVELS = 24
_HORNER_RESCALE_ABOVE = 1e150  # partial sums are rescaled once they pass this


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
    return _coherent_amplitudes(abs(alpha) ** 2, np.angle(alpha), dim)


def _check_factors(factors):
    """Abort when rho_F's factors hold a NaN or Inf."""
    if not np.isfinite(factors).all():
        raise NumericalGuardError("rho_F factors hold non-finite values")


def husimi_q(factors, alpha: complex) -> float:
    """Q(alpha) = sum_k |<alpha|chi_k>|^2 / pi at one point, from rho_F's
    factors: the per-point reference for husimi_grid, also read by the
    benchmark's phase-space check."""
    _check_factors(factors)
    dim = factors.shape[1]
    _check_window(dim, abs(alpha) ** 2)
    overlaps = factors @ coherent_vector(alpha, dim).conj()
    return float(np.sum(np.abs(overlaps) ** 2) / math.pi)


def _level_blocks(stack):
    """(rows, ratios): a stack (S, r, D) of factor rows v cut into blocks of
    L = _LEVELS levels, for _bargmann_amplitudes.

    The levels p = bL + q (q < L) up to the last where any row of the stack
    is nonzero make B blocks: the levels above it would only carry exact
    zeros.  rows (B, S, r, L) holds v_p sqrt((bL)! / p!), and
    ratios[b] = sqrt((bL)! / ((b + 1) L)!).  Each weight is the square root
    of a running product of 1 / (bL + j), so its relative rounding stays
    within a few L ulps at every level.
    """
    levels = 1 + max(np.flatnonzero(stack.any(axis=(0, 1))), default=0)
    blocks = -(-levels // _LEVELS)
    tails = np.sqrt(np.cumprod(
        1.0 / (np.arange(blocks)[:, None] * _LEVELS + np.arange(1, _LEVELS + 1)), axis=1))
    weights = np.ones((blocks, _LEVELS))
    weights[:, 1:] = tails[:, :-1]
    rows = np.zeros(stack.shape[:2] + (blocks * _LEVELS,), dtype=np.complex128)
    rows[..., :levels] = stack[..., :levels]
    rows = rows.reshape(stack.shape[:2] + (blocks, _LEVELS)) * weights
    return np.ascontiguousarray(rows.transpose(2, 0, 1, 3)), tails[:, -1]


def _bargmann_amplitudes(rows, ratios, z, scratch):
    """e^{-|z|^2/2} v(z) for each row v of a stack cut by _level_blocks, at
    the points z; (S, r, len(z)), a view of `scratch`.

    With phi_p = z^p / sqrt(p!), v(z) = sum_b phi_{bL} T_b, where the block
    sum T_b = sum_q rows[b, q] z^q, and phi_{(b+1)L} = phi_{bL} z^L ratios[b].
    One matrix product of every row of every block against the powers
    z^0 .. z^{L-1} gives all the T_b, and Horner over the blocks,
    T_0 + z^L ratios[0] (T_1 + z^L ratios[1] (T_2 + ...)), sums them.  The
    points are padded with zeros to a multiple of 8, since the product's
    partial tiles of points round differently from its whole ones; so a
    point's bits do not depend on the chunk it came in.

    The partial sums grow like e^{|z|^2/2}, beyond double range for
    |z|^2 > 1400.  After each block, the points whose partial sums of one
    snapshot passed 1e150 have them divided by their largest modulus, and
    the Gaussian is applied to the log of each point's accumulated scale at
    the end.  A value thus depends on its own point and snapshot alone.

    The powers (L + 1, width) and block sums (B S r, width), width being
    len(z) padded, are two C-contiguous arrays at the start of the flat
    complex `scratch`, which holds at least (L + 1 + B S r) (len(z) + 7)
    values; so a share's chunks touch no fresh pages.
    """
    blocks, snapshots, n_rows, _ = rows.shape
    count = z.size
    width = -(-count // 8) * 8
    split = (_LEVELS + 1) * width
    powers = scratch[:split].reshape(-1, width)
    sums = scratch[split:split + rows.size // _LEVELS * width].reshape(-1, width)
    powers[0] = 1.0
    powers[1, :count] = z
    powers[1, count:] = 0.0
    known = 1  # z^0 .. z^known are in place; each pass takes z^(known+j) = z^j z^known
    while known < _LEVELS:
        more = min(known, _LEVELS - known)
        np.multiply(powers[1:more + 1], powers[known], out=powers[known + 1:known + more + 1])
        known += more
    np.matmul(rows.reshape(-1, _LEVELS), powers[:_LEVELS], out=sums)
    sums = sums.reshape(blocks, snapshots, n_rows, -1)
    acc = sums[-1]
    log_scale = np.zeros((snapshots, 1, acc.shape[-1]))  # acc holds the partial sums * e^{-log_scale}
    inv_scale = None                                     # e^{-log_scale}, once any point is rescaled
    for b in range(blocks - 2, -1, -1):
        big = np.abs(acc).max(axis=1, keepdims=True)
        over = big > _HORNER_RESCALE_ABOVE
        if over.any():
            scale = np.where(over, big, 1.0)  # the other points stay as they are
            acc /= scale
            inv_scale = 1.0 / scale if inv_scale is None else inv_scale / scale
            log_scale += np.log(scale)
        acc *= powers[_LEVELS] * ratios[b]
        acc += sums[b] if inv_scale is None else sums[b] * inv_scale
    acc *= np.exp(log_scale - 0.5 * np.abs(powers[1]) ** 2)
    return acc[..., :count]


def husimi_grid(factors, re_axis, im_axis) -> QGrid:
    """Husimi values over a rectangular grid, from the factors of rho_F, or
    of each rho_F of a stack (S, r, D); values (n_im, n_re) or
    (S, n_im, n_re).

    With rho = sum_k |v_k><v_k| and the Bargmann polynomial
    v(z) = sum_p v_p z^p / sqrt(p!), <alpha|v> = e^{-|alpha|^2/2} v(conj alpha)
    (Bargmann 1961), so Q = sum_k |e^{-|alpha|^2/2} v_k(conj alpha)|^2 / pi.
    rho_F is given by its rank <= 3 factors, so a grid costs three
    polynomials rather than a quadratic form in the full Fock space.  Every
    polynomial of the stack is evaluated over a chunk of grid points at
    once by Horner over blocks of levels (_bargmann_amplitudes), whose
    block sums are one matrix product shared by the whole stack.  A chunk
    holds per point the powers of z, every block sum and the partial sums.
    The chunks run on _WORKERS threads (_run_chunks), each writing only its
    own points; each share makes its scratch once, sized by the first
    (largest) chunk.  Every value is the same bits for any thread count,
    chunk size or stack it came in.  Non-finite factors or axis values,
    or an empty axis, abort.
    """
    factors = np.asarray(factors)
    _check_factors(factors)
    re_axis = np.ascontiguousarray(re_axis, dtype=float)
    im_axis = np.ascontiguousarray(im_axis, dtype=float)
    if not (len(re_axis) and len(im_axis)):
        raise NumericalGuardError("Husimi grid axes must not be empty")
    if not (np.isfinite(re_axis).all() and np.isfinite(im_axis).all()):
        raise NumericalGuardError("Husimi grid axes hold non-finite values")
    _check_window(factors.shape[-1], corner_alpha_sq(re_axis, im_axis))
    stack = factors.reshape((-1,) + factors.shape[-2:])
    rows, ratios = _level_blocks(stack)
    z = (re_axis[None, :] - 1j * im_axis[:, None]).ravel()
    values = np.empty((len(stack), z.size))
    held = _LEVELS + 1 + (len(rows) + 1) * stack.shape[0] * stack.shape[1]
    chunks = _chunks(z.size, held)
    # room for the first, largest chunk padded (_bargmann_amplitudes)
    room = (_LEVELS + 1 + rows.size // _LEVELS) * (chunks[0].stop + 7)

    def share(parts):
        scratch = np.empty(room, dtype=np.complex128)
        for part in parts:
            amps = _bargmann_amplitudes(rows, ratios, z[part], scratch)
            values[:, part] = np.sum(np.abs(amps) ** 2, axis=1) / math.pi

    _run_chunks(share, chunks)
    return QGrid(re_axis=re_axis, im_axis=im_axis,
                 values=values.reshape(factors.shape[:-2] + (len(im_axis), len(re_axis))))


# ---------------------------------------------------------------------------
# series driver

SERIES_OBSERVABLES = ("inversion", "purity", "concurrence", "entropy")


def series_windows(field: FieldInit, spectra, taus, observables, g=1.0):
    """Yield (part, values) over consecutive windows of a series, in time
    order: values[name] holds observable `name` at the times t = tau / g of
    taus[part].

    Each window of rho_A (_density_windows) has its observables read from
    it chunk by chunk, on the threads that built it; entropy and
    concurrence read one eigh.  Nothing is held beyond one window, and
    every value is the same bits for any thread count.
    """
    bad = [o for o in observables if o not in SERIES_OBSERVABLES]
    if bad:
        raise TwojcError(f"unknown observables: {bad}")
    for part, run in _density_windows(field, spectra, taus, g):
        values = {name: np.empty(part.stop - part.start) for name in observables}

        def read(at, rho):
            for name, value in _of_densities(rho, observables).items():
                values[name][at] = value

        run(read)
        yield part, values


def _of_densities(rho, observables):
    """{name: values} of the requested observables of a (T, 3, 3) stack;
    entropy and concurrence read one eigh."""
    out = {}
    if "inversion" in observables:
        out["inversion"] = _inversion_of(rho)
    if "purity" in observables:
        out["purity"] = purity(rho)
    if "entropy" in observables or "concurrence" in observables:
        _check_hermitian(rho)
        w, V = np.linalg.eigh(rho)
        _check_density_eigvals(w)
        if "concurrence" in observables:
            out["concurrence"] = _concurrence_of(w, V)
        if "entropy" in observables:
            out["entropy"] = entropy_of_eigvals(w)
    return out


def observable_series(field: FieldInit, spectra, times, observables) -> dict:
    """Evaluate the requested scalar observables on a shared time grid.

    Returns {name: array}, collected from the windows of series_windows,
    the one series kernel, which `twojc run` streams into its tables
    instead.  Times are in absolute units (multiply tau = g t by 1/g
    upstream).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = {name: np.empty(len(times)) for name in observables}
    for part, values in series_windows(field, spectra, times, observables):
        for name, value in values.items():
            out[name][part] = value
    return out
