"""Brute-force cross-checks on the truncated joint Hilbert space.

The joint Hamiltonian is assembled directly from kron products of the
atomic and field operators (never from the 3x3 blocks), on the basis
{|a> x |m>} with atoms ordered (|g,g>, |g,e>, |e,g>, |e,e>) and Fock
levels m in [0, n_max + 2].  Two structurally different propagators are
provided, and both work on the connected blocks of H's own nonzero
pattern, found from H alone: exact per-block evolution (the blocks of one
size are held as one stack, diagonalized once by the cyclic Jacobi, the
package's one hand-written eigensolver, which takes a matrix or a stack
and uses no LAPACK), and a fixed-step 4th-order Runge-Kutta integrator
of the full matrix.  For the model's H, which conserves total
excitation, the blocks are the excitation sectors, of dimension 1, 3 or
4; a coupling across sectors merges them into one block and a dense H is
a single block, so neither propagator assumes the conservation law.  The
analytic layer is deliberately not imported for any numerics here, so
agreement between the two code paths is meaningful.

A joint state is a complex array of shape (4, M): amplitudes over the
atomic basis times the Fock levels.  Both propagators take an array of
times and return one state per time, a (..., 4, M) stack, and every
reduction acts on the last two axes of such a stack.

The top two Fock levels are a truncation buffer: runs that populate
them beyond 1e-10 are rejected.
"""

import math

import numpy as np

from .dynamics import AtomInit, FieldInit
from .errors import NumericalGuardError, TruncationError
from .model import ModelParams, ladder_factor, shift_factor

BUFFER_TOL = 1e-10
NORM_DRIFT_LIMIT = 1e-8
_RK4_STEP_FRACTION = 0.02  # dt * (Gershgorin bound on |E|)

# sigma_z weight per atomic basis state (gg, ge, eg, ee)
_ATOM_WEIGHT = np.array([-1.0, 0.0, 0.0, 1.0])


def build_joint_hamiltonian(params: ModelParams, n_max: int) -> np.ndarray:
    """Dense Hermitian 4M x 4M joint Hamiltonian, M = n_max + 3."""
    M = n_max + 3
    sz = np.diag([-1.0, 1.0])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g|
    sm = sp.T
    I2 = np.eye(2)
    sz1, sz2 = np.kron(sz, I2), np.kron(I2, sz)
    sp1, sp2 = np.kron(sp, I2), np.kron(I2, sp)
    sm1, sm2 = np.kron(sm, I2), np.kron(I2, sm)
    I4 = np.eye(4)
    IM = np.eye(M)
    # a f(n): |m> -> f(m) sqrt(m) |m-1>
    lower = np.zeros((M, M))
    m = np.arange(M)
    lower[m[:-1], m[1:]] = ladder_factor(params.f_kind, m[1:])
    H = (np.kron(I4, np.diag(shift_factor(params.h_kind, params.omega0, params.chi, m)))
         + 0.5 * params.delta * np.kron(sz1 + sz2, IM)
         + params.g * (np.kron(sm1 + sm2, lower.T) + np.kron(sp1 + sp2, lower))
         + 2.0 * params.kappa * np.kron(sm1 @ sp2 + sp1 @ sm2, IM)
         + params.J_ising * np.kron(sz1 @ sz2, IM))
    return H


def joint_initial_state(field: FieldInit) -> np.ndarray:
    """Product of the selected atomic state with the configured field, (4, M).

    The symmetric start places amplitude A_n on Fock level n + 1,
    matching the block-n bookkeeping of the analytic layer.
    """
    M = field.n_max + 3
    psi = np.zeros((4, M), dtype=np.complex128)
    A = field.amplitudes
    if field.atom_init is AtomInit.BOTH_EXCITED:
        psi[3, :field.n_max + 1] = A
    else:
        psi[1, 1:field.n_max + 2] = A / math.sqrt(2.0)
        psi[2, 1:field.n_max + 2] = A / math.sqrt(2.0)
    return psi


def _block_stacks(H):
    """The connected blocks of H's nonzero pattern, taken as an undirected
    graph, grouped by size: one (idx (S, d), H[idx, idx] (S, d, d)) pair
    per size d, ascending in d.  Each index set is ascending, and the sets
    of one size are ordered by their least index."""
    rows, cols = np.nonzero(H)
    src, dst = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    # every node ends labelled by the least node of its block: take the
    # least label among the neighbours, then jump to the label's own label
    label = np.arange(H.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))  # stable: nodes ascend within a block
    sizes, counts = np.unique(size, return_counts=True)
    stacks = []
    for d, nodes in zip(sizes, np.split(order, np.cumsum(counts)[:-1])):
        idx = nodes.reshape(-1, d)
        stacks.append((idx, H[idx[:, :, None], idx[:, None, :]]))
    return stacks


def jacobi_eigh_cyclic(mat):
    """Cyclic-by-rows Jacobi for a symmetric matrix or a stack (..., n, n).

    The package's only hand-written eigensolver, kept for independence:
    the analytic layer uses the closed form and LAPACK, so a reference
    built on this cannot share a bug with them.  Each rotation updates two
    rows and columns across the whole stack; a matrix that has converged,
    or whose (p, q) element is below the skip threshold, rotates with
    c = 1, s = 0, so every matrix follows its own single-matrix sequence.
    Each matrix is solved as 2^-e A, max|A| < 2^e <= 2 max|A| (as in
    spectral.solve_blocks).  A complex input must have a zero imaginary
    part, and is taken as real; a NaN or Inf entry, or an eigenvalue
    beyond double range, aborts.
    """
    if not np.isfinite(mat).all():
        raise NumericalGuardError("matrix holds non-finite entries")
    if np.iscomplexobj(mat) and np.imag(mat).any():
        raise ValueError("expected real symmetric matrices, got a nonzero imaginary part")
    A = np.array(np.real(mat), dtype=np.float64)
    shape = A.shape
    if A.ndim < 2 or shape[-1] != shape[-2]:
        raise ValueError(f"expected square matrices, got shape {shape}")
    n = shape[-1]
    A = A.reshape(-1, n, n)
    e = np.frexp(np.abs(A).max(axis=(1, 2), initial=0.0))[1]
    A = np.ldexp(A, -e[:, None, None])
    V = np.broadcast_to(np.eye(n), A.shape).copy()
    # the sum of squares in row-major order, one element at a time
    tol = 1e-14 * np.sqrt(np.cumsum((A * A).reshape(len(A), n * n), axis=1)[:, -1])
    iu, ju = np.triu_indices(n, 1)
    active = np.ones(len(A), dtype=bool)
    for _ in range(80):
        active &= np.abs(A[:, iu, ju]).max(axis=1, initial=0.0) > tol
        if not active.any():
            break
        for p, q in zip(iu, ju):
            apq = A[:, p, q]
            rot = active & (np.abs(apq) > tol * 1e-2)
            tau = 0.5 * (A[:, q, q] - A[:, p, p]) / np.where(rot, apq, 1.0)
            sgn = np.where(tau >= 0.0, 1.0, -1.0)
            t = sgn / (sgn * tau + np.sqrt(1.0 + tau * tau))
            c = np.where(rot, 1.0 / np.sqrt(1.0 + t * t), 1.0)[:, None]
            s = np.where(rot, t, 0.0)[:, None] * c
            for X in (A, A.swapaxes(1, 2), V):  # columns of A, rows of A, V
                xp, xq = X[..., p], X[..., q]
                X[..., p], X[..., q] = c * xp - s * xq, s * xp + c * xq
    with np.errstate(over="ignore"):  # checked below
        w = np.ldexp(np.diagonal(A, axis1=1, axis2=2), e[:, None])
    if not np.isfinite(w).all():
        raise NumericalGuardError("eigenvalues beyond double range")
    return w.reshape(shape[:-1]), V.reshape(shape)


class SectorPropagator:
    """Exact evolution by eigendecomposition of the joint H per connected
    block (per excitation sector for the model's H), with the blocks of one
    size held as one (S, d, d) stack."""

    def __init__(self, H: np.ndarray, n_max: int):
        M = n_max + 3
        if H.shape != (4 * M, 4 * M):
            raise ValueError("Hamiltonian shape does not match n_max")
        self.n_max = n_max
        self.M = M
        # (idx (S, d), w (S, d), V (S, d, d)) per block size d
        self._stacks = [(idx, *jacobi_eigh_cyclic(Hs))
                        for idx, Hs in _block_stacks(H)]

    def evolve(self, psi0: np.ndarray, t):
        """psi0 (4, M) a time t later: (4, M) for a scalar t, t.shape + (4, M)
        for an array of times.  A NaN or Inf in psi0 or t aborts."""
        t = np.asarray(t, dtype=float)
        flat = np.asarray(psi0, dtype=np.complex128).reshape(-1)
        if not (np.isfinite(flat).all() and np.isfinite(t).all()):
            raise NumericalGuardError("state or times hold non-finite values")
        out = np.zeros(t.shape + flat.shape, dtype=np.complex128)
        for idx, w, V in self._stacks:
            c = np.einsum("sji,sj->si", V, flat[idx])
            phases = np.exp(-1j * w * t[..., None, None])
            out[..., idx] = np.einsum("sij,...sj->...si", V, phases * c)
        return out.reshape(t.shape + (4, self.M))


# ---------------------------------------------------------------------------
# fixed-step RK4 on the full matrix
#
# One RK4 step of size h multiplies the state by the Taylor polynomial
# P(h) = sum_{j<=4} (-i h H)^j / j!, so n steps are P(h)^n.  Consecutive
# intervals of one length share a single P^n, formed by repeated squaring,
# and each sample is then one matrix-vector product.  A polynomial in a
# block-diagonal matrix is block-diagonal with the same blocks, so P^n is
# formed on the same connected blocks of H that the sector propagator
# diagonalizes, the blocks of one size held as one (S, d, d) stack; the
# step size and step count still come from the whole of H.

def _auto_dt(H):
    bound = float(np.abs(H).sum(axis=1).max())  # Gershgorin bound on |E|
    if bound == 0.0:
        return math.inf
    return _RK4_STEP_FRACTION / bound


def _rk4_step_matrix(H, h):
    """P(h) = I + A + A^2/2 + A^3/6 + A^4/24 with A = -i h H, in Horner form."""
    A = (-1j * h) * H
    eye = np.eye(H.shape[-1])
    P = eye + A / 4.0
    for j in (3.0, 2.0, 1.0):
        P = eye + (A @ P) / j
    return P


def _matrix_power(P, n):
    """P^n for n >= 1 by repeated squaring (of each matrix of a stack)."""
    result = None
    while True:
        if n & 1:
            result = P if result is None else result @ P
        n >>= 1
        if not n:
            return result
        P = P @ P


def _rk4_power(H, span, dt):
    """P(h)^n over `span`: n = ceil(span / dt) steps of h = span / n."""
    n_steps = max(1, int(math.ceil(span / dt))) if math.isfinite(dt) else 1
    return _matrix_power(_rk4_step_matrix(H, span / n_steps), n_steps)


def _shared_spans(spans, tol):
    """Each span replaced by the mean of its cluster: spans that differ by at
    most `tol` from a neighbour in sorted order form one cluster."""
    order = np.argsort(spans, kind="stable")
    starts = np.diff(spans[order], prepend=-np.inf) > tol
    label = np.empty(len(spans), dtype=np.int64)
    label[order] = np.cumsum(starts) - 1
    return (np.bincount(label, weights=spans) / np.bincount(label))[label]


def _check_norm(psi_flat, n0):
    drift = abs(np.linalg.norm(psi_flat) - n0)
    if not drift <= NORM_DRIFT_LIMIT:  # catches NaN from an unstable step
        raise NumericalGuardError(
            f"integrator norm drift {drift:.2e} exceeds {NORM_DRIFT_LIMIT:g}")


def evolve_numeric_sampled(H: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """RK4 samples of psi0 at the given times (ascending, from t = 0), one
    (T,) + psi0.shape array.  The step is 0.02 / (Gershgorin bound on |E|)
    of the whole H; norm drift beyond 1e-8 raises.

    The step polynomial and its powers are evaluated on the connected
    blocks of H's nonzero pattern, so the samples are those of the
    full-matrix RK4 for any H, dense or coupling any sectors.

    Sample times carry rounding, so intervals that agree to a few ulps of
    the latest time (evenly spaced samples) are integrated with one common
    length, their mean.  One P^n is held at a time, and it is formed
    again only where the span changes.  A NaN or Inf in H, psi0 or the
    times aborts.
    """
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    psi0 = np.asarray(psi0)
    psi = psi0.reshape(-1).astype(np.complex128)
    if psi.shape[0] != H.shape[0]:
        raise ValueError(
            f"state dimension {psi.shape[0]} does not match the "
            f"{H.shape[0]}-dimensional Hamiltonian")
    times = np.asarray(times, dtype=float).reshape(-1)
    if not (np.isfinite(H).all() and np.isfinite(psi).all() and np.isfinite(times).all()):
        raise NumericalGuardError("Hamiltonian, state or times hold non-finite values")
    dt = _auto_dt(H)
    n0 = np.linalg.norm(psi)
    spans = np.diff(times, prepend=0.0)
    if np.any(spans < 0):
        raise ValueError("sample times must be ascending")
    out = np.empty(times.shape + psi0.shape, dtype=np.complex128)
    if not len(times):
        return out
    tol = 4.0 * np.finfo(float).eps * float(np.abs(times).max())
    stacks = _block_stacks(H)
    held = None  # the span whose P^n per stack is `power`
    for k, span in enumerate(_shared_spans(spans, tol)):
        if span:
            if span != held:
                held = span
                power = [_rk4_power(Hs, float(span), dt) for _, Hs in stacks]
            nxt = np.empty_like(psi)
            for (idx, _), P in zip(stacks, power):
                nxt[idx] = (P @ psi[idx][..., None])[..., 0]
            psi = nxt
        _check_norm(psi, n0)
        out[k] = psi.reshape(psi0.shape)
    return out


# ---------------------------------------------------------------------------
# reductions, each of one (4, M) state or over the last two axes of a stack

def partial_trace_field(psi) -> np.ndarray:
    """4x4 atomic density (computational basis), tracing the field: the
    independent reference for rho_A, through embed_atom_density."""
    return psi @ np.conj(psi).swapaxes(-1, -2)


def partial_trace_atoms(psi) -> np.ndarray:
    """M x M field density, tracing the atoms."""
    return np.swapaxes(psi, -1, -2) @ np.conj(psi)


def inversion_of(psi):
    pop = np.sum(np.abs(psi) ** 2, axis=-1)
    return pop @ _ATOM_WEIGHT


def buffer_population(psi):
    """Population of the top two Fock levels (the truncation buffer)."""
    return np.sum(np.abs(psi[..., -2:]) ** 2, axis=(-2, -1))


def require_buffer_empty(psi):
    """Raise TruncationError if any state of the stack populates the buffer."""
    pop = float(np.max(buffer_population(psi)))
    if not pop <= BUFFER_TOL:  # a NaN population trips it too
        raise TruncationError(
            f"truncation buffer population {pop:.2e} exceeds {BUFFER_TOL:g}")


def antisymmetric_leakage(psi):
    """Population of the antisymmetric atomic state (zero for symmetric
    initial conditions with identical atoms): the independent check that
    the symmetric-sector frame of the analytic layer holds."""
    anti = (psi[..., 1, :] - psi[..., 2, :]) / math.sqrt(2.0)
    return np.sum(np.abs(anti) ** 2, axis=-1)
