"""Brute-force cross-checks on the truncated joint Hilbert space.

The joint Hamiltonian is assembled directly from kron products of the
atomic and field operators (never from the 3x3 blocks), on the basis
{|a> x |m>} with atoms ordered (|g,g>, |g,e>, |e,g>, |e,e>) and Fock
levels m in [0, n_max + 2].  Two structurally different propagators are
provided: exact per-sector evolution (total excitation is conserved, so
the matrix splits into blocks of dimension <= 4 that are diagonalized
once by a local cyclic Jacobi sweep), and a fixed-step 4th-order
Runge-Kutta integrator over the full matrix.  The analytic layer is
deliberately not imported for any numerics here, so agreement between
the two code paths is meaningful.

The top two Fock levels are a truncation buffer: runs that populate
them beyond 1e-10 are rejected.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import AtomInit, FieldInit
from .errors import NumericalGuardError, TruncationError
from .model import HKind, ModelParams, eval_h, ladder_factor

__all__ = ["JointState", "build_joint_hamiltonian", "joint_initial_state",
           "SectorPropagator", "evolve_numeric", "evolve_numeric_sampled",
           "partial_trace_atoms", "partial_trace_field", "inversion_of",
           "buffer_population", "antisymmetric_leakage", "jacobi_eigh_cyclic"]

BUFFER_TOL = 1e-10
NORM_DRIFT_LIMIT = 1e-8
_RK4_STEP_FRACTION = 0.02  # dt * (Gershgorin bound on |E|)

# sigma_z weight per atomic basis state (gg, ge, eg, ee)
_ATOM_WEIGHT = np.array([-1.0, 0.0, 0.0, 1.0])


@dataclass(frozen=True)
class JointState:
    """Amplitudes over {atom basis} x {Fock levels}, shape (4, M)."""

    amplitudes: np.ndarray
    time: float

    @property
    def n_levels(self):
        return self.amplitudes.shape[1]

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


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
    for m in range(1, M):
        lower[m - 1, m] = ladder_factor(params.f_kind, m)
    if params.h_kind.kind is HKind.KERR:
        shift = params.chi * np.arange(M, dtype=float) ** 2
    else:
        shift = np.array([params.omega0 * m * (eval_h(params.h_kind, params, m) - 1.0)
                          for m in range(M)])
    H = (np.kron(I4, np.diag(shift))
         + 0.5 * params.delta * np.kron(sz1 + sz2, IM)
         + params.g * (np.kron(sm1 + sm2, lower.T) + np.kron(sp1 + sp2, lower))
         + 2.0 * params.kappa * np.kron(sm1 @ sp2 + sp1 @ sm2, IM)
         + params.J_ising * np.kron(sz1 @ sz2, IM))
    return H


def joint_initial_state(field: FieldInit) -> JointState:
    """Product of the selected atomic state with the configured field.

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
    return JointState(amplitudes=psi, time=0.0)


def excitation_sectors(M: int):
    """Index lists (flat a*M + m) of constant total excitation."""
    sectors = []
    for s in range(-1, M + 1):
        idx = []
        for a in range(4):
            m = s - int(_ATOM_WEIGHT[a])
            if 0 <= m < M:
                idx.append(a * M + m)
        if idx:
            sectors.append(np.array(sorted(idx), dtype=np.int64))
    return sectors


def jacobi_eigh_cyclic(mat):
    """Cyclic-by-rows Jacobi for a small symmetric matrix.

    Deliberately a different sweep strategy than the analytic layer's
    solver; this copy exists so the cross-check cannot share a bug.
    """
    A = np.array(mat, dtype=np.float64)
    n = A.shape[0]
    V = np.eye(n)
    nrm = 0.0
    for i in range(n):
        for j in range(n):
            nrm += A[i, j] * A[i, j]
    tol = 1e-14 * math.sqrt(nrm)
    for _ in range(80):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                if abs(A[i, j]) > off:
                    off = abs(A[i, j])
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= tol * 1e-2:
                    continue
                tau = 0.5 * (A[q, q] - A[p, p]) / A[p, q]
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


class SectorPropagator:
    """Exact evolution by per-sector eigendecomposition of the joint H."""

    def __init__(self, H: np.ndarray, n_max: int):
        M = n_max + 3
        if H.shape != (4 * M, 4 * M):
            raise ValueError("Hamiltonian shape does not match n_max")
        self.n_max = n_max
        self.M = M
        self._sectors = []
        for idx in excitation_sectors(M):
            sub = H[np.ix_(idx, idx)]
            w, V = jacobi_eigh_cyclic(sub)
            self._sectors.append((idx, w, V))

    def evolve(self, psi0: JointState, t: float) -> JointState:
        flat = psi0.amplitudes.reshape(-1)
        out = np.zeros_like(flat)
        for idx, w, V in self._sectors:
            c = V.T @ flat[idx]
            out[idx] = V @ (np.exp(-1j * w * t) * c)
        return JointState(amplitudes=out.reshape(4, self.M),
                          time=psi0.time + t)

    def sample(self, psi0: JointState, times) -> list:
        return [self.evolve(psi0, float(t)) for t in times]


# ---------------------------------------------------------------------------
# fixed-step RK4 on the full matrix
#
# One RK4 step of size h multiplies the state by the Taylor polynomial
# P(h) = sum_{j<=4} (-i h H)^j / j!, so n steps are P(h)^n.  Intervals of
# one length share a single P^n, formed by repeated squaring, and each
# sample is then one matrix-vector product.

def _auto_dt(H):
    bound = float(np.abs(H).sum(axis=1).max())  # Gershgorin bound on |E|
    if bound == 0.0:
        return math.inf
    return _RK4_STEP_FRACTION / bound


def _rk4_step_matrix(H, h):
    """P(h) = I + A + A^2/2 + A^3/6 + A^4/24 with A = -i h H, in Horner form."""
    A = (-1j * h) * H
    eye = np.eye(H.shape[0])
    P = eye + A / 4.0
    for j in (3.0, 2.0, 1.0):
        P = eye + (A @ P) / j
    return P


def _matrix_power(P, n):
    """P^n for n >= 1 by repeated squaring."""
    result = None
    while True:
        if n & 1:
            result = P if result is None else result @ P
        n >>= 1
        if not n:
            return result
        P = P @ P


class _Rk4Engine:
    def __init__(self, H, dt):
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("Hamiltonian must be a square matrix")
        self.H = H
        self.dim = H.shape[0]
        self.dt = _auto_dt(H) if dt is None else float(dt)
        self._powers = {}  # span -> P^n, kept while more intervals of that span follow

    def advance(self, psi_flat, span, uses_left=1):
        """The state `span` later; `uses_left` counts the intervals of this
        span still to come, this one included."""
        if psi_flat.shape[0] != self.dim:
            raise ValueError(
                f"state dimension {psi_flat.shape[0]} does not match the "
                f"{self.dim}-dimensional Hamiltonian")
        if span == 0.0:
            return psi_flat
        power = self._powers.pop(span, None)
        if power is None:
            n_steps = max(1, int(math.ceil(span / self.dt))) if math.isfinite(self.dt) else 1
            power = _matrix_power(_rk4_step_matrix(self.H, span / n_steps), n_steps)
        if uses_left > 1:
            self._powers[span] = power
        return power @ psi_flat


def _shared_spans(spans, tol):
    """Spans that differ by at most `tol` from a neighbour in sorted order
    form one cluster.  Returns each span replaced by its cluster's mean and,
    for each interval, how many intervals of its cluster remain from it on."""
    order = np.argsort(spans, kind="stable")
    starts = np.diff(spans[order], prepend=-np.inf) > tol
    label = np.empty(len(spans), dtype=np.int64)
    label[order] = np.cumsum(starts) - 1
    counts = np.bincount(label)
    means = np.bincount(label, weights=spans) / counts
    left = np.empty_like(label)
    seen = np.zeros_like(counts)
    for i in range(len(label) - 1, -1, -1):
        seen[label[i]] += 1
        left[i] = seen[label[i]]
    return means[label], left


def _check_norm(psi_flat, n0):
    drift = abs(np.linalg.norm(psi_flat) - n0)
    if not drift <= NORM_DRIFT_LIMIT:  # catches NaN from an unstable step
        raise NumericalGuardError(
            f"integrator norm drift {drift:.2e} exceeds {NORM_DRIFT_LIMIT:g}; "
            "reduce the step size")
    return drift


def evolve_numeric(H: np.ndarray, psi0: JointState, t: float, dt: float = None) -> JointState:
    """Integrate the Schrodinger equation for a duration t with fixed-step
    RK4 on the full joint matrix.  dt defaults to 0.02 / (Gershgorin
    bound on |E|); norm drift beyond 1e-8 raises."""
    engine = _Rk4Engine(H, dt)
    psi = psi0.amplitudes.reshape(-1).astype(np.complex128).copy()
    n0 = np.linalg.norm(psi)
    psi = engine.advance(psi, float(t))
    _check_norm(psi, n0)
    return JointState(amplitudes=psi.reshape(psi0.amplitudes.shape),
                      time=psi0.time + t)


def evolve_numeric_sampled(H: np.ndarray, psi0: JointState, times, dt: float = None):
    """RK4 samples at the given times (ascending, from psi0.time).

    Sample times carry rounding, so intervals that agree to a few ulps of
    the latest time (evenly spaced samples) are integrated with one common
    length, their mean.
    """
    engine = _Rk4Engine(H, dt)
    psi = psi0.amplitudes.reshape(-1).astype(np.complex128).copy()
    n0 = np.linalg.norm(psi)
    times = np.asarray(times, dtype=float).reshape(-1)
    spans = np.diff(times, prepend=psi0.time)
    if np.any(spans < 0):
        raise ValueError("sample times must be ascending")
    if not len(times):
        return []
    tol = 4.0 * np.finfo(float).eps * max(abs(psi0.time), float(np.abs(times).max()))
    shared, uses_left = _shared_spans(spans, tol)
    out = []
    for t, span, left in zip(times, shared, uses_left):
        psi = engine.advance(psi, float(span), int(left))
        _check_norm(psi, n0)
        out.append(JointState(amplitudes=psi.reshape(4, -1).copy(), time=float(t)))
    return out


# ---------------------------------------------------------------------------
# reductions

def partial_trace_field(psi: JointState) -> np.ndarray:
    """4x4 atomic density (computational basis), tracing the field."""
    P = psi.amplitudes
    return P @ P.conj().T


def partial_trace_atoms(psi: JointState) -> np.ndarray:
    """M x M field density, tracing the atoms."""
    P = psi.amplitudes
    return P.T @ P.conj()


def inversion_of(psi: JointState) -> float:
    pop = np.sum(np.abs(psi.amplitudes) ** 2, axis=1)
    return float(pop @ _ATOM_WEIGHT)


def buffer_population(psi: JointState) -> float:
    """Population of the top two Fock levels (the truncation buffer)."""
    return float(np.sum(np.abs(psi.amplitudes[:, -2:]) ** 2))


def require_buffer_empty(psi: JointState):
    pop = buffer_population(psi)
    if pop > BUFFER_TOL:
        raise TruncationError(
            f"truncation buffer population {pop:.2e} exceeds {BUFFER_TOL:g}")


def antisymmetric_leakage(psi: JointState) -> float:
    """Population of the antisymmetric atomic state (zero for symmetric
    initial conditions with identical atoms)."""
    P = psi.amplitudes
    anti = (P[1] - P[2]) / math.sqrt(2.0)
    return float(np.sum(np.abs(anti) ** 2))
