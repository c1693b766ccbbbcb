"""Library-level validation suites behind `twojc validate`.

Each check returns {"name", "passed", "metrics"}; the fast level covers
the algebraic identity sweeps, the full level adds the brute-force
propagator comparisons and the approximation-window check, whose
windows and tolerance are the constants below.
Every eigenvalue reference is the oracle's cyclic Jacobi, the one
hand-written solver, so no check compares a path with itself.
"""

import math
import warnings

import numpy as np

from . import approx, dynamics, oracle, spectral
from .model import F_BUCK_SUKUMAR, F_LINEAR, H_KERR, ModelParams, block_formula

# The approximation-window check on the beat reference setup: the standard
# form's inversion error over NEAR_WINDOW stays within APPROX_TOLERANCE and
# exceeds it over FAR_WINDOW, each window sampled at APPROX_GRID_POINTS.
NEAR_WINDOW = (0.0, 16.0 * math.pi)
FAR_WINDOW = (412.0 * math.pi, 420.0 * math.pi)
APPROX_GRID_POINTS = 4001
# the near-window error against the exact sector propagator times 1.02,
# rounded to 6 decimals; tools/approx_tolerance.py measures it again
APPROX_TOLERANCE = 0.553777


def _random_numbers(rng, k):
    """k random Kerr parameter sets at omega0 = 1 as arrays: the
    ModelParams numbers, which rows take the Buck-Sukumar f, and photon
    indices n in [0, 100]."""
    g = 10.0 ** rng.uniform(-4, 0, k)
    numbers = {
        "g": g,
        "J_ising": rng.uniform(-1, 1, k) * g,
        "kappa": rng.uniform(-1, 1, k) * g + rng.uniform(0, 1.5, k) * g,
        "chi": rng.uniform(0, 1, k) * g,
        # the detuning as ModelParams stores it, omega - omega0
        "delta": (1.0 + rng.uniform(-1, 1, k) * g) - 1.0,
    }
    return numbers, rng.integers(2, size=k).astype(bool), rng.integers(0, 101, size=k)


def random_blocks(rng, k):
    """k random Kerr blocks (k, 3, 3) and their photon indices n (k,):
    g = 10^U(-4, 0), J, kappa, chi and delta as multiples of g, a linear
    or Buck-Sukumar f; the blocks of each f kind are one block_formula call."""
    numbers, buck, n = _random_numbers(rng, k)
    H = np.empty((k, 3, 3))
    for f_kind, rows in ((F_LINEAR, ~buck), (F_BUCK_SUKUMAR, buck)):
        H[rows] = block_formula(
            f_kind, H_KERR, n[rows], omega0=1.0,
            **{key: v[rows] for key, v in numbers.items()})
    return H, n


def check_spectral_identities(n_draws=1000, seed=20240117):
    """Closed-form roots vs the oracle's cyclic Jacobi, plus the polynomial
    and frequency identities, over random parameter draws.  The draws are
    arrays whose numbers broadcast against n in block_formula, so the
    blocks are one call per f kind, and the stack is solved in one call."""
    H, n = random_blocks(np.random.default_rng(seed), n_draws)
    s = spectral.solve_blocks(H, n)
    inter = spectral.cardano(H)
    lam_diag, lam_off = spectral.weighting_amplitudes(s.coeffs)
    w = oracle.jacobi_eigh_cyclic(H)[0]
    hnorm = np.maximum(1.0, np.linalg.norm(H, axis=(1, 2)))
    e1, e2, e3 = s.energies.T
    o21, o31, o23 = spectral.rabi_frequencies(s.energies).T
    quad = (o23 + 2.0 * o31) ** 2 / 3.0 + o23 ** 2
    rhs = 4.0 * np.abs(3.0 * inter.Q)
    worst = {
        "eig": np.abs(np.sort(s.energies) - np.sort(w)).max(axis=1) / hnorm,
        "trace": np.abs(e1 + e2 + e3 + inter.beta) / np.maximum(1.0, np.abs(inter.beta)),
        "pair": (np.abs(e1 * e2 + e1 * e3 + e2 * e3 - inter.gamma)
                 / np.maximum(1.0, np.abs(inter.gamma))),
        "prod": np.abs(e1 * e2 * e3 + inter.eta) / np.maximum(1.0, np.abs(inter.eta)),
        "rabi_sum": np.abs(o21 - (o23 + o31)) / np.maximum(1.0, np.abs(o21)),
        "rabi_q": np.abs(quad - rhs) / np.maximum(1e-300, rhs),
        "complete": np.abs(lam_diag.sum(axis=1) + 2.0 * lam_off.sum(axis=1) - 1.0),
        "orth": np.abs(s.coeffs @ np.swapaxes(s.coeffs, 1, 2) - np.eye(3)).max(axis=(1, 2)),
    }
    worst = {k: float(v.max()) for k, v in worst.items()}
    passed = (worst["eig"] < 1e-9 and worst["trace"] < 1e-9
              and worst["pair"] < 1e-9 and worst["prod"] < 1e-9
              and worst["rabi_sum"] < 1e-9 and worst["rabi_q"] < 1e-9
              and worst["complete"] < 1e-10 and worst["orth"] < 1e-10)
    return {"name": "spectral_identities", "passed": bool(passed),
            "metrics": worst}


def check_unitarity(seed=7, n_times=40):
    """Per-block branch normalization sum_k |D_k|^2 = 1."""
    rng = np.random.default_rng(seed)
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.25, chi=0.01,
                         h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)
    spectra = spectral.spectrum_table(params, 40)
    worst = 0.0
    for init in dynamics.AtomInit:
        D = dynamics.evolve_coeffs(spectra, init, rng.uniform(0.0, 20.0, n_times))
        worst = max(worst, float(np.abs(np.sum(np.abs(D) ** 2, axis=2) - 1.0).max()))
    return {"name": "per_block_unitarity", "passed": worst < 1e-12,
            "metrics": {"worst": worst}}


def check_t0_anchors():
    """Observables at t = 0 for mean photon number 10 at its automatic n_max."""
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.25, f_kind=F_BUCK_SUKUMAR)
    field = dynamics.coherent_field(10.0)
    sym = dynamics.coherent_field(10.0, atom_init=dynamics.AtomInit.SYMMETRIC)
    spectra = spectral.spectrum_table(params, field.n_max)
    ee, ss = ({name: float(v[0]) for name, v in dynamics.observable_series(
        f, spectra, np.zeros(1), dynamics.SERIES_OBSERVABLES).items()} for f in (field, sym))
    out = {"inversion0": abs(ee["inversion"] - 1.0),
           "purity0": abs(ee["purity"] - 1.0),
           "entropy0": abs(ee["entropy"]),
           "concurrence_ee": abs(ee["concurrence"]),
           "concurrence_sym": abs(ss["concurrence"] - 1.0),
           "inversion0_sym": abs(ss["inversion"])}
    passed = all(v < 1e-10 for v in out.values())
    return {"name": "t0_anchors", "passed": bool(passed), "metrics": out}


def beat_reference_setup():
    """Reference configuration: sqrt coupling, (kappa-J)/g = 1/8, chi=0,
    mean photon number 20, both atoms excited."""
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
    field = dynamics.coherent_field(20.0)
    spectra = spectral.spectrum_table(params, field.n_max)
    return params, field, spectra


def check_oracle_equivalence(n_times=500):
    """Analytic inversion vs both brute-force propagators."""
    params, field, spectra = beat_reference_setup()
    times = np.linspace(0.0, 16.0 * np.pi, n_times)
    analytic = dynamics.inversion_series(field, spectra, times)
    H = oracle.build_joint_hamiltonian(params, field.n_max)
    psi0 = oracle.joint_initial_state(field)
    prop = oracle.SectorPropagator(H, field.n_max)
    exact = prop.evolve(psi0, times)
    rk = oracle.evolve_numeric_sampled(H, psi0, times)
    oracle.require_buffer_empty(exact)
    oracle.require_buffer_empty(rk)
    metrics = {
        "sector_max_abs": float(np.abs(analytic - oracle.inversion_of(exact)).max()),
        "rk4_max_abs": float(np.abs(analytic - oracle.inversion_of(rk)).max()),
        "rk4_norm_defect": abs(float(np.linalg.norm(rk[-1])) - 1.0)}
    passed = metrics["sector_max_abs"] < 1e-8 and metrics["rk4_max_abs"] < 1e-6
    return {"name": "oracle_equivalence", "passed": bool(passed),
            "metrics": metrics}


def check_approx_window():
    """Approximation error stays inside APPROX_TOLERANCE in the trusted
    window and breaks out of it far outside."""
    params, field, spectra = beat_reference_setup()
    near = np.linspace(*NEAR_WINDOW, APPROX_GRID_POINTS)
    far = np.linspace(*FAR_WINDOW, APPROX_GRID_POINTS)
    err_near = float(np.abs(approx.approx_inversion(params, field.mean_n, near)
                            - dynamics.inversion_series(field, spectra, near)).max())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # far window is outside validity on purpose
        err_far = float(np.abs(approx.approx_inversion(params, field.mean_n, far)
                               - dynamics.inversion_series(field, spectra, far)).max())
    return {"name": "approx_window",
            "passed": bool(err_near <= APPROX_TOLERANCE < err_far),
            "metrics": {"tolerance": APPROX_TOLERANCE, "near_max": err_near,
                        "far_max": err_far}}


def check_araki_lieb(n_times=25, seed=3):
    """Atom- and field-side entropies agree for the pure joint state."""
    params = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)
    field = dynamics.coherent_field(10.0, atom_init=dynamics.AtomInit.SYMMETRIC)
    spectra = spectral.spectrum_table(params, field.n_max)
    H = oracle.build_joint_hamiltonian(params, field.n_max)
    prop = oracle.SectorPropagator(H, field.n_max)
    psi0 = oracle.joint_initial_state(field)
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_times))
    s_atoms = dynamics.observable_series(field, spectra, times, ["entropy"])["entropy"]
    rho_f = oracle.partial_trace_atoms(prop.evolve(psi0, times))
    s_field = dynamics.entropy_of_eigvals(np.linalg.eigvalsh(rho_f))
    worst = float(np.abs(s_atoms - s_field).max())
    return {"name": "araki_lieb", "passed": worst < 1e-8,
            "metrics": {"worst": worst}}


def run_level(level: str) -> dict:
    checks = [
        check_spectral_identities(n_draws=1000),
        check_unitarity(),
        check_t0_anchors(),
    ]
    if level == "full":
        checks.append(check_oracle_equivalence())
        checks.append(check_approx_window())
        checks.append(check_araki_lieb())
    return {"level": level,
            "passed": all(c["passed"] for c in checks),
            "checks": checks}
