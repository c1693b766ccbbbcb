"""Library-level validation suites behind `twojc validate`.

Each check returns {"name", "passed", "metrics"}; the fast level covers
the algebraic identity sweeps, the full level adds the brute-force
propagator comparisons and the frozen approximation-window fixture.
Every eigenvalue reference is the oracle's cyclic Jacobi, the one
hand-written solver, so no check compares a path with itself.
"""

import hashlib
import importlib.resources
import json
import warnings

import numpy as np

from . import approx, dynamics, oracle, spectral
from .errors import FixtureIntegrityError
from .model import F_BUCK_SUKUMAR, F_LINEAR, H_KERR, ModelParams

def _payload_digest(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _verify_fixture(doc, name):
    if not isinstance(doc, dict) or set(doc) != {"payload", "sha256"}:
        raise FixtureIntegrityError(f"fixture {name} has unexpected structure")
    if _payload_digest(doc["payload"]) != doc["sha256"]:
        raise FixtureIntegrityError(f"fixture {name} failed its checksum")
    return doc["payload"]


def load_fixture(name: str) -> dict:
    """Load a frozen package fixture and verify its checksum."""
    ref = importlib.resources.files("twojc").joinpath("fixtures", name)
    try:
        doc = json.loads(ref.read_text())
    except FileNotFoundError as exc:
        raise FixtureIntegrityError(f"fixture {name} is missing") from exc
    except json.JSONDecodeError as exc:
        raise FixtureIntegrityError(f"fixture {name} is not valid JSON: {exc}") from exc
    return _verify_fixture(doc, name)


def load_fixture_file(path: str) -> dict:
    """Load a checksummed fixture from an explicit path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FixtureIntegrityError(f"fixture {path} unreadable: {exc}") from exc
    return _verify_fixture(doc, path)


def fixture_document(payload: dict) -> dict:
    return {"payload": payload, "sha256": _payload_digest(payload)}


def random_params(rng):
    g = 10.0 ** rng.uniform(-4, 0)
    return ModelParams(
        omega0=1.0, g=g,
        J_ising=rng.uniform(-1, 1) * g,
        kappa=rng.uniform(-1, 1) * g + rng.uniform(0, 1.5) * g,
        chi=rng.uniform(0, 1) * g,
        delta=rng.uniform(-1, 1) * g,
        h_kind=H_KERR,
        f_kind=F_BUCK_SUKUMAR if rng.integers(2) else F_LINEAR,
    )


def random_draw(rng):
    """One random Kerr parameter set and photon index n in [0, 100]."""
    return random_params(rng), int(rng.integers(0, 101))


def check_spectral_identities(n_draws=1000, seed=20240117):
    """Closed-form roots vs the oracle's cyclic Jacobi, plus the polynomial
    and frequency identities, over random parameter draws solved as one
    stack."""
    rng = np.random.default_rng(seed)
    draws = [random_draw(rng) for _ in range(n_draws)]
    H = np.stack([spectral.build_block(p, n) for p, n in draws])
    s = spectral.solve_blocks(H, np.array([n for _, n in draws]))
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
        for t in rng.uniform(0.0, 20.0, n_times):
            D = dynamics.evolve_coeffs(spectra, init, float(t))
            worst = max(worst, float(np.abs(
                np.sum(np.abs(D) ** 2, axis=1) - 1.0).max()))
    return {"name": "per_block_unitarity", "passed": worst < 1e-12,
            "metrics": {"worst": worst}}


def check_t0_anchors():
    """Observables at t = 0 for mean photon number 10 at its automatic n_max."""
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.25, f_kind=F_BUCK_SUKUMAR)
    field = dynamics.coherent_field(10.0)
    spectra = spectral.spectrum_table(params, field.n_max)
    out = {}
    rho = dynamics.reduced_atom_density(field, spectra, 0.0)
    out["inversion0"] = abs(dynamics.atomic_inversion(field, spectra, 0.0) - 1.0)
    out["purity0"] = abs(dynamics.purity(rho) - 1.0)
    out["entropy0"] = abs(dynamics.field_entropy(rho))
    out["concurrence_ee"] = abs(dynamics.concurrence(rho))
    sym = dynamics.coherent_field(10.0, atom_init=dynamics.AtomInit.SYMMETRIC)
    rho_s = dynamics.reduced_atom_density(sym, spectra, 0.0)
    out["concurrence_sym"] = abs(dynamics.concurrence(rho_s) - 1.0)
    out["inversion0_sym"] = abs(dynamics.atomic_inversion(sym, spectra, 0.0))
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
    """Approximation error stays inside the frozen tolerance in the
    trusted window and breaks out of it far outside."""
    payload = load_fixture("approx_window.json")
    params, field, spectra = beat_reference_setup()
    regime = approx.standard_regime(params, field.mean_n)
    near = np.linspace(payload["near_window"][0], payload["near_window"][1],
                       payload["grid_points"])
    far = np.linspace(payload["far_window"][0], payload["far_window"][1],
                      payload["grid_points"])
    err_near = float(np.abs(approx.standard_approx_inversion(regime, near)
                            - dynamics.inversion_series(field, spectra, near)).max())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # far window is outside validity on purpose
        err_far = float(np.abs(approx.standard_approx_inversion(regime, far)
                               - dynamics.inversion_series(field, spectra, far)).max())
    tol = payload["tolerance"]
    return {"name": "approx_window",
            "passed": bool(err_near <= tol < err_far),
            "metrics": {"tolerance": tol, "near_max": err_near, "far_max": err_far}}


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
