"""Acceptance suite: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavy fixtures (brute-force propagators at mean photon
number 20) are shared across criteria, so the whole module stays well
inside a five-minute budget on one machine.
"""

import math
import time
import warnings

import numpy as np
import pytest

import twojc
from twojc import (F_BUCK_SUKUMAR, H_KERR, ModelParams, coherent_field,
                   concurrence, field_entropy, husimi_grid, inversion_series,
                   observable_series, purity, reduced_atom_density,
                   reduced_field_density, spectrum_table)
from twojc.approx import standard_regime, standard_approx_inversion
from twojc.dynamics import AtomInit, entropy_of_eigvals
from twojc.features import (beat_nodes, collapse_width, grid_lobes,
                            local_maxima, local_minima, nearest_extremum,
                            revival_spacing)
from twojc.oracle import (SectorPropagator, build_joint_hamiltonian,
                          evolve_numeric_sampled, inversion_of,
                          jacobi_eigh_cyclic, joint_initial_state,
                          partial_trace_atoms, require_buffer_empty)
from twojc.spectral import build_block
from twojc.validation import load_fixture


def report(criterion, passed, detail):
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures

@pytest.fixture(scope="module")
def sweep_blocks():
    """>= 10^4 random draws, solved as one stack, plus their reference
    from one stacked call of the oracle's cyclic Jacobi."""
    rng = np.random.default_rng(20240903)
    blocks = []
    for trial in range(10000):
        g = 10.0 ** rng.uniform(-4, 0)
        J = rng.uniform(-1, 1) * g
        params = ModelParams(
            omega0=1.0, g=g, J_ising=J, kappa=J + rng.uniform(0, 1.5) * g,
            chi=rng.uniform(0, 1) * g, delta=rng.uniform(-1, 1) * g,
            h_kind=H_KERR,
            f_kind=F_BUCK_SUKUMAR if trial % 2 else twojc.F_LINEAR)
        blocks.append(build_block(params, int(rng.integers(0, 101))))
    stack = twojc.PhotonBlock.stack(blocks)
    table = twojc.solve_blocks(stack)
    w = jacobi_eigh_cyclic(stack.matrix)[0]
    return [(table[k], block, w[k]) for k, block in enumerate(blocks)]


@pytest.fixture(scope="module")
def beat_run():
    """sqrt coupling, (kappa-J)/g = 1/8, chi = 0, mean 20, both excited."""
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
    field = coherent_field(20.0)
    spectra = spectrum_table(params, field.n_max)
    coarse = np.linspace(0.0, 16.0 * math.pi, 500)
    dense = np.linspace(0.0, 16.0 * math.pi, 4001)
    return {
        "params": params, "field": field, "spectra": spectra,
        "coarse": coarse, "dense": dense,
        "inv_coarse": inversion_series(field, spectra, coarse),
        "inv_dense": inversion_series(field, spectra, dense),
    }


@pytest.fixture(scope="module")
def mean10_symmetric():
    """Bare cavity, sqrt coupling, symmetric start, mean 10."""
    params = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)
    field = coherent_field(10.0, atom_init=AtomInit.SYMMETRIC)
    spectra = spectrum_table(params, field.n_max)
    return params, field, spectra


# ---------------------------------------------------------------------------
# criteria

def test_c01_spectral_correctness(sweep_blocks):
    worst_eig = worst_trace = worst_pair = worst_prod = 0.0
    for s, block, w in sweep_blocks:
        hnorm = max(1.0, float(np.linalg.norm(block.matrix)))
        worst_eig = max(worst_eig, float(np.abs(
            np.sort(s.energies) - np.sort(w)).max()) / hnorm)
        inter = s.intermediates
        e1, e2, e3 = s.energies
        worst_trace = max(worst_trace, abs(e1 + e2 + e3 + inter.beta)
                          / max(1.0, abs(inter.beta)))
        worst_pair = max(worst_pair, abs(e1 * e2 + e1 * e3 + e2 * e3
                                         - inter.gamma) / max(1.0, abs(inter.gamma)))
        worst_prod = max(worst_prod, abs(e1 * e2 * e3 + inter.eta)
                         / max(1.0, abs(inter.eta)))
    ok = (worst_eig < 1e-9 and worst_trace < 1e-9 and worst_pair < 1e-9
          and worst_prod < 1e-9)
    report("C01 spectral-correctness", ok,
           f"eig {worst_eig:.2e}, trace {worst_trace:.2e}, "
           f"pair {worst_pair:.2e}, prod {worst_prod:.2e} (all < 1e-9)")


def test_c02_frequency_identities(sweep_blocks):
    worst_sum = worst_quad = 0.0
    for s, _, _ in sweep_blocks:
        o21, o31, o23 = s.rabi
        worst_sum = max(worst_sum, abs(o21 - (o23 + o31)) / max(1.0, abs(o21)))
        lhs = (o23 + 2.0 * o31) ** 2 / 3.0 + o23 ** 2
        rhs = 4.0 * abs(3.0 * s.intermediates.Q)
        worst_quad = max(worst_quad, abs(lhs - rhs) / max(1e-300, rhs))
    ok = worst_sum < 1e-9 and worst_quad < 1e-9
    report("C02 frequency-identities", ok,
           f"sum {worst_sum:.2e}, quadratic {worst_quad:.2e} (both < 1e-9)")


def test_c03_t0_anchors():
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.25, f_kind=F_BUCK_SUKUMAR)
    spectra = spectrum_table(params, 68)
    field = coherent_field(10.0, n_max=68)
    rho0 = reduced_atom_density(field, spectra, 0.0)
    sym = coherent_field(10.0, n_max=68, atom_init=AtomInit.SYMMETRIC)
    rho0s = reduced_atom_density(sym, spectra, 0.0)
    defects = {
        "inversion": abs(twojc.atomic_inversion(field, spectra, 0.0) - 1.0),
        "purity": abs(purity(rho0) - 1.0),
        "entropy": abs(field_entropy(rho0)),
        "concurrence_ee": abs(concurrence(rho0)),
        "concurrence_sym": abs(concurrence(rho0s) - 1.0),
    }
    worst = max(defects.values())
    report("C03 t0-anchors", worst < 1e-10,
           f"worst defect {worst:.2e} (< 1e-10): " +
           ", ".join(f"{k} {v:.1e}" for k, v in defects.items()))


def test_c04_shift_invariance():
    taus = np.linspace(0.0, 2.0 * math.pi, 200)
    results = []
    for kappa, J in ((0.25, 0.0), (0.5, 0.25)):
        params = ModelParams(omega0=1.0, g=1.0, kappa=kappa, J_ising=J,
                             f_kind=F_BUCK_SUKUMAR)
        field = coherent_field(10.0)
        spectra = spectrum_table(params, field.n_max)
        results.append(observable_series(field, spectra, taus,
                                         ["inversion", "purity", "entropy"]))
    worst = max(float(np.abs(results[0][k] - results[1][k]).max())
                for k in ("inversion", "purity", "entropy"))
    report("C04 shift-invariance", worst < 1e-12,
           f"max series deviation {worst:.2e} (< 1e-12)")


def test_c05_oracle_equivalence(beat_run):
    t0 = time.time()
    H = build_joint_hamiltonian(beat_run["params"], beat_run["field"].n_max)
    psi0 = joint_initial_state(beat_run["field"])
    prop = SectorPropagator(H, beat_run["field"].n_max)
    exact = np.array([inversion_of(prop.evolve(psi0, float(t)))
                      for t in beat_run["coarse"]])
    err_sector = float(np.abs(beat_run["inv_coarse"] - exact).max())

    states = evolve_numeric_sampled(H, psi0, beat_run["coarse"])
    require_buffer_empty(states[-1])
    rk4 = np.array([inversion_of(s) for s in states])
    err_rk4 = float(np.abs(beat_run["inv_coarse"] - rk4).max())
    elapsed = time.time() - t0
    ok = err_sector < 1e-8 and err_rk4 < 1e-6 and elapsed < 300.0
    report("C05 oracle-equivalence", ok,
           f"sector {err_sector:.2e} (< 1e-8), rk4 {err_rk4:.2e} (< 1e-6), "
           f"elapsed {elapsed:.0f}s (< 300s)")


def test_c06_collapse_revival_beat(beat_run):
    taus, sig = beat_run["dense"], beat_run["inv_dense"]
    spacing = revival_spacing(taus, sig)
    width = collapse_width(taus, sig)
    nodes = beat_nodes(taus, sig)
    first_node = nodes[0] if len(nodes) else math.nan
    ok_spacing = abs(spacing - math.pi) < 0.10 * math.pi
    ok_width = abs(width - 1.0 / math.sqrt(40.0)) < 0.50 / math.sqrt(40.0)
    ok_node = abs(first_node - 4.0 * math.pi) < 0.05 * 4.0 * math.pi
    report("C06 collapse-revival-beat", ok_spacing and ok_width and ok_node,
           f"revival spacing {spacing / math.pi:.3f} pi (pi +- 10%), "
           f"collapse width {width:.4f} (0.1581 +- 50%), "
           f"first node {first_node / math.pi:.3f} pi (4 pi +- 5%)")


def test_c07_approximation_window(beat_run):
    payload = load_fixture("approx_window.json")
    regime = standard_regime(beat_run["params"], beat_run["field"].mean_n)
    tol = payload["tolerance"]
    err_near = float(np.abs(standard_approx_inversion(regime, beat_run["dense"])
                            - beat_run["inv_dense"]).max())
    far = np.linspace(412.0 * math.pi, 420.0 * math.pi, payload["grid_points"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # far window is outside validity by design
        approx_far = standard_approx_inversion(regime, far)
    err_far = float(np.abs(approx_far
                           - inversion_series(beat_run["field"], beat_run["spectra"],
                                              far)).max())
    report("C07 approximation-window", err_near <= tol < err_far,
           f"near {err_near:.4f} <= tol {tol:.4f} < far {err_far:.4f}")


def test_c08_kerr_beat_period():
    x = 1.0 / 32.0
    params = ModelParams(omega0=1.0, g=1.0, chi=x, kappa=x / 2.0,
                         h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)
    field = coherent_field(20.0)
    spectra = spectrum_table(params, field.n_max)
    taus = np.linspace(0.0, 22.0 * math.pi, 7001)
    sig = inversion_series(field, spectra, taus)
    nodes = beat_nodes(taus, sig)
    expect = math.pi / (3.0 * x)
    ok = len(nodes) >= 2 and abs((nodes[1] - nodes[0]) - expect) < 0.10 * expect
    spacing = nodes[1] - nodes[0] if len(nodes) >= 2 else math.nan
    report("C08 kerr-beat-period", ok,
           f"node spacing {spacing / math.pi:.3f} pi "
           f"(32 pi / 3 = {expect / math.pi:.3f} pi +- 10%)")


def test_c09_entropy_structure(mean10_symmetric):
    params, field, spectra = mean10_symmetric
    taus = np.linspace(0.0, 2.0 * math.pi + 0.3, 950)
    entropy = observable_series(field, spectra, taus, ["entropy"])["entropy"]
    ok_range = bool(np.all(entropy >= -1e-12)
                    and np.all(entropy <= math.log(3.0) + 1e-10))
    min_t, _ = local_minima(taus, entropy)
    ok_minima = all(nearest_extremum(m * math.pi / 4.0, min_t) < 0.1
                    for m in range(1, 9))

    H = build_joint_hamiltonian(params, field.n_max)
    prop = SectorPropagator(H, field.n_max)
    psi0 = joint_initial_state(field)
    rng = np.random.default_rng(14)
    worst_al = 0.0
    for t in np.sort(rng.uniform(0.0, 2.0 * math.pi, 100)):
        s_atoms = field_entropy(reduced_atom_density(field, spectra, float(t)))
        rho_f = partial_trace_atoms(prop.evolve(psi0, float(t)))
        s_field = entropy_of_eigvals(np.linalg.eigvalsh(rho_f))
        worst_al = max(worst_al, abs(s_atoms - s_field))
    ok = ok_range and ok_minima and worst_al < 1e-8
    report("C09 entropy-structure", ok,
           f"minima at m pi/4 within 0.1: {ok_minima}, range ok: {ok_range}, "
           f"entropy-side match {worst_al:.2e} (< 1e-8, 100 times)")


def test_c10_concurrence_maxima():
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.25, f_kind=F_BUCK_SUKUMAR)
    field = coherent_field(10.0, atom_init=AtomInit.SYMMETRIC)
    spectra = spectrum_table(params, field.n_max)
    taus = np.linspace(0.0, 2.0 * math.pi + 0.3, 950)
    conc = observable_series(field, spectra, taus, ["concurrence"])["concurrence"]
    peak_t, peak_v = local_maxima(taus, conc, min_value=0.5)
    misses = {m: nearest_extremum(m * math.pi / 2.0, peak_t)
              for m in range(1, 5)}
    ok = all(v < 0.15 for v in misses.values()) and np.all(conc <= 1.0 + 1e-10)
    report("C10 concurrence-maxima", ok,
           "offsets from m pi/2: " +
           ", ".join(f"m={m}: {v:.3f}" for m, v in misses.items()) +
           " (all < 0.15)")


def test_c11_husimi_sanity():
    params = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)
    n_max = 144  # the +-6 window needs 2 * 72 Fock levels
    field = coherent_field(10.0, n_max=n_max)
    spectra = spectrum_table(params, n_max)
    ax = np.linspace(-6.0, 6.0, 241)

    rho0 = reduced_field_density(field, spectra, 0.0)
    grid0 = husimi_grid(rho0, ax, ax)
    peak = float(grid0.values.max())
    i, j = np.unravel_index(np.argmax(grid0.values), grid0.values.shape)
    alpha_peak = ax[j] + 1j * ax[i]
    ok_peak = (abs(peak - 1.0 / math.pi) < 1e-3
               and abs(alpha_peak - math.sqrt(10.0)) < 0.06)
    ok_norm0 = abs(grid0.integral() - 1.0) < 1e-3

    rho1 = reduced_field_density(field, spectra, math.pi / 4.0)
    grid1 = husimi_grid(rho1, ax, ax)
    ok_norm1 = abs(grid1.integral() - 1.0) < 1e-3
    lobes = grid_lobes(grid1, rel_threshold=0.1, min_separation=1.0)
    radii = np.array([abs(a) for a, _ in lobes])
    ok_lobes = (len(lobes) >= 2
                and bool(np.all(np.abs(radii - math.sqrt(10.0))
                                < 0.15 * math.sqrt(10.0))))
    ok = ok_peak and ok_norm0 and ok_norm1 and ok_lobes
    report("C11 husimi-sanity", ok,
           f"peak {peak:.5f} at {alpha_peak:.2f} (1/pi at sqrt10), "
           f"norms {grid0.integral():.5f}/{grid1.integral():.5f} (+-1e-3), "
           f"{len(lobes)} lobes at radii {np.round(radii, 2)} "
           f"(>= 2 on sqrt10 +- 15%)")
