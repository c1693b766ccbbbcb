"""Acceptance suite: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Where `twojc validate` has the same check (C01, C02, C03, C05,
C07 and C09's Araki-Lieb part), the criterion calls it from
`twojc.validation` and asserts its own literal bounds on the returned
metrics, so a bound loosened there still fails here.
"""

import math
import time

import numpy as np
import pytest

from twojc import (F_BUCK_SUKUMAR, H_KERR, ModelParams, coherent_field,
                   husimi_grid, inversion_series, observable_series,
                   reduced_field_density, spectrum_table)
from twojc.dynamics import AtomInit
from twojc.features import (beat_nodes, collapse_width, grid_lobes,
                            local_maxima, local_minima, nearest_extremum,
                            revival_spacing)
from twojc.validation import (beat_reference_setup, check_approx_window,
                              check_araki_lieb, check_oracle_equivalence,
                              check_spectral_identities, check_t0_anchors,
                              load_fixture)


def report(criterion, passed, detail):
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def identities():
    """>= 10^4 random draws solved as one stack, against one stacked call
    of the oracle's cyclic Jacobi."""
    return check_spectral_identities(n_draws=10_000, seed=20240903)["metrics"]


# ---------------------------------------------------------------------------
# criteria

def test_c01_spectral_correctness(identities):
    m = identities
    ok = (m["eig"] < 1e-9 and m["trace"] < 1e-9 and m["pair"] < 1e-9
          and m["prod"] < 1e-9)
    report("C01 spectral-correctness", ok,
           f"eig {m['eig']:.2e}, trace {m['trace']:.2e}, "
           f"pair {m['pair']:.2e}, prod {m['prod']:.2e} (all < 1e-9)")


def test_c02_frequency_identities(identities):
    m = identities
    ok = m["rabi_sum"] < 1e-9 and m["rabi_q"] < 1e-9
    report("C02 frequency-identities", ok,
           f"sum {m['rabi_sum']:.2e}, quadratic {m['rabi_q']:.2e} (both < 1e-9)")


def test_c03_t0_anchors():
    defects = check_t0_anchors()["metrics"]
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


def test_c05_oracle_equivalence():
    t0 = time.time()
    m = check_oracle_equivalence(n_times=500)["metrics"]
    elapsed = time.time() - t0
    ok = m["sector_max_abs"] < 1e-8 and m["rk4_max_abs"] < 1e-6 and elapsed < 300.0
    report("C05 oracle-equivalence", ok,
           f"sector {m['sector_max_abs']:.2e} (< 1e-8), "
           f"rk4 {m['rk4_max_abs']:.2e} (< 1e-6), elapsed {elapsed:.0f}s (< 300s)")


def test_c06_collapse_revival_beat():
    _, field, spectra = beat_reference_setup()
    taus = np.linspace(0.0, 16.0 * math.pi, 4001)
    sig = inversion_series(field, spectra, taus)
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


def test_c07_approximation_window():
    tol = load_fixture("approx_window.json")["tolerance"]
    m = check_approx_window()["metrics"]
    report("C07 approximation-window", m["near_max"] <= tol < m["far_max"],
           f"near {m['near_max']:.4f} <= tol {tol:.4f} < far {m['far_max']:.4f}")


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


def test_c09_entropy_structure():
    params = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)
    field = coherent_field(10.0, atom_init=AtomInit.SYMMETRIC)
    spectra = spectrum_table(params, field.n_max)
    taus = np.linspace(0.0, 2.0 * math.pi + 0.3, 950)
    entropy = observable_series(field, spectra, taus, ["entropy"])["entropy"]
    ok_range = bool(np.all(entropy >= -1e-12)
                    and np.all(entropy <= math.log(3.0) + 1e-10))
    min_t, _ = local_minima(taus, entropy)
    ok_minima = all(nearest_extremum(m * math.pi / 4.0, min_t) < 0.1
                    for m in range(1, 9))
    worst_al = check_araki_lieb(n_times=100, seed=14)["metrics"]["worst"]
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
