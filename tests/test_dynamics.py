import collections
import json
import math
import os
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from twojc import dynamics
from twojc import (F_BUCK_SUKUMAR, F_LINEAR, H_KERR, ModelParams, NumericalGuardError,
                   TruncationError, TwojcError, build_block,
                   coherent_field, concurrence, embed_atom_density,
                   evolve_coeffs, field_entropy, husimi_grid, husimi_q,
                   inversion_series, observable_series, purity,
                   rabi_frequencies, reduced_atom_density, reduced_field_density,
                   spectrum_table, weighting_amplitudes)
from twojc.cli import run_config
from twojc.config import parse_config
from twojc.dynamics import (SERIES_OBSERVABLES, AtomInit,
                            _chunks, auto_n_max, coherent_vector,
                            entropy_of_eigvals, hermitian_eigvals)
from twojc.features import find_peaks, nearest_extremum

SQRT2 = math.sqrt(2.0)


def expm_rho_atoms(field, params, t):
    """Independent reduced atomic density: scipy expm on each 3x3 block,
    then the shifted double sum done longhand."""
    N = field.n_max
    A = field.amplitudes
    col = 0 if field.atom_init is AtomInit.BOTH_EXCITED else 1
    D = np.zeros((N + 1, 3), dtype=complex)
    for n in range(N + 1):
        H = build_block(params, n)
        U = scipy.linalg.expm(-1j * H * t)
        D[n] = U[:, col]
    rho = np.zeros((3, 3), dtype=complex)
    for k in range(3):
        for j in range(3):
            for n in range(N + 1):
                m = n + j - k
                if 0 <= m <= N:
                    rho[k, j] += A[m] * np.conj(A[n]) * D[m, k] * np.conj(D[n, j])
    return rho


class TestCoherentField:
    def test_vacuum(self):
        f = coherent_field(0.0, n_max=10)
        assert f.amplitudes[0] == 1.0
        assert np.all(f.amplitudes[1:] == 0.0)

    def test_poisson_masses_match_scipy(self):
        mean = 10.0
        f = coherent_field(mean, n_max=60)
        top = int(mean + 8 * math.sqrt(mean))
        for n in range(top + 1):
            assert abs(f.amplitudes[n]) ** 2 == pytest.approx(
                scipy.stats.poisson.pmf(n, mean), rel=1e-13)

    def test_normalization(self):
        f = coherent_field(10.0, n_max=60)
        assert abs(np.sum(f.probabilities) - 1.0) < 1e-12

    def test_phase_enters_linearly(self):
        f = coherent_field(4.0, phase=0.3, n_max=40)
        ratios = f.amplitudes[1:15] / f.amplitudes[:14]
        np.testing.assert_allclose(np.angle(ratios), 0.3, atol=1e-12)

    def test_truncation_error_suggests_n_max(self):
        with pytest.raises(TruncationError) as err:
            coherent_field(40.0, n_max=45)
        assert str(err.value).endswith(
            f"increase n_max (auto_n_max gives {auto_n_max(40.0)})")

    def test_overflowing_phase_is_a_guard(self):
        # n * phase overflows from n = 2, which would make the amplitudes NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalGuardError, match="not finite"):
                coherent_field(3.0, phase=1e308, n_max=30)

    def test_auto_n_max_for_mean_ten(self):
        assert auto_n_max(10.0) == 68


@pytest.mark.parametrize("call, message", [
    (lambda: dynamics.FieldInit(amplitudes=np.ones(3), n_max=5, mean_n=1.0),
     r"amplitudes must have n_max \+ 1 entries"),
    (lambda: coherent_field(-1.0), "mean photon number must be nonnegative"),
    (lambda: observable_series(coherent_field(1.0, n_max=20),
                               spectrum_table(ModelParams(omega0=1.0, g=1.0), 20),
                               [0.0], ["inversion", "bogus"]),
     r"unknown observables: \['bogus'\]"),
], ids=["field_length", "negative_mean_n", "unknown_observable"])
def test_bad_arguments_are_twojc_errors(call, message):
    with pytest.raises(TwojcError, match=message):
        call()


class TestEvolveCoeffs:
    def test_t0_identity_both_excited(self, small_system):
        _, field, spectra = small_system
        D = evolve_coeffs(spectra, AtomInit.BOTH_EXCITED, [0.0])[0]
        np.testing.assert_allclose(D[:, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(D[:, 1:], 0.0, atol=1e-12)

    def test_t0_identity_symmetric(self, small_system):
        _, _, spectra = small_system
        D = evolve_coeffs(spectra, AtomInit.SYMMETRIC, [0.0])[0]
        np.testing.assert_allclose(D[:, 1], 1.0, atol=1e-12)

    def test_per_block_unitarity(self, small_system):
        _, _, spectra = small_system
        for init in AtomInit:
            D = evolve_coeffs(spectra, init, [0.3, 1.7, 9.2])
            assert D.shape == (3, len(spectra), 3)
            np.testing.assert_allclose(np.sum(np.abs(D) ** 2, axis=2), 1.0,
                                       atol=1e-12)

    def test_time_array_rows_equal_single_times(self, small_system):
        # one call over the array gives, row for row, the bits of one call per time
        _, _, spectra = small_system
        times = np.linspace(0.0, 12.0, 37)
        for init in AtomInit:
            D = evolve_coeffs(spectra, init, times)
            for i in range(len(times)):
                assert np.array_equal(D[i], evolve_coeffs(spectra, init, times[i:i + 1])[0])

    def test_n0_linear_block_against_expm(self):
        params = ModelParams(omega0=1.0, g=1.0, f_kind=F_LINEAR)
        spectra = spectrum_table(params, 0)
        t = math.pi / math.sqrt(6.0)
        D = evolve_coeffs(spectra, AtomInit.BOTH_EXCITED, [t])[0, 0]
        # the n = 0 block at g = 1 evolves the first basis state
        H = np.array([[0.0, SQRT2, 0.0], [SQRT2, 0.0, 2.0], [0.0, 2.0, 0.0]])
        expect = scipy.linalg.expm(-1j * H * t)[:, 0]
        np.testing.assert_allclose(D, expect, atol=1e-12)
        assert np.sum(np.abs(D) ** 2) == pytest.approx(1.0, abs=1e-13)


class TestInversion:
    def test_starts_at_one(self, small_system):
        _, field, spectra = small_system
        assert inversion_series(field, spectra, [0.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_negligible_coupling_freezes_inversion(self):
        p = ModelParams(omega0=1.0, g=1e-12, kappa=0.3, J_ising=0.1,
                        f_kind=F_BUCK_SUKUMAR)
        field = coherent_field(3.0, n_max=25)
        spectra = spectrum_table(p, 25)
        np.testing.assert_allclose(inversion_series(field, spectra, [0.5, 2.0, 10.0]),
                                   1.0, rtol=0, atol=1e-10)

    def test_route_equivalence_formula_vs_density(self, small_system):
        # the paper's closed form sum_n P_n (sum_j lam_jj + 2 sum_jk lam_jk
        # cos Omega_jk t), from the table's dumped columns
        _, field, spectra = small_system
        times = np.linspace(0.0, 4.0, 9)
        Pn = field.probabilities
        lam_diag, lam_off = weighting_amplitudes(spectra.coeffs)
        cosines = np.cos(rabi_frequencies(spectra.energies)[None, :, :] * times[:, None, None])
        closed = (np.sum(Pn * lam_diag.sum(axis=1))
                  + 2.0 * np.einsum("n,nk,tnk->t", Pn, lam_off, cosines))
        np.testing.assert_allclose(inversion_series(field, spectra, times), closed,
                                   rtol=0, atol=1e-10)

    def test_symmetric_inversion_starts_at_zero(self, symmetric_system):
        _, field, spectra = symmetric_system
        assert inversion_series(field, spectra, [0.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_one(self, small_system):
        _, field, spectra = small_system
        vals = inversion_series(field, spectra, np.linspace(0, 12, 400))
        assert np.all(np.abs(vals) <= 1.0 + 1e-10)

    @pytest.mark.parametrize("system", ["small_system", "symmetric_system"])
    def test_series_builds_rho_once(self, system, request, monkeypatch):
        _, field, spectra = request.getfixturevalue(system)
        times = np.linspace(0.0, 6.0, 80)
        ref = inversion_series(field, spectra, times)
        built = []  # the times of every rho_A built, as the branch rows' Gram
        gram = dynamics._BranchRows.gram
        monkeypatch.setattr(dynamics._BranchRows, "gram",
                            lambda rows, t, out: built.extend(t) or gram(rows, t, out))
        out = observable_series(field, spectra, times, ["inversion", "purity"])
        assert np.array_equal(np.sort(built), times)  # each sample once
        np.testing.assert_array_equal(out["inversion"], ref)

    def test_every_series_of_no_times_is_empty(self, small_system):
        _, field, spectra = small_system
        out = observable_series(field, spectra, np.array([]), SERIES_OBSERVABLES)
        for name in SERIES_OBSERVABLES:
            assert out[name].shape == (0,), name


class TestReducedAtomDensity:
    def test_t0_pure_states(self, small_system, symmetric_system):
        _, field, spectra = small_system
        rho = reduced_atom_density(field, spectra, [0.0])[0]
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
        _, sym_field, _ = symmetric_system
        rho_s = reduced_atom_density(sym_field, spectra, [0.0])[0]
        np.testing.assert_allclose(rho_s, np.diag([0.0, 1.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("t", [0.35, math.pi / 4, 1.9])
    def test_matches_expm_oracle(self, small_system, t):
        params, field, spectra = small_system
        rho = reduced_atom_density(field, spectra, [t])[0]
        ref = expm_rho_atoms(field, params, t)
        np.testing.assert_allclose(rho, ref, atol=1e-12)

    def test_matches_expm_oracle_symmetric(self, symmetric_system):
        params, field, spectra = symmetric_system
        t = 0.8
        rho = reduced_atom_density(field, spectra, [t])[0]
        ref = expm_rho_atoms(field, params, t)
        np.testing.assert_allclose(rho, ref, atol=1e-12)

    def test_density_invariants_along_trajectory(self, small_system):
        _, field, spectra = small_system
        rho = reduced_atom_density(field, spectra, np.linspace(0.0, 6.0, 25))
        assert rho.shape == (25, 3, 3)
        for d in rho:
            assert abs(np.trace(d).real - 1.0) < 1e-10
            assert np.abs(d - d.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(d).min() > -1e-10


class TestPurity:
    def test_pure_state(self):
        assert purity(np.diag([1.0, 0, 0]).astype(complex)) == 1.0

    def test_maximally_mixed(self):
        assert purity(np.eye(3, dtype=complex) / 3.0) == pytest.approx(1.0 / 3.0)

    def test_closed_form_equals_trace_of_square(self, small_system):
        _, field, spectra = small_system
        for rho in reduced_atom_density(field, spectra, [0.4, 1.3, 2.6]):
            assert purity(rho) == pytest.approx(
                float(np.trace(rho @ rho).real), abs=1e-12)

    def test_range_along_trajectory(self, small_system):
        _, field, spectra = small_system
        series = observable_series(field, spectra, np.linspace(0, 8, 200),
                                   ["purity"])["purity"]
        assert np.all(series >= 1.0 / 3.0 - 1e-10)
        assert np.all(series <= 1.0 + 1e-10)

    def test_maxima_near_quarter_pi_multiples(self):
        # symmetric start, sqrt coupling, (kappa-J)/g = 1/4, mean 10
        params = ModelParams(omega0=1.0, g=1.0, kappa=0.25,
                             f_kind=F_BUCK_SUKUMAR)
        field = coherent_field(10.0, atom_init=AtomInit.SYMMETRIC)
        spectra = spectrum_table(params, field.n_max)
        taus = np.linspace(0.0, 1.3 * math.pi, 700)
        series = observable_series(field, spectra, taus, ["purity"])["purity"]
        peak_t, _ = find_peaks(taus, series, min_height=0.5)
        for m in (1, 2, 3, 4):
            assert nearest_extremum(m * math.pi / 4.0, peak_t) < 0.15


class TestConcurrence:
    def test_product_state_zero(self):
        assert concurrence(np.diag([1.0, 0, 0]).astype(complex)) == 0.0

    def test_symmetric_bell_state_is_maximal(self):
        assert concurrence(np.diag([0.0, 1.0, 0.0]).astype(complex)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_matches_wootters_four_level_reference(self, symmetric_system):
        # Wootters' formula on the embedded 4x4, at 40 digits: lambda_i are
        # the square roots of the eigenvalues of rho (YY) rho* (YY), with YY
        # the full two-qubit sigma_y x sigma_y
        mpmath = pytest.importorskip("mpmath")
        sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
        yy = np.kron(sigma_y, sigma_y).real
        _, field, spectra = symmetric_system
        rhos = list(reduced_atom_density(field, spectra, [0.9, 2.3]))
        rng = np.random.default_rng(83)
        for rank in (2, 3, 3, 3):  # mixed states, entangled or not
            a = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
            rho = a @ a.conj().T
            rhos.append(rho / np.trace(rho).real)
        values = []
        for rho3 in rhos:
            rho4 = embed_atom_density(rho3)
            assert np.trace(rho4).real == pytest.approx(1.0, abs=1e-10)
            with mpmath.workdps(40):
                flip = mpmath.matrix(yy.tolist())
                m = mpmath.matrix(rho4.tolist())
                r = m * flip * m.apply(mpmath.conj) * flip
                lam = sorted((mpmath.sqrt(abs(mpmath.re(e))) for e in mpmath.eig(r)[0]),
                             reverse=True)
                ref = float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))
            assert concurrence(rho3) == pytest.approx(ref, rel=0, abs=1e-13)
            values.append(ref)
        assert min(values) == 0.0 and max(values) > 0.1

    def test_range_along_trajectory(self, symmetric_system):
        _, field, spectra = symmetric_system
        series = observable_series(field, spectra, np.linspace(0, 8, 150),
                                   ["concurrence"])["concurrence"]
        assert np.all(series >= 0.0)
        assert np.all(series <= 1.0 + 1e-10)

    def test_pure_states_match_closed_form(self):
        # a|e,e> + b|sym> + c|g,g> has concurrence |2ac - b^2|; near-product
        # states (b^2 close to 2ac) are where square roots of the eigenvalues
        # of rho rho~ lose half the digits
        rng = np.random.default_rng(71)
        psi = rng.normal(size=(600, 3)) + 1j * rng.normal(size=(600, 3))
        rel = np.concatenate([np.zeros(100), 10.0 ** rng.uniform(-12, -3, 300)])
        psi[:400, 1] = np.sqrt(2.0 * psi[:400, 0] * psi[:400, 2]) * (1.0 + rel)
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        exact = np.abs(2.0 * psi[:, 0] * psi[:, 2] - psi[:, 1] ** 2)
        rho = psi[:, :, None] * psi[:, None, :].conj()
        np.testing.assert_allclose(concurrence(rho), exact, rtol=0, atol=1e-13)

    def test_imaginary_residue_raises(self):
        # a grossly non-Hermitian input cannot be silently accepted
        rng = np.random.default_rng(8)
        bad = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        with pytest.raises(NumericalGuardError):
            concurrence(bad)


class TestEntropy:
    def test_zero_for_pure(self):
        assert field_entropy(np.diag([1.0, 0, 0]).astype(complex)) == 0.0

    def test_ln3_for_maximally_mixed(self):
        val = field_entropy(np.eye(3, dtype=complex) / 3.0)
        assert val == pytest.approx(math.log(3.0), rel=1e-12)

    def test_hermitian_eigvals_match_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            np.testing.assert_allclose(hermitian_eigvals(rho),
                                       np.linalg.eigvalsh(rho), atol=1e-12)

    def test_entropy_purity_anticorrelation(self, symmetric_system):
        _, field, spectra = symmetric_system
        taus = np.linspace(0.0, 8.0, 300)
        out = observable_series(field, spectra, taus, ["purity", "entropy"])
        assert np.all(out["entropy"] >= -1e-12)
        assert np.all(out["entropy"] <= math.log(3.0) + 1e-10)
        # near-pure reduced states carry almost no entropy
        high = out["purity"] >= 0.985
        assert np.all(out["entropy"][high] <= 0.1)


class TestFieldDensity:
    def test_initial_coherent_state_is_pure(self, small_system):
        _, field, spectra = small_system
        chi = reduced_field_density(field, spectra, 0.0)
        assert abs(np.sum(np.abs(chi) ** 2) - 1.0) < 1e-10
        rho = chi.T @ chi.conj()
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_negligible_coupling_keeps_photon_statistics(self):
        p = ModelParams(omega0=1.0, g=1e-12, kappa=0.2, f_kind=F_BUCK_SUKUMAR)
        field = coherent_field(3.0, n_max=25)
        spectra = spectrum_table(p, 25)
        chi = reduced_field_density(field, spectra, 3.0)
        rho = chi.T @ chi.conj()
        np.testing.assert_allclose(np.diag(rho).real[:26], field.probabilities,
                                   atol=1e-10)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-9)

    def test_trace_one_along_trajectory(self, small_system):
        _, field, spectra = small_system
        for t in (0.7, 2.9):
            chi = reduced_field_density(field, spectra, t)
            pop = np.sum(np.abs(chi) ** 2, axis=0)  # the diagonal of rho_F
            assert abs(np.sum(pop) - 1.0) < 1e-10
            rho = chi.T @ chi.conj()
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-8
            assert np.sum(np.arange(len(pop)) * pop) < field.mean_n + 3.0

    def test_memory_is_its_factors(self):
        # the dense (N+3)^2 complex matrix alone would be 64 MB here
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.25, f_kind=F_BUCK_SUKUMAR)
        field = coherent_field(1400.0, n_max=2000)
        spectra = spectrum_table(p, 2000)
        tracemalloc.start()
        try:
            chi = reduced_field_density(field, spectra, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chi.shape == (3, 2003) and not chi.flags.writeable
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("times", [np.array(0.7), np.array([2.9]),
                                       np.array([0.0, 0.7, 2.9, -1.5, 40.0])])
    def test_time_axis_matches_per_time_calls(self, small_system, symmetric_system, times):
        for _, field, spectra in (small_system, symmetric_system):
            chi = reduced_field_density(field, spectra, times)
            assert chi.shape == times.shape + (3, field.n_max + 3)
            assert not chi.flags.writeable
            for t, own in zip(times.reshape(-1), chi.reshape(-1, 3, field.n_max + 3)):
                ref = reduced_field_density(field, spectra, float(t))
                assert ref.shape == (3, field.n_max + 3)
                assert own.tobytes() == ref.tobytes(), t

    def test_nan_among_the_times_trips_the_phase_guard(self, small_system):
        _, field, spectra = small_system
        with pytest.raises(NumericalGuardError, match="times hold NaN"):
            reduced_field_density(field, spectra, np.array([0.5, math.nan, 1.0]))

    def test_nonzero_atom_entropy_matches_field_entropy(self, small_system):
        _, field, spectra = small_system
        t = 1.1
        rho_a = reduced_atom_density(field, spectra, [t])[0]
        chi = reduced_field_density(field, spectra, t)
        rho_f = chi.T @ chi.conj()
        s_a = field_entropy(rho_a)
        s_f = entropy_of_eigvals(np.linalg.eigvalsh(rho_f))
        assert s_a == pytest.approx(s_f, abs=1e-10)


class TestHusimi:
    def test_coherent_state_gaussian(self, small_system):
        _, field, spectra = small_system
        rho = reduced_field_density(field, spectra, 0.0)
        a0 = math.sqrt(field.mean_n)
        for alpha in (a0, a0 + 0.5j, 1.0 - 1.0j, 0.0):
            expect = math.exp(-abs(alpha - a0) ** 2) / math.pi
            assert husimi_q(rho, alpha) == pytest.approx(expect, rel=1e-10)

    def test_peak_value_at_coherent_center(self, small_system):
        _, field, spectra = small_system
        rho = reduced_field_density(field, spectra, 0.0)
        assert husimi_q(rho, math.sqrt(field.mean_n)) == pytest.approx(
            1.0 / math.pi, rel=1e-12)

    def test_grid_normalization(self, params_bs_quarter):
        field = coherent_field(3.0, n_max=80)
        spectra = spectrum_table(params_bs_quarter, 80)
        rho = reduced_field_density(field, spectra, 0.6)
        ax = np.linspace(-4.2, 4.2, 161)
        grid = husimi_grid(rho, ax, ax)
        assert np.all(grid.values >= -1e-12)
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)

    def test_empty_axis_is_a_guard(self, small_system):
        _, field, spectra = small_system
        rho = reduced_field_density(field, spectra, 0.0)
        ax = np.linspace(0.0, 1.0, 2)
        for re_axis, im_axis in (([], ax), (ax, [])):
            with pytest.raises(NumericalGuardError, match="must not be empty"):
                husimi_grid(rho, re_axis, im_axis)

    def test_integral_of_a_one_point_axis_is_a_guard(self, small_system):
        _, field, spectra = small_system
        rho = reduced_field_density(field, spectra, 0.0)
        ax = np.linspace(0.0, 1.0, 2)
        for re_axis, im_axis in (([0.5], ax), (ax, [0.5])):
            grid = husimi_grid(rho, re_axis, im_axis)
            with pytest.raises(NumericalGuardError, match="two points"):
                grid.integral()

    def test_window_guard(self, small_system):
        _, field, spectra = small_system
        rho = reduced_field_density(field, spectra, 0.0)
        with pytest.raises(NumericalGuardError):
            husimi_q(rho, 6.0 + 6.0j)  # |alpha|^2 = 72 > n_max / 2
        with pytest.raises(NumericalGuardError):
            ax = np.linspace(-8.0, 8.0, 21)
            husimi_grid(rho, ax, ax)

    def test_coherent_vector_norm(self):
        c = coherent_vector(2.0 + 1.0j, 60)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_ring_lobes_at_half_pi(self):
        # sqrt coupling splits the field into well-separated phase lobes
        # on the circle of radius sqrt(mean_n)
        from twojc.features import grid_lobes
        p = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)
        field = coherent_field(10.0, n_max=100)
        spectra = spectrum_table(p, 100)
        rho = reduced_field_density(field, spectra, math.pi / 2.0)
        ax = np.linspace(-5.0, 5.0, 161)
        lobes = grid_lobes(husimi_grid(rho, ax, ax), rel_threshold=0.1,
                           min_separation=1.0)
        assert len(lobes) >= 2
        for alpha, _ in lobes:
            assert abs(alpha) == pytest.approx(math.sqrt(10.0), rel=0.15)


class TestShiftInvarianceOfObservables:
    def test_global_coupling_shift_drops_out(self):
        taus = np.linspace(0.0, 2.0 * math.pi, 60)
        outs = []
        for kappa, J in ((0.25, 0.0), (0.5, 0.25)):
            p = ModelParams(omega0=1.0, g=1.0, kappa=kappa, J_ising=J,
                            f_kind=F_BUCK_SUKUMAR)
            field = coherent_field(3.0, n_max=30)
            spectra = spectrum_table(p, 30)
            outs.append(observable_series(field, spectra, taus,
                                          ["inversion", "purity", "entropy"]))
        for key in ("inversion", "purity", "entropy"):
            np.testing.assert_allclose(outs[0][key], outs[1][key], atol=1e-12)

    def test_weak_coupling_shift_drops_out_of_the_inversion(self):
        """g = 1e-6 with kappa = J = 1: the low blocks fall back to eigh,
        and their level gap (~3e-6) is below the Cardano roots' error."""
        taus = np.linspace(0.0, 4.0 * math.pi, 400)
        field = coherent_field(20.0)
        outs = []
        for shift in (1.0, 0.0):
            p = ModelParams(omega0=1.0, g=1e-6, kappa=shift, J_ising=shift,
                            f_kind=F_BUCK_SUKUMAR)
            spectra = spectrum_table(p, field.n_max)
            assert spectra.used_fallback.any() == (shift != 0.0)
            outs.append(observable_series(field, spectra, taus / p.g, ["inversion"]))
        assert np.abs(outs[0]["inversion"] - outs[1]["inversion"]).max() < 1e-8


@pytest.fixture(scope="module")
def large_n_kerr():
    """mean_n 1000 (n_max 1400) with Kerr and sqrt coupling, both starts."""
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.25, chi=0.125, h_kind=H_KERR,
                         f_kind=F_BUCK_SUKUMAR)
    fields = [coherent_field(1000.0, atom_init=init) for init in AtomInit]
    return fields, spectrum_table(params, fields[0].n_max)


def rho_width(field):
    """The phases of one time in rho_A: 3 per block of the field's support."""
    lo, hi = dynamics._support(field.amplitudes)
    return 3 * (hi - lo)


def end_mass(p, lo, hi):
    return float(np.sum(p[:lo]) + np.sum(p[hi:]))


def phase_beyond_the_support():
    """(field, spectra, t): the field fills block 5 alone, and E t is beyond
    double range only in blocks outside it."""
    params = ModelParams(omega0=1.0, g=1.0, chi=1.0, h_kind=H_KERR)
    amps = np.zeros(41)
    amps[5] = 1.0
    field = dynamics.FieldInit(amplitudes=amps, n_max=40, mean_n=5.0)
    spectra = spectrum_table(params, 40)
    assert dynamics._support(field.amplitudes) == (5, 6)
    top = float(np.abs(spectra.energies).max())
    own = float(np.abs(spectra.energies[5]).max())
    t = sys.float_info.max / math.sqrt(top * own)
    assert math.isfinite(own * t) and not math.isfinite(top * t)
    return field, spectra, t


def full_ladder_rows(field, spectra, t):
    """The branch rows chi_k[n + k] = A_n D_k^(n)(t) over every block; (3, N+3)."""
    D = evolve_coeffs(spectra, field.atom_init, [t])[0]
    levels = len(spectra)
    X = np.zeros((3, levels + 2), dtype=complex)
    for k in range(3):
        X[k, k:k + levels] = field.amplitudes * D[:, k]
    return X


class TestSupport:
    """rho_A sums over the blocks [lo, hi) that hold the field; the ends it
    leaves out carry at most _SUPPORT_MASS together."""

    def test_vacuum_is_one_block(self):
        assert dynamics._support(coherent_field(0.0, n_max=10).amplitudes) == (0, 1)

    def test_large_field_drops_as_much_as_fits(self, large_n_kerr):
        (field, _), _ = large_n_kerr
        p = field.probabilities
        lo, hi = dynamics._support(field.amplitudes)
        assert 0 < lo < hi < len(p)
        assert end_mass(p, lo, hi) <= dynamics._SUPPORT_MASS
        assert end_mass(p, lo + 1, hi) > dynamics._SUPPORT_MASS
        assert end_mass(p, lo, hi - 1) > dynamics._SUPPORT_MASS

    def test_field_without_negligible_end_keeps_the_ladder(self, small_system):
        _, field, _ = small_system
        assert dynamics._support(field.amplitudes) == (0, field.n_max + 1)

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.7, 7.0, 50.0])
    def test_density_matches_the_full_ladder_gram(self, large_n_kerr, t):
        fields, spectra = large_n_kerr
        for field in fields:
            X = full_ladder_rows(field, spectra, t)
            ref = X @ X.conj().T
            rho = reduced_atom_density(field, spectra, [t])[0]
            assert np.abs(rho - ref).max() <= 1e-15, field.atom_init

    def test_phase_guard_reads_blocks_outside_the_support(self):
        field, spectra, t = phase_beyond_the_support()
        with pytest.raises(NumericalGuardError, match="double range"):
            observable_series(field, spectra, np.array([0.0, t]), ["inversion"])


@pytest.fixture(scope="module")
def phase_space_field():
    """The phase-space snapshots' state: mean_n 10 on a ladder (n_max 144)
    wide enough for a 12 x 12 window, support [0, 68); times g t."""
    params = ModelParams(omega0=1.0, g=5e-4, f_kind=F_BUCK_SUKUMAR)
    field = coherent_field(10.0, n_max=144)
    taus = np.array([0.0, math.pi / 4.0, math.pi / 2.0, math.pi])
    return field, spectrum_table(params, 144), taus / params.g


def q_bound():
    """(2 sqrt(m) + m) / pi: the most a Husimi value moves when blocks of
    mass m = _SUPPORT_MASS are left out of rho_F."""
    m = dynamics._SUPPORT_MASS
    return (2.0 * math.sqrt(m) + m) / math.pi


class TestFieldSupport:
    """rho_F's factors span only the levels of the field's support; the
    rest of the ladder is exact zeros, and the guards still read all of it."""

    def cases(self, large_n_kerr, phase_space_field):
        fields, spectra = large_n_kerr
        for field in fields:
            for t in (0.3, 7.0):
                # the window of n_max 1400 ends at |alpha|^2 = 700, inside the
                # field's ring at 1000: the values here are its tails
                yield field, spectra, t, np.linspace(20.0, 26.0, 31), np.linspace(-3.0, 3.0, 31)
        field, spectra, times = phase_space_field
        for t in times:
            yield field, spectra, t, np.linspace(-6.0, 6.0, 61), np.linspace(-6.0, 6.0, 61)

    def test_husimi_values_match_the_full_ladder(self, large_n_kerr, phase_space_field):
        """Against the same fold over every block, each value moves by at most
        the bound.  The rows of evolve_coeffs x amplitudes are rounded in
        another order, a few ulps per entry, so that reference also allows
        8 ulps of the value at the corners, the peak and random points."""
        rng = np.random.default_rng(21)
        eps = np.finfo(float).eps
        for field, spectra, t, re, im in self.cases(large_n_kerr, phase_space_field):
            grid = husimi_grid(reduced_field_density(field, spectra, t), re, im).values
            weights = dynamics._fold_weights(spectra, field.atom_init, field.amplitudes)
            rows = dynamics._BranchRows(weights, spectra.energies, 1)(np.array([t]))[0]
            same_fold = husimi_grid(rows, re, im).values
            assert np.abs(grid - same_fold).max() <= q_bound()

            ref_grid = husimi_grid(full_ladder_rows(field, spectra, t), re, im).values
            corners = np.ix_([0, -1], [0, -1])
            peak = np.unravel_index(np.argmax(ref_grid), ref_grid.shape)
            picks = (rng.integers(len(im), size=20), rng.integers(len(re), size=20))
            for where in (corners, peak, picks):
                gap = np.abs(grid[where] - ref_grid[where])
                assert np.all(gap <= q_bound() + 8 * eps * ref_grid[where])

    def test_rows_vanish_outside_the_support(self, large_n_kerr, phase_space_field):
        for field, spectra, t, *_ in self.cases(large_n_kerr, phase_space_field):
            lo, hi = dynamics._support(field.amplitudes)
            chi = reduced_field_density(field, spectra, t)
            assert chi.shape == (3, field.n_max + 3)
            assert not chi[:, :lo].any() and not chi[:, hi + 2:].any()
            assert chi[0, lo] != 0 and chi[2, hi + 1] != 0

    def test_phase_guard_reads_blocks_outside_the_support(self):
        field, spectra, t = phase_beyond_the_support()
        with pytest.raises(NumericalGuardError, match="double range"):
            reduced_field_density(field, spectra, t)

    def test_window_guard_reads_the_ladder(self, phase_space_field):
        field, spectra, times = phase_space_field
        _, hi = dynamics._support(field.amplitudes)
        rho = reduced_field_density(field, spectra, times[1])
        assert rho.shape[1] - 3 == field.n_max
        re = np.linspace(-6.0, 6.0, 5)
        inside, outside = np.linspace(-5.9, 5.9, 5), np.linspace(-6.1, 6.1, 5)
        # 2 |alpha|^2 beyond 2 (hi + 1) but within the ladder's n_max
        assert 2 * (hi + 1) < 2 * dynamics.corner_alpha_sq(re, inside) <= field.n_max
        assert np.all(np.isfinite(husimi_grid(rho, re, inside).values))
        assert math.isfinite(husimi_q(rho, 8.4))
        with pytest.raises(NumericalGuardError, match="trusted window"):
            husimi_grid(rho, re, outside)
        with pytest.raises(NumericalGuardError, match="trusted window"):
            husimi_q(rho, 8.5)


class TestTimeChunks:
    """observable_series and inversion_series work through the time axis in
    chunks; nothing may change where one chunk ends and the next begins."""

    def test_series_match_per_time_densities(self, large_n_kerr):
        fields, spectra = large_n_kerr
        c = dynamics._CHUNK // dynamics._WORKERS // rho_width(fields[0])
        assert 1 < c < 100
        for n_times in (1, c - 1, c, c + 1, 2 * c + 3):
            times = np.linspace(0.1, 7.0, n_times)
            for field in fields:
                out = observable_series(field, spectra, times, SERIES_OBSERVABLES)
                rhos = [reduced_atom_density(field, spectra, [t])[0] for t in times]
                ref = {"purity": [purity(r) for r in rhos],
                       "concurrence": [concurrence(r) for r in rhos],
                       "entropy": [field_entropy(r) for r in rhos],
                       "inversion": [inversion_series(field, spectra, [t])[0]
                                     for t in times]}
                for name in SERIES_OBSERVABLES:
                    np.testing.assert_allclose(out[name], ref[name], rtol=0, atol=1e-14,
                                               err_msg=f"{name}, T = {n_times}")

    def test_purity_series_memory_is_bounded(self, large_n_kerr):
        # one (T, N+1, 3) complex array at T = 4000, N = 1400 is 134 MB
        (field, _), spectra = large_n_kerr
        times = np.linspace(0.0, 50.0, 4000)
        tracemalloc.start()
        try:
            out = observable_series(field, spectra, times, ["purity"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["purity"].shape == (4000,)
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"

    def test_window_bounds_change_no_bit(self, small_system, monkeypatch, windows):
        _, field, spectra = small_system
        times = np.linspace(0.0, 40.0, 3001)
        monkeypatch.setattr(dynamics, "_CHUNK", rho_width(field) * 64)
        ref = (observable_series(field, spectra, times, SERIES_OBSERVABLES),
               reduced_atom_density(field, spectra, times))
        assert len(windows) == 2  # one each
        monkeypatch.setattr(dynamics, "_WINDOW", 100)
        out = observable_series(field, spectra, times, SERIES_OBSERVABLES)
        assert len(windows) > 12 and windows[-1].stop == len(times)
        for name in SERIES_OBSERVABLES:
            assert np.array_equal(out[name], ref[0][name]), name
        assert np.array_equal(reduced_atom_density(field, spectra, times), ref[1])

    def test_run_memory_does_not_grow_with_the_sample_count(self, tmp_path, monkeypatch):
        # every series observable at two sample counts 4x apart, each cut into
        # chunks of a worker's full cap and spanning several windows: a run
        # holds its row buffers, one window and one block of text per table,
        # and none of them grows with the count (whole columns grew it about 4x)
        monkeypatch.setattr(dynamics, "_WORKERS", 2)
        monkeypatch.setattr(dynamics, "_WINDOW", 1024)
        field = coherent_field(3.0, n_max=30)
        cap = dynamics._CHUNK // 2 // rho_width(field)
        doc = {"model": {"omega0": 1.0, "g": 0.001, "kappa": 0.25,
                         "f_kind": "buck_sukumar"},
               "field": {"mean_n": 3.0, "n_max": 30},
               "observables": list(SERIES_OBSERVABLES)}
        peaks = []
        for count in (3 * 2 * cap, 12 * 2 * cap):
            assert {c.stop - c.start for c in _chunks(count, rho_width(field))} == {cap}
            doc["time_grid"] = {"start": 0.0, "stop": 8000.0, "count": count}
            doc["output"] = {"dir": str(tmp_path / str(count)), "prefix": "m"}
            cfg = parse_config(doc)
            tracemalloc.start()
            try:
                run_config(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.05 * peaks[0], [f"{p / 1e6:.2f} MB" for p in peaks]


class TestChunkPlan:
    """_chunks cuts both threaded kernels' work: one slice when it fits in one
    worker's cap, otherwise a multiple of _WORKERS near-equal slices."""

    WIDTH = 3 * 95  # the phases of one time at n_max 94

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("size", ["zero", "one", "cap", "cap+1", "large"])
    def test_plan(self, monkeypatch, workers, size):
        monkeypatch.setattr(dynamics, "_WORKERS", workers)
        cap = dynamics._CHUNK // workers // self.WIDTH
        n_items = {"zero": 0, "one": 1, "cap": cap, "cap+1": cap + 1,
                   "large": 100 * cap + 7}[size]
        chunks = _chunks(n_items, self.WIDTH)
        assert chunks[0].start == 0 and chunks[-1].stop == n_items
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        sizes = [c.stop - c.start for c in chunks]
        if n_items <= cap:
            assert len(chunks) == 1
        else:
            assert len(chunks) % workers == 0
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= cap
            assert sizes[0] == max(sizes)  # a worker's buffers are sized by it

    def test_fewer_items_than_slices(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_WORKERS", 8)
        chunks = _chunks(3, dynamics._CHUNK)  # cap 1
        assert [(c.start, c.stop) for c in chunks] == [(0, 1), (1, 2), (2, 3)]


class TestWorkers:
    """rho_A's time chunks run on dynamics._WORKERS threads; no output may
    depend on how many."""

    def test_series_equal_for_any_worker_count(self, large_n_kerr, monkeypatch):
        fields, spectra = large_n_kerr
        times = np.linspace(0.1, 7.0, 200)
        out = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(dynamics, "_WORKERS", workers)
            assert len(_chunks(len(times), rho_width(fields[0]))) >= 4
            out[workers] = [
                (observable_series(field, spectra, times, SERIES_OBSERVABLES),
                 inversion_series(field, spectra, times),
                 [reduced_atom_density(field, spectra, [t])[0] for t in times[::33]])
                for field in fields]
        for workers in (2, 3):
            for (series, inv, rhos), (ref_series, ref_inv, ref_rhos) in zip(
                    out[workers], out[1]):
                for name in SERIES_OBSERVABLES:
                    assert np.array_equal(series[name], ref_series[name]), name
                assert np.array_equal(inv, ref_inv)
                assert all(np.array_equal(a, b) for a, b in zip(rhos, ref_rhos))

    def test_csv_bytes_equal_for_one_and_two_workers(self, tmp_path, monkeypatch):
        path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "kerr_inversion.json")
        with open(path) as fh:
            doc = json.load(fh)
        hashes = {}
        for workers in (1, 2):
            monkeypatch.setattr(dynamics, "_WORKERS", workers)
            doc["output"] = {"dir": str(tmp_path / f"w{workers}"), "prefix": "k"}
            cfg = parse_config(doc)
            curve = cfg.curves[0]
            field = coherent_field(curve.mean_n, n_max=curve.n_max)
            assert len(_chunks(len(cfg.times_tau), rho_width(field))) > 1
            hashes[workers] = [f["sha256"] for f in run_config(cfg)["files"]]
        assert len(hashes[1]) == 4 and hashes[1] == hashes[2]

    def test_more_workers_than_cores_under_fast_switching(self, small_system,
                                                          monkeypatch):
        _, field, spectra = small_system
        times = np.linspace(0.0, 12.0, 997)
        monkeypatch.setattr(dynamics, "_CHUNK", rho_width(field) * 64)
        monkeypatch.setattr(dynamics, "_WINDOW", 256)  # four windows
        monkeypatch.setattr(dynamics, "_WORKERS", 1)
        ref = (reduced_atom_density(field, spectra, times),
               observable_series(field, spectra, times, SERIES_OBSERVABLES))
        monkeypatch.setattr(dynamics, "_WORKERS", 8)
        assert len(_chunks(len(times), rho_width(field))) == 128
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rho = reduced_atom_density(field, spectra, times)
            series = observable_series(field, spectra, times, SERIES_OBSERVABLES)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(rho, ref[0])
        for name in SERIES_OBSERVABLES:
            assert np.array_equal(series[name], ref[1][name]), name

    def test_worker_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_WORKERS", 3)
        done, raised_on = [], []

        def share(chunks):
            for chunk in chunks:
                if chunk == 4:  # shares [0, 3], [1, 4], [2, 5]: a worker's share
                    raised_on.append(threading.current_thread())
                    raise NumericalGuardError("chunk 4")
                done.append(chunk)

        with pytest.raises(NumericalGuardError, match="chunk 4"):
            dynamics._run_chunks(share, list(range(6)))
        assert sorted(done) == [0, 1, 2, 3, 5]
        assert raised_on[0] is not threading.current_thread()

    def test_each_share_is_one_call(self, monkeypatch):
        # share i is chunks[i::_WORKERS], handed over whole; the calling
        # thread runs share 0
        monkeypatch.setattr(dynamics, "_WORKERS", 3)
        calls = []
        dynamics._run_chunks(
            lambda chunks: calls.append((tuple(chunks), threading.current_thread())),
            list(range(8)))
        assert sorted(chunks for chunks, _ in calls) == [(0, 3, 6), (1, 4, 7), (2, 5)]
        on = dict(calls)
        assert on[(0, 3, 6)] is threading.current_thread()
        assert threading.current_thread() not in (on[(1, 4, 7)], on[(2, 5)])

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_thread_reads_once_its_row_buffers_are_gone(self, small_system,
                                                          monkeypatch, workers):
        # a thread that read its chunks while it held its row buffers would
        # peak higher by them
        _, field, spectra = small_system
        held = collections.defaultdict(weakref.WeakSet)  # live row buffers by thread
        branch_rows, of_densities = dynamics._BranchRows, dynamics._of_densities

        class Recorded(branch_rows):
            def __init__(self, *args):
                super().__init__(*args)
                held[threading.get_ident()].add(self)

        read = []

        def checked(rho, observables):
            assert not held[threading.get_ident()], "read while holding row buffers"
            read.append(len(rho))
            return of_densities(rho, observables)

        monkeypatch.setattr(dynamics, "_BranchRows", Recorded)
        monkeypatch.setattr(dynamics, "_of_densities", checked)
        monkeypatch.setattr(dynamics, "_WORKERS", workers)
        monkeypatch.setattr(dynamics, "_CHUNK", rho_width(field) * 64)
        monkeypatch.setattr(dynamics, "_WINDOW", 256)
        times = np.linspace(0.0, 12.0, 997)
        observable_series(field, spectra, times, SERIES_OBSERVABLES)
        assert sum(read) == len(times) and len(read) > 4 * workers

    def test_single_chunk_starts_no_thread(self, small_system, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(dynamics, "_WORKERS", 4)
        monkeypatch.setattr(threading, "Thread", no_thread)
        done = []
        dynamics._run_chunks(done.extend, ["only"])
        assert done == ["only"]
        _, field, spectra = small_system
        assert inversion_series(field, spectra, np.linspace(0.0, 1.0, 5)).shape == (5,)


def mp_branch_reference(field, params, times):
    """Inversion and purity from energies and phases in 40-digit arithmetic.

    Each float block (the same input the package solves) keeps its entries
    as exact numbers.  Its float eigenvalues are Newton-polished on the
    characteristic cubic in mpmath, each eigenvector is the cross product of
    rows 0 and 2 of H - E, and e^{-iEt} is taken at 40 digits before it is
    rounded to a double.  Only the blocks with P_n > 1e-20 enter; the rest
    carry under 1e-18 of the state.  The remaining sums are in float64,
    where nothing is multiplied by t.
    """
    mpmath = pytest.importorskip("mpmath")
    levels = np.nonzero(field.probabilities > 1e-20)[0]
    blocks = build_block(params, levels)
    init = 0 if field.atom_init is AtomInit.BOTH_EXCITED else 1
    weights = np.empty((len(levels), 3, 3))  # [n, j, k] = v_j[init] v_j[k] / |v_j|^2
    phases = np.empty((len(times), len(levels), 3), dtype=complex)
    with mpmath.workdps(40):
        mp_times = [mpmath.mpf(float(t)) for t in times]
        for i, h in enumerate(blocks):
            r0, r1, r2 = [[mpmath.mpf(float(x)) for x in row] for row in h]
            tr = r0[0] + r1[1] + r2[2]
            c1 = (r0[0] * r1[1] - r0[1] * r1[0] + r0[0] * r2[2] - r0[2] * r2[0]
                  + r1[1] * r2[2] - r1[2] * r2[1])
            det = (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
                   - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
                   + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))
            for j, e in enumerate(np.linalg.eigvalsh(h)):
                E = mpmath.mpf(float(e))
                for _ in range(3):  # quadratic convergence: 1e-13 -> 1e-26 -> ...
                    E -= (((E - tr) * E + c1) * E - det) / ((3 * E - 2 * tr) * E + c1)
                u = [r0[0] - E, r0[1], r0[2]]
                w = [r2[0], r2[1], r2[2] - E]
                v = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                     u[0] * w[1] - u[1] * w[0]]
                norm = v[0] ** 2 + v[1] ** 2 + v[2] ** 2
                for k in range(3):
                    weights[i, j, k] = float(v[init] * v[k] / norm)
                for m, t in enumerate(mp_times):
                    phases[m, i, j] = complex(mpmath.expj(-E * t))
    branch = np.einsum("tnj,njk->tnk", phases, weights) * field.amplitudes[levels, None]
    X = np.zeros((len(times), 3, len(levels) + 2), dtype=complex)
    for k in range(3):
        X[:, k, k:k + len(levels)] = branch[:, :, k]
    rho = X @ X.conj().swapaxes(1, 2)
    return {"inversion": np.real(rho[:, 0, 0] - rho[:, 2, 2]),
            "purity": np.sum(np.abs(rho) ** 2, axis=(1, 2))}


class TestEdgeAccuracy:
    """mean_n 1000 (n_max 1400) at g = 5e-4 and chi/g = 1/2, out to
    g t = 16 pi: block energies near 250 and t near 1e5, so every phase
    E t carries about 3e-9 rad of float rounding.  The bounds are the
    measured worst errors (inversion 8.0e-11, purity 2.1e-11), rounded up
    to the next 1-2-5 step."""

    BOUNDS = {"inversion": 1e-10, "purity": 5e-11}

    def test_against_40_digit_phases(self):
        g = 5e-4
        params = ModelParams(omega0=1.0, g=g, chi=0.5 * g, h_kind=H_KERR,
                             f_kind=F_BUCK_SUKUMAR)
        field = coherent_field(1000.0)
        spectra = spectrum_table(params, field.n_max)
        T = 16.0 * math.pi / g
        times = np.array([T / 4, T / 2, T])
        ref = mp_branch_reference(field, params, times)
        out = observable_series(field, spectra, times, list(self.BOUNDS))
        for name, bound in self.BOUNDS.items():
            err = np.abs(out[name] - ref[name])
            assert err.max() < bound, f"{name}: errors {err} at T/4, T/2, T"
