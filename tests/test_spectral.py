import glob
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from twojc import (F_BUCK_SUKUMAR, F_LINEAR, H_KERR, ModelParams,
                   NumericalGuardError, block_spectrum, build_block, cardano, eigenvalues,
                   eigenvector_coeffs, ladder_factor, rabi_frequencies,
                   rabi_frequencies_trig, solve_blocks, spectrum_table,
                   weighting_amplitudes)
from twojc.approx import kerr_weight_amplitudes
from twojc.config import load_config
from twojc.oracle import jacobi_eigh_cyclic
from twojc.spectral import _adjugate_rows
from twojc.validation import _random_numbers, random_blocks


SQRT2 = math.sqrt(2.0)


class TestCardano:
    def test_n0_linear_intermediates(self):
        g = 0.7
        p = ModelParams(omega0=1.0, g=g, f_kind=F_LINEAR)
        inter = cardano(build_block(p, 0))
        assert inter.beta == pytest.approx(0.0, abs=1e-15)
        assert inter.gamma == pytest.approx(-6.0 * g * g, rel=1e-14)
        assert inter.eta == pytest.approx(0.0, abs=1e-15)
        assert inter.Q == pytest.approx(-2.0 * g * g, rel=1e-14)
        assert inter.R == pytest.approx(0.0, abs=1e-15)
        assert inter.theta == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_beta_is_negative_trace(self):
        rng = np.random.default_rng(5)
        for b in random_blocks(rng, 200)[0]:
            inter = cardano(b)
            assert inter.beta == pytest.approx(-np.trace(b), rel=1e-13)

    def test_kerr_resonant_Q_closed_form(self):
        # chi, kappa, J enter Q only through (chi - 2(kappa-J))^2 and
        # 12 chi^2 (n+1)^2 when delta = 0
        rng = np.random.default_rng(11)
        for _ in range(300):
            g = 10.0 ** rng.uniform(-3, 0)
            chi = rng.uniform(0, 1) * g
            J = rng.uniform(-1, 1) * g
            kap = J + rng.uniform(0, 1.5) * g
            n = int(rng.integers(0, 101))
            fk = F_BUCK_SUKUMAR if rng.integers(2) else F_LINEAR
            p = ModelParams(omega0=1.0, g=g, kappa=kap, J_ising=J, chi=chi,
                            h_kind=H_KERR, f_kind=fk)
            b = build_block(p, n)
            inter = cardano(b)
            f1, f2 = ladder_factor(fk, n + 1), ladder_factor(fk, n + 2)
            dplus = f2 ** 2 + f1 ** 2
            expect = -((chi - 2 * (kap - J)) ** 2
                       + 12 * chi ** 2 * (n + 1) ** 2
                       + 6 * g ** 2 * dplus) / 9.0
            assert inter.Q == pytest.approx(expect, rel=1e-10)

    def test_kerr_resonant_theta_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            g = 10.0 ** rng.uniform(-2, 0)
            chi = rng.uniform(1e-3, 1) * g
            J = rng.uniform(-1, 1) * g
            kap = J + rng.uniform(0, 1.5) * g
            n = int(rng.integers(0, 60))
            p = ModelParams(omega0=1.0, g=g, kappa=kap, J_ising=J, chi=chi,
                            h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)
            b = build_block(p, n)
            inter = cardano(b)
            f1, f2 = ladder_factor(p.f_kind, n + 1), ladder_factor(p.f_kind, n + 2)
            dplus = f2 ** 2 + f1 ** 2
            dminus = f2 ** 2 - f1 ** 2
            lock = chi - 2 * (kap - J)
            num = (lock * (36 * chi ** 2 * (n + 1) ** 2 - lock ** 2
                           - 9 * g ** 2 * dplus)
                   + 54 * g ** 2 * chi * (n + 1) * dminus)
            den = (lock ** 2 + 12 * chi ** 2 * (n + 1) ** 2
                   + 6 * g ** 2 * dplus) ** 1.5
            assert math.cos(inter.theta) == pytest.approx(num / den, abs=1e-9)

    def test_bare_cavity_Q_and_theta_closed_forms(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            g = 10.0 ** rng.uniform(-2, 0)
            J = rng.uniform(-1, 1) * g
            kmj = rng.uniform(1e-3, 1.5) * g
            n = int(rng.integers(0, 80))
            p = ModelParams(omega0=1.0, g=g, kappa=J + kmj, J_ising=J,
                            f_kind=F_BUCK_SUKUMAR)
            b = build_block(p, n)
            inter = cardano(b)
            dplus = ladder_factor(p.f_kind, n + 2) ** 2 + ladder_factor(p.f_kind, n + 1) ** 2
            q_expect = -(2.0 / 9.0) * (2 * kmj ** 2 + 3 * g ** 2 * dplus)
            assert inter.Q == pytest.approx(q_expect, rel=1e-11)
            arg = (kmj * (4 * kmj ** 2 + 9 * g ** 2 * dplus)
                   / (SQRT2 * (2 * kmj ** 2 + 3 * g ** 2 * dplus) ** 1.5))
            assert math.cos(inter.theta) == pytest.approx(arg, abs=1e-10)

    def test_real_spectrum_condition(self):
        rng = np.random.default_rng(17)
        for b in random_blocks(rng, 300)[0]:
            inter = cardano(b)
            scale = max(1.0, abs(inter.Q)) ** 3
            assert inter.Q ** 3 + inter.R ** 2 <= 1e-10 * scale
            assert 0.0 <= inter.theta <= math.pi


class TestEigenvalues:
    def test_n0_linear_cardano_order(self):
        g = 0.7
        p = ModelParams(omega0=1.0, g=g, f_kind=F_LINEAR)
        b = build_block(p, 0)
        e = eigenvalues(cardano(b), b)
        np.testing.assert_allclose(e, [math.sqrt(6) * g, -math.sqrt(6) * g, 0.0],
                                   atol=1e-14)

    def test_n0_sqrt_coupling_multiset(self):
        p = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)
        b = build_block(p, 0)
        e = np.sort(eigenvalues(cardano(b), b))
        np.testing.assert_allclose(e, [-math.sqrt(10), 0.0, math.sqrt(10)],
                                   atol=1e-13)

    def test_decoupled_block_is_diagonal(self):
        # vanishing coupling: eigenvalues are the couplings themselves
        J, kap = 0.13, 0.41
        b = np.diag([J, 2 * kap - J, J])
        e = eigenvalues(cardano(b), b)
        np.testing.assert_allclose(np.sort(e), np.sort([J, 2 * kap - J, J]),
                                   atol=1e-14)

    def test_characteristic_residual(self):
        rng = np.random.default_rng(23)
        for b in random_blocks(rng, 300)[0]:
            e = eigenvalues(cardano(b), b)
            nrm = np.linalg.norm(b)
            for ev in e:
                res = abs(np.linalg.det(b - ev * np.eye(3)))
                assert res <= 1e-12 * max(1.0, nrm ** 3)

    def test_polynomial_identities(self):
        rng = np.random.default_rng(29)
        for b in random_blocks(rng, 400)[0]:
            inter = cardano(b)
            e1, e2, e3 = eigenvalues(inter, b)
            assert e1 + e2 + e3 == pytest.approx(-inter.beta,
                                                 rel=1e-9, abs=1e-12)
            assert e1 * e2 + e1 * e3 + e2 * e3 == pytest.approx(
                inter.gamma, rel=1e-9, abs=1e-12)
            assert e1 * e2 * e3 == pytest.approx(-inter.eta, rel=1e-9, abs=1e-12)

    def test_degenerate_branch_triple_root(self):
        b = np.zeros((3, 3))
        inter = cardano(b)
        assert inter.degenerate
        np.testing.assert_array_equal(eigenvalues(inter, b), np.zeros(3))


class TestEigenvectors:
    def test_null_vector_of_n0_linear_block(self):
        p = ModelParams(omega0=1.0, g=0.9, f_kind=F_LINEAR)
        b = build_block(p, 0)
        e = eigenvalues(cardano(b), b)
        e, C, fell_back = eigenvector_coeffs(e, b)
        assert not fell_back
        expect = np.array([2.0, 0.0, -SQRT2]) / math.sqrt(6.0)
        row = C[2]  # E = 0 is the third Cardano root here
        sign = 1.0 if row @ expect > 0 else -1.0
        np.testing.assert_allclose(sign * row, expect, atol=1e-12)

    def test_decoupled_block_gives_permutation_rows(self):
        diag = np.array([0.3, -0.2, 0.45])
        b = np.diag(diag)
        e = eigenvalues(cardano(b), b)
        e, C, fell_back = eigenvector_coeffs(e, b)
        assert fell_back  # adjugate rows vanish without coupling
        perm = np.abs(C)
        assert np.allclose(perm @ perm.T, np.eye(3), atol=1e-12)
        for j in range(3):
            k = int(np.argmax(perm[j]))
            assert perm[j, k] == pytest.approx(1.0, abs=1e-12)
            assert diag[k] == pytest.approx(e[j], abs=1e-12)

    def test_orthonormal_and_eigen_residual_over_draws(self):
        rng = np.random.default_rng(31)
        for b in random_blocks(rng, 500)[0]:
            e = eigenvalues(cardano(b), b)
            e, C, _ = eigenvector_coeffs(e, b)
            assert np.abs(C @ C.T - np.eye(3)).max() < 1e-10
            assert np.abs(C.T @ C - np.eye(3)).max() < 1e-10
            nrm = max(1.0, np.linalg.norm(b))
            for j in range(3):
                res = np.abs(b @ C[j] - e[j] * C[j]).max()
                assert res < 1e-9 * nrm


class TestRabi:
    def test_n0_linear_values(self):
        g = 0.7
        p = ModelParams(omega0=1.0, g=g, f_kind=F_LINEAR)
        s = block_spectrum(p, 0)
        np.testing.assert_allclose(
            rabi_frequencies(s.energies), [2 * math.sqrt(6) * g, math.sqrt(6) * g, math.sqrt(6) * g],
            rtol=1e-13)

    def test_sum_identity_exact(self):
        rng = np.random.default_rng(37)
        for b, n in zip(*random_blocks(rng, 300)):
            o21, o31, o23 = rabi_frequencies(solve_blocks(b, n).energies)
            assert o21 == o23 + o31  # differences of stored roots: exact

    def test_trig_forms_match_differences(self):
        rng = np.random.default_rng(41)
        for b in random_blocks(rng, 300)[0]:
            inter = cardano(b)
            e = eigenvalues(inter, b)
            direct = rabi_frequencies(e)
            trig = rabi_frequencies_trig(inter)
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(direct - trig).max() < 1e-10 * scale

    def test_quadratic_identity_against_Q(self):
        rng = np.random.default_rng(43)
        for b, n in zip(*random_blocks(rng, 300)):
            o21, o31, o23 = rabi_frequencies(solve_blocks(b, n).energies)
            lhs = (o23 + 2 * o31) ** 2 / 3.0 + o23 ** 2
            rhs = 4.0 * abs(3.0 * cardano(b).Q)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestWeightingAmplitudes:
    def test_completeness(self):
        rng = np.random.default_rng(47)
        for b, n in zip(*random_blocks(rng, 300)):
            lam_diag, lam_off = weighting_amplitudes(solve_blocks(b, n).coeffs)
            total = lam_diag.sum() + 2.0 * lam_off.sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_coupling_balanced_limit(self):
        # kappa = J, bare cavity, large n: off-diagonal pair -> 1/4
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.3, J_ising=0.3,
                        f_kind=F_BUCK_SUKUMAR)
        _, lam_off = weighting_amplitudes(block_spectrum(p, 1000).coeffs)
        assert abs(lam_off[0]) < 2e-3            # 21 component
        assert lam_off[1] == pytest.approx(0.25, abs=1e-4)
        assert lam_off[2] == pytest.approx(0.25, abs=1e-4)

    def test_locked_kerr_large_n_amplitudes(self):
        # chi = 2(kappa - J): weights become functions of x = chi/g alone
        for x in (0.25, 1.0):
            p = ModelParams(omega0=1.0, g=1.0, kappa=x / 2.0, chi=x,
                            h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)
            lam_diag, lam_off = weighting_amplitudes(block_spectrum(p, 10000).coeffs)
            ref = kerr_weight_amplitudes(x)
            assert lam_off[1] == pytest.approx(ref["lam_31"], abs=1e-4)
            assert lam_off[2] == pytest.approx(ref["lam_23"], abs=1e-4)
            assert lam_diag[0] == pytest.approx(ref["lam_11"], abs=1e-4)
            assert lam_diag[1] == pytest.approx(ref["lam_22"], abs=1e-4)
            assert abs(lam_off[0]) < 1e-4

    def test_weighting_matches_direct_formula(self):
        rng = np.random.default_rng(53)
        H, n = random_blocks(rng, 1)
        C = solve_blocks(H[0], n[0]).coeffs
        diag, off = weighting_amplitudes(C)
        lam = np.array([[C[j, 0] * C[k, 0] * (C[j, 0] * C[k, 0] - C[j, 2] * C[k, 2])
                         for k in range(3)] for j in range(3)])
        np.testing.assert_allclose(diag, np.diag(lam), atol=1e-15)
        np.testing.assert_allclose(off, [lam[1, 0], lam[2, 0], lam[1, 2]],
                                   atol=1e-15)


class TestShiftInvariance:
    def test_equal_coupling_shift_moves_roots_only(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            g = 10.0 ** rng.uniform(-2, 0)
            J = rng.uniform(-1, 1) * g
            kap = J + rng.uniform(0, 1.5) * g
            c = rng.uniform(-2, 2) * g
            n = int(rng.integers(0, 80))
            p0 = ModelParams(omega0=1.0, g=g, kappa=kap, J_ising=J,
                             f_kind=F_BUCK_SUKUMAR)
            p1 = ModelParams(omega0=1.0, g=g, kappa=kap + c, J_ising=J + c,
                             f_kind=F_BUCK_SUKUMAR)
            s0, s1 = block_spectrum(p0, n), block_spectrum(p1, n)
            scale = max(1.0, np.abs(s0.energies).max())
            assert np.abs(s1.energies - s0.energies - c).max() < 1e-12 * scale
            assert np.abs(s1.coeffs - s0.coeffs).max() < 1e-12
            rabi0, rabi1 = rabi_frequencies(s0.energies), rabi_frequencies(s1.energies)
            assert np.abs(rabi1 - rabi0).max() < 1e-12 * scale
            for lam0, lam1 in zip(weighting_amplitudes(s0.coeffs),
                                  weighting_amplitudes(s1.coeffs)):
                assert np.abs(lam1 - lam0).max() < 1e-12


class TestJacobi:
    def test_matches_numpy_on_random_symmetric(self):
        """The cyclic Jacobi on the model's own blocks, the inputs it is
        the eigenvalue reference for: diagonals near n, couplings down to
        1e-4, so the tolerance is scaled by the block norm."""
        rng = np.random.default_rng(61)
        for b in random_blocks(rng, 200)[0]:
            scale = np.linalg.norm(b)
            w, V = jacobi_eigh_cyclic(b)
            np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(b),
                                       rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(V @ np.diag(w) @ V.T, b, atol=1e-12 * scale)
            np.testing.assert_allclose(V.T @ V, np.eye(3), atol=1e-12)


class TestRandomBlocks:
    def test_rows_are_build_block_of_the_drawn_numbers(self):
        """The drawn stack comes from the one block formula: every row is
        build_block of a ModelParams holding that row's numbers, bit for bit."""
        numbers, buck, n = _random_numbers(np.random.default_rng(71), 400)
        H, n_drawn = random_blocks(np.random.default_rng(71), 400)
        np.testing.assert_array_equal(n_drawn, n)
        assert H.shape == (400, 3, 3) and buck.any() and not buck.all()
        for i in range(400):
            p = ModelParams(omega0=1.0, h_kind=H_KERR,
                            f_kind=F_BUCK_SUKUMAR if buck[i] else F_LINEAR,
                            **{key: float(v[i]) for key, v in numbers.items()})
            np.testing.assert_array_equal(H[i], build_block(p, int(n[i])))


def assert_rows_identical(a, b):
    """Every field of two spectrum rows bit-equal."""
    for f in fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


def near_degenerate_blocks(count=200, seed=83):
    """Blocks with d1 = d0 + O(s) and couplings O(s), s in [1e-12, 1e-7]:
    the adjugate rows fail the quality check, so every one falls back."""
    rng = np.random.default_rng(seed)
    s = 10.0 ** rng.uniform(-12, -7, count)
    H = np.zeros((count, 3, 3))
    d0 = rng.uniform(-1, 1, count)
    H[:, 0, 0] = d0
    H[:, 1, 1] = d0 + s * rng.uniform(-1, 1, count)
    H[:, 2, 2] = rng.uniform(-1, 1, count)
    H[:, 0, 1] = H[:, 1, 0] = s * rng.uniform(-1, 1, count)
    H[:, 1, 2] = H[:, 2, 1] = s * rng.uniform(-1, 1, count)
    return H


class TestSpectrumTable:
    CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                            "configs", "*.json")))

    @pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
    def test_rows_equal_single_block_solves(self, path):
        for curve in load_config(path).curves:
            table = spectrum_table(curve.params, curve.n_max)
            assert len(table) == curve.n_max + 1
            np.testing.assert_array_equal(table.n, np.arange(curve.n_max + 1))
            # every third row and the last eight: vector loops handle an array tail apart
            for k in sorted({*range(0, len(table), 3), *range(len(table) - 8, len(table))}):
                row = block_spectrum(curve.params, k)
                assert row.n == k and row.energies.shape == (3,)
                assert_rows_identical(table[k], row)

    def test_fallback_only_on_the_decoupled_row(self):
        rng = np.random.default_rng(67)
        healthy = list(zip(*random_blocks(rng, 4)))
        decoupled = (np.diag([0.3, -0.2, 0.45]), 0)
        blocks = healthy[:2] + [decoupled] + healthy[2:]
        table = solve_blocks(np.stack([H for H, _ in blocks]),
                             np.array([n for _, n in blocks]))
        np.testing.assert_array_equal(table.used_fallback,
                                      [False, False, True, False, False])
        alone = solve_blocks(*decoupled)
        assert alone.used_fallback
        np.testing.assert_array_equal(table.coeffs[2], alone.coeffs)
        for k, block in zip((0, 1, 3, 4), healthy):
            assert_rows_identical(table[k], solve_blocks(*block))

    @pytest.mark.parametrize("matrix", [
        np.diag([0.3, -0.2, 0.45]),
        # the negative coupling makes eigh's sign disagree with one adjugate row
        [[0.2, 0.0, 0.0], [0.0, 0.2, -0.35], [0.0, -0.35, 0.2]],
        near_degenerate_blocks(),
    ], ids=["decoupled", "repeated_diagonal", "near_degenerate_stack"])
    def test_fallback_rows_match_the_cyclic_jacobi(self, matrix):
        H = np.asarray(matrix, dtype=float).reshape(-1, 3, 3)
        table = solve_blocks(H, np.arange(len(H)))
        assert table.used_fallback.all()
        w, _ = jacobi_eigh_cyclic(H)
        for block, C, E, exact in zip(H, table.coeffs, table.energies, w):
            scale = max(1.0, np.linalg.norm(block))
            assert np.abs(np.sort(E) - np.sort(exact)).max() <= 1e-12 * scale
            # the eigenvalue each row carries, not only the Cardano labels
            assert np.abs(np.sort(np.diag(C @ block @ C.T)) - np.sort(exact)).max() <= 1e-12 * scale
            np.testing.assert_allclose(C.T @ np.diag(E) @ C, block, rtol=0, atol=1e-12 * scale)
            assert E[0] >= E[2] >= E[1]
            # sign rule: along the adjugate row, else first nonzero entry positive
            for ref, c in zip(_adjugate_rows(block, E), C):
                s = ref @ c
                assert s > 0.0 or (s == 0.0 and c[np.flatnonzero(c)[0]] > 0.0)


class TestLargeEntries:
    """Blocks are solved as 2^-e H: above entries of about 1e52 the cubic's
    Q^3 would overflow, and the energies came out wrong under exit 0."""

    @pytest.mark.parametrize("kappa", [1e52, 1e100, 1e200])
    def test_scaled_eigenvalue_error(self, kappa):
        params = ModelParams(omega0=1.0, g=1e-3, kappa=kappa, f_kind=F_BUCK_SUKUMAR)
        table = spectrum_table(params, 30)
        H = build_block(params, np.arange(31))
        # the Jacobi's A * A tolerance overflows near 1e154: it gets the same 2^-e H
        e = np.frexp(np.abs(H).max(axis=(1, 2)))[1]
        w = jacobi_eigh_cyclic(np.ldexp(H, -e[:, None, None]))[0]
        scaled = np.ldexp(table.energies, -e[:, None])
        err = np.abs(np.sort(scaled, axis=1) - np.sort(w, axis=1)).max()
        assert err < 1e-9
        assert np.all(np.isfinite(table.coeffs))
        rabi = rabi_frequencies(table.energies)
        assert np.all(np.isfinite(rabi))
        # the trigonometric route in the frame solve_blocks solves in
        inter = cardano(np.ldexp(H, -e[:, None, None]))
        trig = np.ldexp(rabi_frequencies_trig(inter), e[:, None])
        assert (np.abs(trig - rabi) / np.abs(rabi).max(axis=1, keepdims=True)).max() < 1e-9


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_non_finite_block_trips_the_guard(self, where, value):
        # a NaN off the diagonal gave finite energies, one on it LAPACK's
        # LinAlgError from the fallback
        H = build_block(ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR), np.arange(4)).copy()
        H[(2,) + where] = value
        with pytest.raises(NumericalGuardError, match="non-finite"):
            solve_blocks(H, np.arange(4))


class TestDegeneracy:
    """The triple-root flag -Q <= 1e-14 max|H|^2 is read from the block
    alone, so it scales exactly as the block does."""

    @pytest.mark.parametrize("k", [-40, 40])
    def test_flag_is_unchanged_by_powers_of_two(self, k):
        rng = np.random.default_rng(79)
        drawn = random_blocks(rng, 2000)[0]
        # identities pushed off the triple root by 1e-9 .. 1e-5, across the threshold
        a = rng.normal(size=(400, 3, 3))
        eps = 10.0 ** rng.uniform(-9, -5, 400)[:, None, None]
        near = np.eye(3) + eps * (a + a.swapaxes(1, 2))
        H = np.concatenate([drawn, near])
        flags = cardano(H).degenerate
        assert not flags[:len(drawn)].any()
        assert flags[len(drawn):].any() and not flags[len(drawn):].all()
        np.testing.assert_array_equal(cardano(np.ldexp(H, k)).degenerate, flags)

    @pytest.mark.parametrize("c", [1e-300, 1.0, 1e300])
    def test_multiple_of_identity(self, c):
        row = solve_blocks(c * np.eye(3), 0)
        assert np.all(np.abs(row.energies - c) <= np.spacing(c))
