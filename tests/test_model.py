import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twojc import (F_BUCK_SUKUMAR, F_LINEAR, H_KERR, H_STANDARD, FKind, HKind,
                   ModelParams, NonlinearitySelector, NumericalGuardError,
                   TwojcError, build_block, eval_f, eval_h, ladder_factor,
                   validity_ratios)

SQRT2 = math.sqrt(2.0)


class TestNonlinearities:
    def test_standard_h_is_one(self):
        p = ModelParams(omega0=1.0, g=0.1)
        for n in (0, 1, 5, 40):
            assert eval_h(H_STANDARD, p, n) == 1.0

    def test_kerr_h_direct(self):
        p = ModelParams(omega0=1.0, g=0.1, chi=0.1, h_kind=H_KERR)
        assert eval_h(H_KERR, p, 5) == pytest.approx(1.5, abs=1e-15)

    def test_kerr_h_reduces_to_standard_at_zero_chi(self):
        p = ModelParams(omega0=1.0, g=0.1, chi=0.0)
        assert eval_h(H_KERR, p, 7) == 1.0

    def test_ladder_linear(self):
        assert ladder_factor(F_LINEAR, 4) == pytest.approx(2.0)

    def test_ladder_sqrt_coupling(self):
        assert ladder_factor(F_BUCK_SUKUMAR, 4) == 4.0
        assert ladder_factor(F_BUCK_SUKUMAR, 1) == 1.0

    @given(st.integers(min_value=1, max_value=10**6))
    def test_ladder_sqrt_coupling_exact_integers(self, m):
        assert ladder_factor(F_BUCK_SUKUMAR, m) == float(m)

    def test_ladder_domain_error(self):
        with pytest.raises(TwojcError):
            ladder_factor(F_LINEAR, 0)
        with pytest.raises(TwojcError):
            ladder_factor(F_BUCK_SUKUMAR, -3)

    def test_custom_table(self):
        sel = NonlinearitySelector(FKind.CUSTOM, custom_table=(1.0, 2.0, 3.0))
        assert eval_f(sel, 2) == 3.0
        with pytest.raises(TwojcError):
            eval_f(sel, 3)

    def test_custom_h_table(self):
        sel = NonlinearitySelector(HKind.CUSTOM, custom_table=(1.0, 1.1, 1.2))
        p = ModelParams(omega0=1.0, g=0.1, h_kind=sel)
        assert eval_h(sel, p, 1) == pytest.approx(1.1)
        with pytest.raises(TwojcError):
            eval_h(sel, p, 5)

    def test_custom_needs_table(self):
        with pytest.raises(TwojcError):
            NonlinearitySelector(FKind.CUSTOM)

    def test_table_forbidden_for_named_kinds(self):
        with pytest.raises(TwojcError):
            NonlinearitySelector(FKind.LINEAR, custom_table=(1.0,))


class TestModelParams:
    def test_delta_defaults_to_resonance(self):
        p = ModelParams(omega0=2.0, g=0.1)
        assert p.delta == 0.0
        assert p.omega == 2.0

    def test_delta_from_omega(self):
        p = ModelParams(omega0=2.0, g=0.1, omega=2.5)
        assert p.delta == 0.5

    def test_omega_from_delta(self):
        p = ModelParams(omega0=2.0, g=0.1, delta=-0.25)
        assert p.omega == 1.75
        assert p.delta == -0.25

    def test_inconsistent_triple_rejected(self):
        with pytest.raises(TwojcError):
            ModelParams(omega0=2.0, g=0.1, omega=2.5, delta=0.1)

    def test_consistent_triple_accepted(self):
        p = ModelParams(omega0=2.0, g=0.1, omega=2.5, delta=0.5)
        assert p.delta == 0.5

    @pytest.mark.parametrize("kw", [
        {"omega0": 0.0, "g": 0.1},
        {"omega0": 1.0, "g": 0.0},
        {"omega0": 1.0, "g": -1.0},
        {"omega0": 1.0, "g": 0.1, "chi": -0.1},
        {"omega0": 1.0, "g": 0.1, "kappa": math.inf},
        {"omega0": 1.0, "g": 0.1, "J_ising": math.nan},
        {"omega0": math.inf, "g": 0.1},
        {"omega0": 1.0, "g": math.inf},
        {"omega0": 1.0, "g": 0.1, "chi": math.inf},
        {"omega0": 1.0, "g": 0.1, "delta": math.nan},
        {"omega0": 1.0, "g": 0.1, "omega": -math.inf},
        {"omega0": 1e308, "g": 0.1, "delta": 1e308},  # omega overflows
        {"omega0": 1.0, "g": 0.1, "chi": 0.1},  # no Kerr term in a standard cavity
        {"omega0": 1.0, "g": 0.1, "chi": 0.1,
         "h_kind": NonlinearitySelector(HKind.CUSTOM, (1.0, 1.1, 1.2))},
    ])
    def test_invalid_params_rejected(self, kw):
        with pytest.raises(TwojcError):
            ModelParams(**kw)


class TestBuildBlock:
    def test_n0_linear_bare(self):
        g = 0.7
        p = ModelParams(omega0=1.0, g=g, f_kind=F_LINEAR)
        b = build_block(p, 0)
        expect = g * np.array([[0.0, SQRT2, 0.0],
                               [SQRT2, 0.0, 2.0],
                               [0.0, 2.0, 0.0]])
        np.testing.assert_allclose(b.matrix, expect, atol=1e-15)

    def test_n0_sqrt_coupling_bare(self):
        g = 0.7
        p = ModelParams(omega0=1.0, g=g, f_kind=F_BUCK_SUKUMAR)
        b = build_block(p, 0)
        expect = g * np.array([[0.0, SQRT2, 0.0],
                               [SQRT2, 0.0, 2.0 * SQRT2],
                               [0.0, 2.0 * SQRT2, 0.0]])
        np.testing.assert_allclose(b.matrix, expect, atol=1e-15)
        assert b.f_np1 == 1.0
        assert b.f_np2 == 2.0

    def test_n3_kerr_block_against_independent_factors(self):
        # independent re-computation of the diagonal shifts (n+i)(h(n+i)-1)
        omega0, chi_ratio, g, n = 2.0, 0.01, 0.05, 3
        p = ModelParams(omega0=omega0, g=g, chi=chi_ratio * omega0, h_kind=H_KERR,
                        f_kind=F_LINEAR)
        b = build_block(p, n)
        for i in range(3):
            m = n + i
            h_m = 1.0 + chi_ratio * m
            shift = omega0 * m * (h_m - 1.0)
            assert b.matrix[i, i] == pytest.approx(shift, rel=1e-14)
        assert b.matrix[0, 0] == pytest.approx(omega0 * 0.09, rel=1e-12)
        assert b.matrix[1, 1] == pytest.approx(omega0 * 0.16, rel=1e-12)
        assert b.matrix[2, 2] == pytest.approx(omega0 * 0.25, rel=1e-12)
        assert b.matrix[0, 1] == pytest.approx(SQRT2 * g * 2.0, rel=1e-14)
        assert b.matrix[1, 2] == pytest.approx(SQRT2 * g * math.sqrt(5.0), rel=1e-14)

    @given(
        g=st.floats(min_value=1e-4, max_value=1.0),
        kappa=st.floats(min_value=-2.0, max_value=2.0),
        J=st.floats(min_value=-2.0, max_value=2.0),
        delta=st.floats(min_value=-1.0, max_value=1.0),
        chi=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=0, max_value=120),
        sqrt_coupling=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_symmetric_tridiagonal(self, g, kappa, J, delta, chi, n,
                                         sqrt_coupling):
        p = ModelParams(omega0=1.0, g=g, kappa=kappa, J_ising=J, delta=delta,
                        chi=chi, h_kind=H_KERR,
                        f_kind=F_BUCK_SUKUMAR if sqrt_coupling else F_LINEAR)
        m = build_block(p, n).matrix
        assert m[0, 2] == 0.0 and m[2, 0] == 0.0
        np.testing.assert_array_equal(m, m.T)
        assert m[0, 1] == pytest.approx(SQRT2 * g * ladder_factor(p.f_kind, n + 1))
        assert m[1, 2] == pytest.approx(SQRT2 * g * ladder_factor(p.f_kind, n + 2))

    @given(
        kappa=st.floats(min_value=-1.0, max_value=1.0),
        J=st.floats(min_value=-1.0, max_value=1.0),
        c=st.floats(min_value=-3.0, max_value=3.0),
        n=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=120, deadline=None)
    def test_equal_shift_of_both_couplings_adds_identity(self, kappa, J, c, n):
        base = ModelParams(omega0=1.0, g=0.3, kappa=kappa, J_ising=J,
                           f_kind=F_BUCK_SUKUMAR)
        shifted = ModelParams(omega0=1.0, g=0.3, kappa=kappa + c, J_ising=J + c,
                              f_kind=F_BUCK_SUKUMAR)
        m0 = build_block(base, n).matrix
        m1 = build_block(shifted, n).matrix
        np.testing.assert_allclose(m1, m0 + c * np.eye(3), atol=1e-13)

    def test_bare_cavity_diagonal_is_couplings_only(self):
        p = ModelParams(omega0=1.0, g=0.2, kappa=0.4, J_ising=0.1)
        m = build_block(p, 7).matrix
        np.testing.assert_allclose(np.diag(m), [0.1, 2 * 0.4 - 0.1, 0.1],
                                   atol=1e-15)

    def test_overflowing_entries_name_their_block(self):
        p = ModelParams(omega0=1.0, g=0.1, chi=1e306, h_kind=H_KERR)
        build_block(p, np.arange(12))  # (n + 2)^2 chi stays finite up to n = 11
        with pytest.raises(NumericalGuardError, match="block n = 12: non-finite"):
            build_block(p, np.arange(20))
        with pytest.raises(NumericalGuardError, match="block n = 12: non-finite"):
            build_block(p, 12)

    def test_negative_photon_index_rejected(self):
        p = ModelParams(omega0=1.0, g=0.2)
        with pytest.raises(TwojcError):
            build_block(p, -1)

    def test_custom_h_table_reproduces_kerr_block(self):
        omega0, chi, g, n = 2.0, 0.03, 0.1, 4
        kerr = ModelParams(omega0=omega0, g=g, chi=chi, h_kind=H_KERR,
                           f_kind=F_BUCK_SUKUMAR)
        table = tuple(1.0 + (chi / omega0) * m for m in range(n + 3))
        custom = ModelParams(
            omega0=omega0, g=g,
            h_kind=NonlinearitySelector(HKind.CUSTOM, custom_table=table),
            f_kind=F_BUCK_SUKUMAR)
        np.testing.assert_allclose(build_block(custom, n).matrix,
                                   build_block(kerr, n).matrix, rtol=1e-13)

    def test_custom_f_table_reproduces_sqrt_coupling(self):
        g, n = 0.4, 2
        table = tuple(math.sqrt(m) for m in range(n + 3))
        custom = ModelParams(
            omega0=1.0, g=g,
            f_kind=NonlinearitySelector(FKind.CUSTOM, custom_table=table))
        ref = ModelParams(omega0=1.0, g=g, f_kind=F_BUCK_SUKUMAR)
        np.testing.assert_allclose(build_block(custom, n).matrix,
                                   build_block(ref, n).matrix, rtol=1e-13)

    def test_index_array_builds_every_block(self):
        h_table = NonlinearitySelector(HKind.CUSTOM, tuple(1.0 + 0.01 * m for m in range(9)))
        f_table = NonlinearitySelector(FKind.CUSTOM, tuple(math.sqrt(m) for m in range(9)))
        for p in (ModelParams(omega0=1.0, g=0.3, kappa=0.2, chi=0.05, delta=0.1,
                              h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR),
                  ModelParams(omega0=2.0, g=0.3, h_kind=h_table, f_kind=f_table)):
            stacked = build_block(p, np.arange(7))
            assert stacked.matrix.shape == (7, 3, 3)
            for n in range(7):
                single = build_block(p, n)
                np.testing.assert_array_equal(stacked.matrix[n], single.matrix)
                assert stacked.f_np1[n] == single.f_np1
                assert stacked.f_np2[n] == single.f_np2
        with pytest.raises(TwojcError, match="index 9 out of range"):
            build_block(ModelParams(omega0=1.0, g=0.3, f_kind=f_table), np.arange(8))


def test_validity_ratios_reports_small_numbers():
    p = ModelParams(omega0=1.0, g=5e-4, f_kind=F_BUCK_SUKUMAR)
    weights = np.zeros(31)
    weights[10] = 1.0
    ratios = validity_ratios(p, weights)
    assert 0 < ratios["g_f_over_omega0_h"] < 0.01
    assert 0 < ratios["g_f_over_omega"] < 0.01
