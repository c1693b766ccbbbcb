import math
import warnings

import numpy as np
import pytest

from twojc import (F_BUCK_SUKUMAR, F_LINEAR, H_KERR, ModelParams, TwojcError,
                   approx_inversion, coherent_field, inversion_series,
                   spectrum_table, timescales)
from twojc.approx import kerr_weight_amplitudes


def make_kerr_params(x, g=1.0):
    return ModelParams(omega0=1.0, g=g, chi=x * g, kappa=x * g / 2.0,
                       h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)


class TestRegimeConstruction:
    def test_kerr_requires_locking(self):
        p = ModelParams(omega0=1.0, g=1.0, chi=0.02, kappa=0.02,
                        h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)
        with pytest.raises(TwojcError):
            approx_inversion(p, 20.0, 0.0)
        with pytest.raises(TwojcError):
            timescales(p, 20.0)

    def test_kerr_locked_accepted(self):
        # locked to within the 1e-12 relative tolerance
        p = ModelParams(omega0=1.0, g=1.0, chi=1 / 32, kappa=(1 / 64) * (1 + 1e-14),
                        h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)
        assert approx_inversion(p, 20.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_kerr_warns_for_large_x(self):
        with pytest.warns(UserWarning):
            approx_inversion(make_kerr_params(0.5), 20.0, 0.0)

    def test_standard_requires_small_coupling_ratio(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=1.2, f_kind=F_BUCK_SUKUMAR)
        with pytest.raises(TwojcError):
            approx_inversion(p, 20.0, 0.0)

    def test_sqrt_coupling_required(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_LINEAR)
        with pytest.raises(TwojcError):
            approx_inversion(p, 20.0, 0.0)

    def test_small_mean_rejected_or_warned(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        with pytest.raises(TwojcError):
            approx_inversion(p, 0.5, 0.0)
        with pytest.warns(UserWarning):
            approx_inversion(p, 5.0, 0.0)

    def test_resonance_required(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, delta=0.01,
                        f_kind=F_BUCK_SUKUMAR)
        with pytest.raises(TwojcError):
            approx_inversion(p, 20.0, 0.0)


class TestKerrApprox:
    def test_tau_zero_value(self):
        x = 1 / 32
        lam = kerr_weight_amplitudes(x)
        expect = (lam["lam_11"] + lam["lam_22"]
                  + 2.0 * (lam["lam_31"] + lam["lam_23"]))
        assert approx_inversion(make_kerr_params(x), 20.0, 0.0) \
            == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("x", [1 / 32, 0.25, 1.0])
    def test_tau_zero_is_one(self, x):
        # both atoms start excited, so the exact inversion reads 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # x > 0.1 warns on purpose
            assert approx_inversion(make_kerr_params(x), 20.0, 0.0) \
                == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("x", [0.0, 1 / 32, 0.25, 1.0, 3.0])
    def test_weights_complete(self, x):
        # sum_j lam_jj + 2 sum_{j<k} lam_jk = 1, the identity
        # check_spectral_identities holds the exact spectrum to
        lam = kerr_weight_amplitudes(x)
        total = (lam["lam_11"] + lam["lam_22"] + lam["lam_33"]
                 + 2.0 * (lam["lam_21"] + lam["lam_31"] + lam["lam_23"]))
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_error_on_c08_setup(self):
        params = make_kerr_params(1 / 32)
        field = coherent_field(20.0)
        tau = np.linspace(0.0, math.pi, 2001)
        exact = inversion_series(field, spectrum_table(params, field.n_max), tau)
        assert np.abs(approx_inversion(params, 20.0, tau) - exact).max() < 0.05

    def test_meets_standard_form_at_the_overlap(self):
        # chi = kappa - J = 0 is the standard form; a locked chi/g = 1e-300
        # takes the Kerr branch, where x^2 underflows and x drops out of
        # every sum, so the two branches evaluate the same function
        tau = np.linspace(0.0, 10.0, 400)
        p = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)
        assert np.array_equal(approx_inversion(make_kerr_params(1e-300), 20.0, tau),
                              approx_inversion(p, 20.0, tau))

    def test_zero_x_reduces_to_single_envelope_form(self):
        p = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)  # chi=0=kappa-J
        tau = np.linspace(0.0, 10.0, 400)
        got = approx_inversion(p, 20.0, tau)
        expect = np.exp(-2 * 20.0 * np.sin(tau) ** 2) \
            * np.cos(3 * tau + 20.0 * np.sin(2 * tau))
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_first_beat_node_in_formula(self):
        # revival amplitudes are minimal where the pair of cosines beats
        # out, first near pi / (6x)
        x = 1 / 32
        lam = kerr_weight_amplitudes(x)
        taus = math.pi * np.arange(1, 12)
        amp = np.abs(approx_inversion(make_kerr_params(x), 20.0, taus)
                     - lam["lam_11"] - lam["lam_22"])
        m_first = int(np.argmin(amp)) + 1
        assert abs(m_first * math.pi - math.pi / (6 * x)) <= 1.2 * math.pi

    def test_offset_grows_with_anharmonicity(self):
        offsets = [kerr_weight_amplitudes(x)["lam_11"]
                   + kerr_weight_amplitudes(x)["lam_22"]
                   for x in (1 / 32, 0.25, 1.0)]
        assert 0 < offsets[0] < offsets[1] < offsets[2]


class TestStandardApprox:
    def test_tau_zero_is_one(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        assert approx_inversion(p, 20.0, 0.0) == pytest.approx(1.0)

    def test_balanced_couplings_drop_beat_factor(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.3, J_ising=0.3,
                        f_kind=F_BUCK_SUKUMAR)
        tau = np.linspace(0.0, 12.0, 500)
        got = approx_inversion(p, 20.0, tau)
        expect = np.exp(-2 * 20.0 * np.sin(tau) ** 2) \
            * np.cos(3 * tau + 20.0 * np.sin(2 * tau))
        np.testing.assert_allclose(got, expect, atol=1e-14)

    def test_envelope_bound(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        tau = np.linspace(0.0, 50.0, 4000)
        vals = approx_inversion(p, 20.0, tau)
        env = np.exp(-2 * 20.0 * np.sin(tau) ** 2)
        assert np.all(np.abs(vals) <= env + 1e-15)

    def test_envelope_period_pi(self):
        tau = np.linspace(0.0, 2.0, 101)
        env = np.exp(-2 * 20.0 * np.sin(tau) ** 2)
        env_shift = np.exp(-2 * 20.0 * np.sin(tau + math.pi) ** 2)
        np.testing.assert_allclose(env, env_shift, rtol=1e-12)

    def test_validity_warning_far_out(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        with pytest.warns(UserWarning):
            approx_inversion(p, 20.0, 5000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            approx_inversion(p, 20.0, 4.0 * 20.0 ** 2)  # the window's own end

    def test_empty_tau_gives_empty_array(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        out = approx_inversion(p, 20.0, np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)


class TestTimescales:
    def test_collapse_time(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        assert timescales(p, 20.0).tau_collapse == pytest.approx(1.0 / math.sqrt(40.0))

    def test_revival_time_pi_both_regimes(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        assert timescales(p, 20.0).tau_revival == math.pi
        assert timescales(make_kerr_params(1 / 32), 20.0).tau_revival == math.pi

    def test_beat_period_standard(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        assert timescales(p, 20.0).beat_period == pytest.approx(8.0 * math.pi)

    def test_beat_period_kerr(self):
        ts = timescales(make_kerr_params(1 / 32), 20.0)
        assert ts.beat_period == pytest.approx(32.0 * math.pi / 3.0)

    def test_infinite_beat_without_detuning_pair(self):
        p = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)
        assert math.isinf(timescales(p, 20.0).beat_period)
