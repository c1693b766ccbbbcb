import math

import numpy as np
import pytest

from twojc import (F_BUCK_SUKUMAR, F_LINEAR, H_KERR, ModelParams, TwojcError,
                   kerr_approx_inversion, standard_approx_inversion, timescales)
from twojc.approx import (RegimeKind, kerr_regime, kerr_weight_amplitudes,
                          standard_regime)


def make_kerr_params(x, g=1.0):
    return ModelParams(omega0=1.0, g=g, chi=x * g, kappa=x * g / 2.0,
                       h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)


class TestRegimeConstruction:
    def test_kerr_requires_locking(self):
        p = ModelParams(omega0=1.0, g=1.0, chi=0.02, kappa=0.02,
                        h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)
        with pytest.raises(TwojcError):
            kerr_regime(p, 20.0)

    def test_kerr_locked_accepted(self):
        r = kerr_regime(make_kerr_params(1 / 32), 20.0)
        assert r.kind is RegimeKind.KERR_LOCKED
        assert r.x == pytest.approx(1 / 32)
        dplus = 22.0 ** 2 + 21.0 ** 2
        assert r.phi == pytest.approx(math.sqrt(2) * 21.0 ** 2 / math.sqrt(dplus))

    def test_kerr_warns_for_large_x(self):
        with pytest.warns(UserWarning):
            kerr_regime(make_kerr_params(0.5), 20.0)

    def test_standard_requires_bare_cavity(self):
        p = ModelParams(omega0=1.0, g=1.0, chi=0.1, kappa=0.05,
                        h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)
        with pytest.raises(TwojcError):
            standard_regime(p, 20.0)

    def test_standard_requires_small_coupling_ratio(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=1.2, f_kind=F_BUCK_SUKUMAR)
        with pytest.raises(TwojcError):
            standard_regime(p, 20.0)

    def test_sqrt_coupling_required(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_LINEAR)
        with pytest.raises(TwojcError):
            standard_regime(p, 20.0)

    def test_small_mean_rejected_or_warned(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        with pytest.raises(TwojcError):
            standard_regime(p, 0.5)
        with pytest.warns(UserWarning):
            standard_regime(p, 5.0)


class TestKerrApprox:
    def test_tau_zero_value(self):
        x = 1 / 32
        r = kerr_regime(make_kerr_params(x), 20.0)
        lam = kerr_weight_amplitudes(x)
        expect = (lam["lam_11"] + lam["lam_22"] + lam["lam_31"] + lam["lam_23"])
        assert kerr_approx_inversion(r, 0.0) == pytest.approx(expect, abs=1e-14)

    def test_zero_x_reduces_to_single_envelope_form(self):
        p = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)  # chi=0=kappa-J
        r = kerr_regime(p, 20.0)
        tau = np.linspace(0.0, 10.0, 400)
        got = kerr_approx_inversion(r, tau)
        expect = 0.5 * np.exp(-2 * 20.0 * np.sin(tau) ** 2) \
            * np.cos(3 * tau + 20.0 * np.sin(2 * tau))
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_first_beat_node_in_formula(self):
        # revival amplitudes are minimal where the pair of cosines beats
        # out, first near pi / (6x)
        x = 1 / 32
        r = kerr_regime(make_kerr_params(x), 20.0)
        lam = kerr_weight_amplitudes(x)
        taus = math.pi * np.arange(1, 12)
        amp = np.abs(kerr_approx_inversion(r, taus)
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
        r = standard_regime(p, 20.0)
        assert standard_approx_inversion(r, 0.0) == pytest.approx(1.0)

    def test_balanced_couplings_drop_beat_factor(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.3, J_ising=0.3,
                        f_kind=F_BUCK_SUKUMAR)
        r = standard_regime(p, 20.0)
        tau = np.linspace(0.0, 12.0, 500)
        got = standard_approx_inversion(r, tau)
        expect = np.exp(-2 * 20.0 * np.sin(tau) ** 2) \
            * np.cos(3 * tau + 20.0 * np.sin(2 * tau))
        np.testing.assert_allclose(got, expect, atol=1e-14)

    def test_envelope_bound(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        r = standard_regime(p, 20.0)
        tau = np.linspace(0.0, 50.0, 4000)
        vals = standard_approx_inversion(r, tau)
        env = np.exp(-2 * 20.0 * np.sin(tau) ** 2)
        assert np.all(np.abs(vals) <= env + 1e-15)

    def test_envelope_period_pi(self):
        tau = np.linspace(0.0, 2.0, 101)
        env = np.exp(-2 * 20.0 * np.sin(tau) ** 2)
        env_shift = np.exp(-2 * 20.0 * np.sin(tau + math.pi) ** 2)
        np.testing.assert_allclose(env, env_shift, rtol=1e-12)

    def test_validity_warning_far_out(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        r = standard_regime(p, 20.0)
        with pytest.warns(UserWarning):
            standard_approx_inversion(r, 5000.0)


class TestTimescales:
    def test_collapse_time(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        ts = timescales(standard_regime(p, 20.0))
        assert ts.tau_collapse == pytest.approx(1.0 / math.sqrt(40.0))

    def test_revival_time_pi_both_regimes(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        assert timescales(standard_regime(p, 20.0)).tau_revival == math.pi
        assert timescales(kerr_regime(make_kerr_params(1 / 32), 20.0)).tau_revival \
            == math.pi

    def test_beat_period_standard(self):
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
        assert timescales(standard_regime(p, 20.0)).beat_period == \
            pytest.approx(8.0 * math.pi)

    def test_beat_period_kerr(self):
        ts = timescales(kerr_regime(make_kerr_params(1 / 32), 20.0))
        assert ts.beat_period == pytest.approx(32.0 * math.pi / 3.0)

    def test_infinite_beat_without_detuning_pair(self):
        p = ModelParams(omega0=1.0, g=1.0, f_kind=F_BUCK_SUKUMAR)
        assert math.isinf(timescales(standard_regime(p, 20.0)).beat_period)
