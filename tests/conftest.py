import pytest

from twojc import dynamics
from twojc import (F_BUCK_SUKUMAR, F_LINEAR, ModelParams, coherent_field,
                   spectrum_table)
from twojc.dynamics import AtomInit


@pytest.fixture(scope="session")
def params_linear():
    """Resonant, linear coupling, bare cavity."""
    return ModelParams(omega0=1.0, g=1.0, f_kind=F_LINEAR)


@pytest.fixture(scope="session")
def params_bs_quarter():
    """sqrt coupling, (kappa - J)/g = 1/4, resonant bare cavity."""
    return ModelParams(omega0=1.0, g=1.0, kappa=0.25, f_kind=F_BUCK_SUKUMAR)


@pytest.fixture(scope="session")
def small_system(params_bs_quarter):
    """mean_n = 3 field with matching spectra; cheap enough for oracles."""
    field = coherent_field(3.0, n_max=30)
    spectra = spectrum_table(params_bs_quarter, 30)
    return params_bs_quarter, field, spectra


@pytest.fixture(scope="session")
def symmetric_system(params_bs_quarter):
    field = coherent_field(3.0, n_max=30, atom_init=AtomInit.SYMMETRIC)
    spectra = spectrum_table(params_bs_quarter, 30)
    return params_bs_quarter, field, spectra


@pytest.fixture
def windows(monkeypatch):
    """The sample slice of each rho_A window the dynamics hands on, in order."""
    seen = []
    density_windows = dynamics._density_windows

    def recorded(*args):
        for window in density_windows(*args):
            seen.append(window[0])
            yield window

    monkeypatch.setattr(dynamics, "_density_windows", recorded)
    return seen
