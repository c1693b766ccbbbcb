#!/usr/bin/env python3
"""Regenerate the frozen fixtures.

Expected values are produced by routes independent of the code paths
they later check: the approximation-window tolerance comes from the
brute-force sector propagator (never from the closed-form series), and
the scalar anchors come from scipy (Poisson pmf, matrix exponential).
Run from the repository root:

    python tools/make_fixtures.py
"""

import json
import math
import os
import sys

import numpy as np
import scipy.linalg
import scipy.stats

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from twojc import approx, dynamics, oracle  # noqa: E402
from twojc.model import F_BUCK_SUKUMAR, F_LINEAR, ModelParams  # noqa: E402
from twojc.validation import fixture_document  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), "..")


def approx_window_fixture():
    """Tolerance for the standard-cavity approximation over the trusted
    window, measured against the brute-force propagator."""
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.125, f_kind=F_BUCK_SUKUMAR)
    field = dynamics.coherent_field(20.0)
    H = oracle.build_joint_hamiltonian(params, field.n_max)
    prop = oracle.SectorPropagator(H, field.n_max)
    psi0 = oracle.joint_initial_state(field)
    regime = approx.standard_regime(params, field.mean_n)

    grid_points = 4001
    near = np.linspace(0.0, 16.0 * math.pi, grid_points)
    far = np.linspace(412.0 * math.pi, 420.0 * math.pi, grid_points)

    def oracle_series(taus):
        return np.array([oracle.inversion_of(prop.evolve(psi0, t)) for t in taus])

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        err_near = np.abs(approx.standard_approx_inversion(regime, near)
                          - oracle_series(near))
        err_far = np.abs(approx.standard_approx_inversion(regime, far)
                         - oracle_series(far))
    near_max = float(err_near.max())
    far_max = float(err_far.max())
    payload = {
        "description": "max |approx - exact| of the inversion, sqrt coupling, "
                       "(kappa-J)/g = 1/8, chi = 0, mean_n = 20, both excited",
        "near_window": [0.0, 16.0 * math.pi],
        "far_window": [412.0 * math.pi, 420.0 * math.pi],
        "grid_points": grid_points,
        # informational, and rounded like tolerance so that a last-bit move of
        # the oracle does not change the fixture
        "measured_near_max": round(near_max, 12),
        "measured_far_max": round(far_max, 12),
        # 2% headroom over the measured value absorbs grid sensitivity
        "tolerance": round(near_max * 1.02, 6),
        "generator": "tools/make_fixtures.py",
    }
    print(f"approx window: near_max={near_max:.6f} far_max={far_max:.6f} "
          f"tolerance={payload['tolerance']}")
    return payload


def derived_values_fixture():
    """Scalar anchors computed with scipy, frozen for the unit tests."""
    p10 = float(scipy.stats.poisson.pmf(10, 10.0))

    # n = 0 block, linear coupling, g = 1: branch coefficients at
    # t = pi/sqrt(6) from the matrix exponential of the 3x3 block
    H = np.array([[0.0, math.sqrt(2.0), 0.0],
                  [math.sqrt(2.0), 0.0, 2.0],
                  [0.0, 2.0, 0.0]])
    t = math.pi / math.sqrt(6.0)
    U = scipy.linalg.expm(-1j * H * t)
    coeffs = U[:, 0]  # evolution of the first basis state
    payload = {
        "poisson_p10_mean10": p10,
        "n0_linear_time": t,
        "n0_linear_coeffs_re": [float(c.real) for c in coeffs],
        "n0_linear_coeffs_im": [float(c.imag) for c in coeffs],
        "generator": "tools/make_fixtures.py",
    }
    print(f"poisson P_10 = {p10:.12f}; |D|^2 sum = {float(np.sum(np.abs(coeffs)**2)):.15f}")
    return payload


def write(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(fixture_document(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main():
    write(os.path.join(ROOT, "src", "twojc", "fixtures", "approx_window.json"),
          approx_window_fixture())
    write(os.path.join(ROOT, "tests", "fixtures", "derived_values.json"),
          derived_values_fixture())


if __name__ == "__main__":
    main()
