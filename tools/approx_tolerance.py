#!/usr/bin/env python3
"""Measure the approximation-window tolerance and print it.

`validation.check_approx_window` holds the standard form's inversion error
on the beat reference setup to `validation.APPROX_TOLERANCE` over
`NEAR_WINDOW`.  This measures that error again over the same windows, by a
route independent of the closed-form series the check reads: the exact
inversion comes from the brute-force sector propagator.  The tolerance is
the near-window error plus 2 % headroom for grid sensitivity, rounded to 6
decimals so that a last-bit move of the oracle does not change it.  Run
from the repository root:

    python3 tools/approx_tolerance.py
"""

import os
import sys
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from twojc import approx, oracle, validation  # noqa: E402


def measure():
    """(near-window error, far-window error, tolerance) of the standard
    form against the sector propagator."""
    params, field, _ = validation.beat_reference_setup()
    H = oracle.build_joint_hamiltonian(params, field.n_max)
    prop = oracle.SectorPropagator(H, field.n_max)
    psi0 = oracle.joint_initial_state(field)
    errors = []
    for window in (validation.NEAR_WINDOW, validation.FAR_WINDOW):
        times = np.linspace(*window, validation.APPROX_GRID_POINTS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the far window is outside validity on purpose
            errors.append(float(np.abs(approx.approx_inversion(params, field.mean_n, times)
                                       - oracle.inversion_of(prop.evolve(psi0, times))).max()))
    near_max, far_max = errors
    return near_max, far_max, round(near_max * 1.02, 6)


def main():
    near_max, far_max, tolerance = measure()
    print(f"near_max={near_max:.12f} far_max={far_max:.12f} tolerance={tolerance}")


if __name__ == "__main__":
    main()
