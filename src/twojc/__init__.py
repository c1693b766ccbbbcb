"""Two interacting two-level atoms in a nonlinear cavity.

Closed-form block diagonalization of the symmetric sector, analytic
observables (inversion, purity, concurrence, entropy, Husimi Q),
large-n approximations with collapse/revival timescales, and an
independent brute-force oracle for cross-validation.
"""

from .model import (FKind, HKind, ModelParams, NonlinearitySelector,
                    F_BUCK_SUKUMAR, F_LINEAR, H_KERR, H_STANDARD,
                    build_block, eval_f, eval_h, ladder_factor, validity_ratios)
from .spectral import (CardanoIntermediates, SpectrumTable, block_spectrum,
                       cardano, eigenvalues, eigenvector_coeffs,
                       rabi_frequencies, rabi_frequencies_trig, solve_blocks,
                       spectrum_table, weighting_amplitudes)
from .dynamics import (AtomInit, FieldInit, QGrid, auto_n_max, coherent_field,
                       concurrence, embed_atom_density,
                       evolve_coeffs, field_entropy, husimi_grid, husimi_q,
                       inversion_series, observable_series, purity,
                       reduced_atom_density, reduced_field_density)
from .approx import Timescales, approx_inversion, timescales
from .errors import ConfigError, NumericalGuardError, TruncationError, TwojcError

__version__ = "0.1.0"
