"""Edge inputs of the cyclic Jacobi, the LAPACK-free eigensolver (for a
matrix or a stack) that the closed form and the LAPACK fallback are
checked against."""

import numpy as np

from twojc.oracle import jacobi_eigh_cyclic

EDGE_INPUTS = {
    "diagonal": np.diag([0.3, -1.2, 0.3]),            # no rotation needed
    "rank_one": np.full((3, 3), 0.5),                 # eigenvalue 0 twice
    "tiny_offdiag": np.eye(4) + 1e-15 * np.ones((4, 4)),  # under the tolerance
    "near_degenerate": np.array([[2.0, 1e-9], [1e-9, 2.0]]),
    "one_by_one": np.array([[0.7]]),
}


def test_jacobi_kernel_python_path():
    for name, a in EDGE_INPUTS.items():
        w, v = jacobi_eigh_cyclic(a.copy())
        np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(a), atol=1e-12,
                                   err_msg=name)
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, a, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(v.T @ v, np.eye(len(a)), atol=1e-12, err_msg=name)
