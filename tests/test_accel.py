"""The Jacobi eigensolver, the plain-Python reference behind the closed form."""

import numpy as np

from twojc.spectral import jacobi_eigh


def test_jacobi_kernel_python_path():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3))
    a = a + a.T
    w, v = jacobi_eigh(a.copy())
    np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(a), atol=1e-12)
    np.testing.assert_allclose(v @ np.diag(w) @ v.T, a, atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)
