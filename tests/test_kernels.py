"""The batched numpy kernels against per-sample and single-point references."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import twojc
from twojc import dynamics
from twojc import (F_BUCK_SUKUMAR, ModelParams, coherent_field, concurrence,
                   husimi_grid, husimi_q, jacobi_eigh, observable_series,
                   reduced_atom_density)
from twojc.dynamics import (FieldDensity, _bargmann_factors, embed_atom_density,
                            entropy_of_eigvals, hermitian_eigvals)
from twojc.oracle import (build_joint_hamiltonian, evolve_numeric,
                          evolve_numeric_sampled, joint_initial_state)


def random_densities(rng, count, dim, rank=None):
    rank = dim if rank is None else rank
    a = (rng.normal(size=(count, dim, rank))
         + 1j * rng.normal(size=(count, dim, rank)))
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def jacobi_entropy(rho):
    """Per-matrix reference: real symmetric embedding, Jacobi, each
    eigenvalue of the embedding taken once."""
    emb = np.block([[rho.real, -rho.imag], [rho.imag, rho.real]])
    w, _ = jacobi_eigh(emb)
    return entropy_of_eigvals(np.sort(w)[::2])


class TestHusimiGrid:
    @pytest.mark.parametrize("n_max", [12, 40])
    def test_matches_single_point_on_random_rank3(self, n_max):
        rng = np.random.default_rng(n_max)
        M = n_max + 3
        chi = rng.normal(size=(3, M)) + 1j * rng.normal(size=(3, M))
        chi /= math.sqrt(np.sum(np.abs(chi) ** 2))
        rho = FieldDensity(matrix=chi.T @ chi.conj(), factors=chi)
        # the grid corners sit on the edge of the trusted window
        half = math.sqrt(0.25 * n_max) * (1.0 - 1e-12)
        re_axis = np.linspace(-half, half, 9)
        im_axis = np.linspace(-half, half, 7)
        ref = np.array([[husimi_q(rho, complex(re, im)) for re in re_axis]
                        for im in im_axis])
        from_factors = husimi_grid(rho, re_axis, im_axis).values
        from_matrix = husimi_grid(rho.matrix, re_axis, im_axis).values
        np.testing.assert_allclose(from_factors, ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(from_matrix, ref, rtol=0, atol=1e-14)

    def test_matches_single_point_beyond_double_range(self):
        # |alpha|^2 > 1400: the unscaled Horner sums e^{|alpha|^2/2} overflow
        n_max = 2900
        rng = np.random.default_rng(7)
        chi = np.zeros((3, n_max + 3))
        chi[:, 1300:1600] = rng.normal(size=(3, 300))
        chi /= math.sqrt(np.sum(chi ** 2))
        rho = FieldDensity(matrix=chi.T @ chi, factors=chi)
        re_axis = np.linspace(36.0, 38.0, 3)
        im_axis = np.linspace(-1.5, 1.5, 3)
        grid = husimi_grid(rho, re_axis, im_axis).values
        ref = np.array([[husimi_q(rho, complex(re, im)) for re in re_axis]
                        for im in im_axis])
        assert np.all(ref > 1e-6)
        np.testing.assert_allclose(grid, ref, rtol=1e-9, atol=0)

    def test_full_rank_matrix_in_point_chunks(self, monkeypatch):
        rho = random_densities(np.random.default_rng(11), 1, 15)[0]
        monkeypatch.setattr(dynamics, "_HUSIMI_CHUNK", 64)  # 4 points a chunk
        ax = np.linspace(-1.7, 1.7, 5)
        ref = np.array([[husimi_q(rho, complex(re, im)) for re in ax] for im in ax])
        np.testing.assert_allclose(husimi_grid(rho, ax, ax).values, ref,
                                   rtol=0, atol=1e-14)

    def test_bare_matrix_keeps_its_numerical_rank(self):
        rng = np.random.default_rng(3)
        chi = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        weights, rows = _bargmann_factors(chi.T @ chi.conj())
        assert len(weights) == len(rows) == 3


class TestBatchedSeries:
    def test_entropy_matches_per_matrix_jacobi(self):
        rho = random_densities(np.random.default_rng(5), 40, 3)
        batched = entropy_of_eigvals(hermitian_eigvals(rho))
        ref = np.array([jacobi_entropy(r) for r in rho])
        np.testing.assert_allclose(batched, ref, rtol=0, atol=1e-14)

    def test_entropy_clipping_of_stacked_spectra(self):
        w = np.array([[1.0, 0.0, 0.0], [-1e-17, 0.5, 0.5], [1e-15, 1e-15, 1.0]])
        ref = [entropy_of_eigvals(row) for row in w]
        np.testing.assert_array_equal(entropy_of_eigvals(w), ref)
        assert isinstance(entropy_of_eigvals(w[1]), float)

    def test_series_entropy_matches_per_sample(self, symmetric_system):
        _, field, spectra = symmetric_system
        taus = np.linspace(0.0, 6.0, 50)
        series = observable_series(field, spectra, taus, ["entropy"])["entropy"]
        ref = [jacobi_entropy(reduced_atom_density(field, spectra, t).matrix)
               for t in taus]
        np.testing.assert_allclose(series, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_stacked_concurrence_equals_per_matrix(self, dim):
        rho = random_densities(np.random.default_rng(dim), 30, dim, rank=2)
        stacked = concurrence(rho)
        assert stacked.shape == (30,)
        np.testing.assert_array_equal(stacked, [concurrence(r) for r in rho])
        if dim == 3:
            np.testing.assert_array_equal(
                concurrence(embed_atom_density(rho)), stacked)

    def test_concurrence_rejects_other_shapes(self):
        with pytest.raises(twojc.TwojcError):
            concurrence(np.eye(5) / 5.0)
        with pytest.raises(twojc.TwojcError):
            concurrence(np.zeros((2, 2, 3, 3)))


def reference_rk4(H, psi, times, dt, t0=0.0):
    """Plain sequential RK4 with the engine's step rule, dense H."""
    out = []
    prev = t0
    for t in times:
        span = t - prev
        prev = t
        if span > 0.0:
            n = max(1, math.ceil(span / dt))
            h = span / n
            for _ in range(n):
                k1 = H @ psi
                k2 = H @ (psi - 0.5j * h * k1)
                k3 = H @ (psi - 0.5j * h * k2)
                k4 = H @ (psi - 1j * h * k3)
                psi = psi - (1j * h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(psi)
    return out


class TestRk4Powers:
    @staticmethod
    def system():
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.25, f_kind=F_BUCK_SUKUMAR)
        field = coherent_field(2.0, n_max=20)
        H = build_joint_hamiltonian(p, 20)
        psi0 = joint_initial_state(field)
        return H, psi0, 0.02 / float(np.abs(H).sum(axis=1).max())

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 2.0, 41),                 # evenly spaced: one shared P^n
        np.array([0.3, 0.31, 0.9, 0.9, 1.45, 2.0]),  # uneven, with a repeat
    ])
    def test_sampled_matches_sequential_loop(self, times):
        H, psi0, dt = self.system()
        states = evolve_numeric_sampled(H, psi0, times)
        ref = reference_rk4(H, psi0.amplitudes.reshape(-1).astype(complex),
                            times, dt)
        for s, r, t in zip(states, ref, times):
            assert s.time == t
            np.testing.assert_allclose(s.amplitudes.reshape(-1), r,
                                       rtol=0, atol=1e-12)

    def test_single_span_matches_sequential_loop(self):
        H, psi0, dt = self.system()
        out = evolve_numeric(H, psi0, 1.7)
        ref = reference_rk4(H, psi0.amplitudes.reshape(-1).astype(complex),
                            [1.7], dt)[0]
        np.testing.assert_allclose(out.amplitudes.reshape(-1), ref,
                                   rtol=0, atol=1e-12)

    def test_descending_times_rejected(self):
        H, psi0, _ = self.system()
        with pytest.raises(ValueError, match="ascending"):
            evolve_numeric_sampled(H, psi0, [0.5, 0.4])
        assert evolve_numeric_sampled(H, psi0, []) == []


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(twojc.__file__)))
    code = ("import sys, twojc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
