"""The batched numpy kernels against per-sample and single-point references."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import twojc
from twojc import dynamics, oracle
from twojc import (F_BUCK_SUKUMAR, ModelParams, NumericalGuardError, coherent_field,
                   concurrence, husimi_grid, husimi_q, observable_series,
                   reduced_atom_density)
from twojc.dynamics import (FieldDensity, coherent_vector,
                            entropy_of_eigvals, hermitian_eigvals)
from twojc.oracle import (build_joint_hamiltonian, evolve_numeric_sampled,
                          excitation_sectors,
                          jacobi_eigh_cyclic, joint_initial_state)


def random_densities(rng, count, dim, rank=None):
    rank = dim if rank is None else rank
    a = (rng.normal(size=(count, dim, rank))
         + 1j * rng.normal(size=(count, dim, rank)))
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def jacobi_entropy(rho):
    """Per-matrix reference: real symmetric embedding, the oracle's cyclic
    Jacobi, each eigenvalue of the embedding taken once."""
    emb = np.block([[rho.real, -rho.imag], [rho.imag, rho.real]])
    w, _ = jacobi_eigh_cyclic(emb)
    return entropy_of_eigvals(np.sort(w)[::2])


class TestHusimiGrid:
    @pytest.mark.parametrize("n_max", [12, 40])
    def test_matches_single_point_on_random_rank3(self, n_max):
        rng = np.random.default_rng(n_max)
        M = n_max + 3
        chi = rng.normal(size=(3, M)) + 1j * rng.normal(size=(3, M))
        chi /= math.sqrt(np.sum(np.abs(chi) ** 2))
        rho = FieldDensity(factors=chi)
        # the grid corners sit on the edge of the trusted window
        half = math.sqrt(0.25 * n_max) * (1.0 - 1e-12)
        re_axis = np.linspace(-half, half, 9)
        im_axis = np.linspace(-half, half, 7)
        ref = np.array([[husimi_q(rho, complex(re, im)) for re in re_axis]
                        for im in im_axis])
        # the quadratic form in the dense matrix, independent of both kernels
        c = np.array([[coherent_vector(complex(re, im), M) for re in re_axis]
                      for im in im_axis])
        quad = np.einsum("ijp,pq,ijq->ij", c.conj(), rho.matrix, c).real / math.pi
        grid = husimi_grid(rho, re_axis, im_axis).values
        np.testing.assert_allclose(grid, ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(ref, quad, rtol=0, atol=1e-14)

    @staticmethod
    def far_state():
        """A rank-3 state on Fock levels 1300 .. 1599 at n_max 2900."""
        n_max = 2900
        rng = np.random.default_rng(7)
        chi = np.zeros((3, n_max + 3))
        chi[:, 1300:1600] = rng.normal(size=(3, 300))
        chi /= math.sqrt(np.sum(chi ** 2))
        return FieldDensity(factors=chi)

    def test_matches_single_point_beyond_double_range(self):
        # |alpha|^2 > 1400: the unscaled Horner sums e^{|alpha|^2/2} overflow
        rho = self.far_state()
        re_axis = np.linspace(36.0, 38.0, 3)
        im_axis = np.linspace(-1.5, 1.5, 3)
        grid = husimi_grid(rho, re_axis, im_axis).values
        ref = np.array([[husimi_q(rho, complex(re, im)) for re in re_axis]
                        for im in im_axis])
        assert np.all(ref > 1e-6)
        np.testing.assert_allclose(grid, ref, rtol=1e-9, atol=0)

    def test_full_rank_matrix_in_point_chunks(self, monkeypatch):
        rng = np.random.default_rng(11)
        chi = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        rho = FieldDensity(factors=chi / math.sqrt(np.sum(np.abs(chi) ** 2)))
        assert np.linalg.matrix_rank(rho.matrix) == 15
        monkeypatch.setattr(dynamics, "_CHUNK", 64)  # <= 4 points a chunk
        ax = np.linspace(-1.7, 1.7, 5)
        ref = np.array([[husimi_q(rho, complex(re, im)) for re in ax] for im in ax])
        np.testing.assert_allclose(husimi_grid(rho, ax, ax).values, ref,
                                   rtol=0, atol=1e-14)

    def test_same_bits_for_any_worker_count_and_chunk_size(self, monkeypatch):
        # |alpha|^2 runs from 0 to 1446: the partial sums of the points past
        # about 2 ln(1e150) = 691 are rescaled, the others are not
        rho = self.far_state()
        re_axis = np.linspace(0.0, 38.0, 39)
        im_axis = np.linspace(-1.5, 1.5, 5)
        alpha_sq = re_axis[None, :] ** 2 + im_axis[:, None] ** 2
        limit = 2.0 * math.log(dynamics._HORNER_RESCALE_ABOVE)
        assert alpha_sq.min() < limit < alpha_sq.max()
        grids = {}
        for chunk in (dynamics._CHUNK, 96, 30):
            monkeypatch.setattr(dynamics, "_CHUNK", chunk)
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(dynamics, "_WORKERS", workers)
                grids[chunk, workers] = husimi_grid(rho, re_axis, im_axis).values
        assert len(dynamics._chunks(alpha_sq.size, 3)) == alpha_sq.size  # 1 point each
        ref = next(iter(grids.values()))
        for key, grid in grids.items():
            assert np.array_equal(grid, ref), key
        single = np.array([[husimi_q(rho, complex(re, im)) for re in re_axis]
                           for im in im_axis])
        np.testing.assert_allclose(ref, single, rtol=1e-9, atol=0)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        rng = np.random.default_rng(3)
        chi = rng.normal(size=(3, 43)) + 1j * rng.normal(size=(3, 43))
        rho = FieldDensity(factors=chi / math.sqrt(np.sum(np.abs(chi) ** 2)))
        ax = np.linspace(-3.0, 3.0, 31)
        monkeypatch.setattr(dynamics, "_CHUNK", 3 * 8 * 5)  # <= 5 points a chunk
        monkeypatch.setattr(dynamics, "_WORKERS", 1)
        ref = husimi_grid(rho, ax, ax).values
        monkeypatch.setattr(dynamics, "_WORKERS", 8)
        assert len(dynamics._chunks(ax.size ** 2, 3)) == 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            grid = husimi_grid(rho, ax, ax).values
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(grid, ref)

    def test_grid_in_one_chunk_starts_no_thread(self, monkeypatch):
        # each chunk pays the whole Horner loop, so a small grid runs alone
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        rho = self.far_state()
        re_axis = np.linspace(34.0, 38.0, 5)
        im_axis = np.linspace(-1.5, 1.5, 5)
        monkeypatch.setattr(dynamics, "_WORKERS", 4)
        monkeypatch.setattr(threading, "Thread", no_thread)
        grid = husimi_grid(rho, re_axis, im_axis).values
        ref = np.array([[husimi_q(rho, complex(re, im)) for re in re_axis]
                        for im in im_axis])
        np.testing.assert_allclose(grid, ref, rtol=1e-9, atol=0)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        caller = threading.current_thread()
        amplitudes = dynamics._bargmann_amplitudes

        def fail_off_caller(rows, z):
            if threading.current_thread() is not caller:
                raise NumericalGuardError("worker chunk")
            return amplitudes(rows, z)

        monkeypatch.setattr(dynamics, "_WORKERS", 2)
        monkeypatch.setattr(dynamics, "_CHUNK", 3 * 2 * 8)  # <= 8 points a chunk
        monkeypatch.setattr(dynamics, "_bargmann_amplitudes", fail_off_caller)
        ax = np.linspace(-1.0, 1.0, 7)
        rho = FieldDensity(factors=np.eye(3, 12, dtype=complex) / math.sqrt(3.0))
        with pytest.raises(NumericalGuardError, match="worker chunk"):
            husimi_grid(rho, ax, ax)


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
        ref = [jacobi_entropy(reduced_atom_density(field, spectra, t))
               for t in taus]
        np.testing.assert_allclose(series, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_stacked_concurrence_equals_per_matrix(self, rank):
        rho = random_densities(np.random.default_rng(rank), 30, 3, rank=rank)
        stacked = concurrence(rho)
        assert stacked.shape == (30,)
        np.testing.assert_array_equal(stacked, [concurrence(r) for r in rho])

    def test_concurrence_rejects_other_shapes(self):
        # 4x4 included: only the symmetric-sector 3x3 frame is accepted
        for shape in [(5, 5), (4, 4), (2, 4, 4), (2, 2, 3, 3)]:
            with pytest.raises(twojc.TwojcError):
                concurrence(np.zeros(shape))


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
        assert states.shape == (len(times), 4, 23)
        ref = reference_rk4(H, psi0.reshape(-1).astype(complex), times, dt)
        np.testing.assert_allclose(states.reshape(len(times), -1), ref,
                                   rtol=0, atol=1e-12)

    def test_single_span_matches_sequential_loop(self):
        H, psi0, dt = self.system()
        out = evolve_numeric_sampled(H, psi0, [1.7])[-1]
        ref = reference_rk4(H, psi0.reshape(-1).astype(complex), [1.7], dt)[0]
        np.testing.assert_allclose(out.reshape(-1), ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pattern", ["cross_sector", "dense", "zero"])
    def test_any_block_pattern_matches_sequential_loop(self, pattern, monkeypatch):
        H, psi0, _ = self.system()
        M = psi0.shape[1]
        n_blocks = {"cross_sector": len(excitation_sectors(M)) - 1,
                    "dense": 1, "zero": 4 * M}[pattern]
        if pattern == "cross_sector":
            H = H.copy()
            # |e,e,4> (excitation 5) to |g,g,9> (excitation 8)
            H[3 * M + 4, 9] = H[9, 3 * M + 4] = 0.05
        elif pattern == "dense":
            a = np.random.default_rng(4).normal(size=H.shape)
            H = (a + a.T) / math.sqrt(2.0 * len(a))
        else:
            H = np.zeros_like(H)
        assert len(oracle._connected_blocks(H)) == n_blocks
        bound = float(np.abs(H).sum(axis=1).max())
        dt = 0.02 / bound if bound else math.inf

        def no_sectors(M):
            raise AssertionError("RK4 read the excitation sectors")

        monkeypatch.setattr(oracle, "excitation_sectors", no_sectors)
        times = np.linspace(0.0, 2.0, 21)
        states = evolve_numeric_sampled(H, psi0, times)
        ref = reference_rk4(H, psi0.reshape(-1).astype(complex), times, dt)
        np.testing.assert_allclose(states.reshape(len(times), -1), ref,
                                   rtol=0, atol=1e-12)

    def test_descending_times_rejected(self):
        H, psi0, _ = self.system()
        with pytest.raises(ValueError, match="ascending"):
            evolve_numeric_sampled(H, psi0, [0.5, 0.4])
        assert evolve_numeric_sampled(H, psi0, []).shape == (0, 4, 23)


def test_cli_import_loads_no_scipy():
    # nor a pool: rho_A's worker threads come from threading, which numpy imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(twojc.__file__)))
    code = ("import sys, twojc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'concurrent', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
