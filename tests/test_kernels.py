"""The batched numpy kernels against per-sample and single-point references."""

import functools
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twojc
from twojc import dynamics, oracle
from twojc import (F_BUCK_SUKUMAR, ModelParams, NumericalGuardError, QGrid, SpectrumTable,
                   TwojcError, build_block, coherent_field, concurrence, field_entropy,
                   husimi_grid, husimi_q, observable_series, purity, reduced_atom_density,
                   reduced_field_density, solve_blocks, spectrum_table)
from twojc.dynamics import (SERIES_OBSERVABLES, coherent_vector, entropy_of_eigvals,
                            hermitian_eigvals)
from twojc.oracle import (SectorPropagator, build_joint_hamiltonian,
                          evolve_numeric_sampled, jacobi_eigh_cyclic,
                          joint_initial_state)
from twojc.validation import beat_reference_setup


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
        # the grid corners sit on the edge of the trusted window
        half = math.sqrt(0.25 * n_max) * (1.0 - 1e-12)
        re_axis = np.linspace(-half, half, 9)
        im_axis = np.linspace(-half, half, 7)
        ref = np.array([[husimi_q(chi, complex(re, im)) for re in re_axis]
                        for im in im_axis])
        # the quadratic form in the dense matrix, independent of both kernels
        c = np.array([[coherent_vector(complex(re, im), M) for re in re_axis]
                      for im in im_axis])
        quad = np.einsum("ijp,pq,ijq->ij", c.conj(), chi.T @ chi.conj(), c).real / math.pi
        grid = husimi_grid(chi, re_axis, im_axis).values
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
        return chi

    def test_matches_single_point_beyond_double_range(self):
        # |alpha|^2 > 1400: the unscaled Horner sums e^{|alpha|^2/2} overflow
        chi = self.far_state()
        re_axis = np.linspace(36.0, 38.0, 3)
        im_axis = np.linspace(-1.5, 1.5, 3)
        grid = husimi_grid(chi, re_axis, im_axis).values
        ref = np.array([[husimi_q(chi, complex(re, im)) for re in re_axis]
                        for im in im_axis])
        assert np.all(ref > 1e-6)
        np.testing.assert_allclose(grid, ref, rtol=1e-9, atol=0)

    def test_full_rank_matrix_in_point_chunks(self, monkeypatch):
        rng = np.random.default_rng(11)
        chi = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        chi /= math.sqrt(np.sum(np.abs(chi) ** 2))
        assert np.linalg.matrix_rank(chi.T @ chi.conj()) == 15
        monkeypatch.setattr(dynamics, "_CHUNK", 64)  # <= 4 points a chunk
        ax = np.linspace(-1.7, 1.7, 5)
        ref = np.array([[husimi_q(chi, complex(re, im)) for re in ax] for im in ax])
        np.testing.assert_allclose(husimi_grid(chi, ax, ax).values, ref,
                                   rtol=0, atol=1e-14)

    def test_same_bits_for_any_worker_count_and_chunk_size(self, monkeypatch):
        # |alpha|^2 runs from 0 to 1446: the partial sums of the points past
        # about 2 ln(1e150) = 691 are rescaled, the others are not
        chi = self.far_state()
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
                grids[chunk, workers] = husimi_grid(chi, re_axis, im_axis).values
        assert len(dynamics._chunks(alpha_sq.size, 3)) == alpha_sq.size  # 1 point each
        # chunks of up to 2, 3, 5 and 17 points, each padded to a multiple of 8
        widths, sizes, chunks = [], [], dynamics._chunks

        def spy(n_items, width):
            widths.append(width)
            out = chunks(n_items, width)
            sizes.append(max(part.stop - part.start for part in out))
            return out

        monkeypatch.setattr(dynamics, "_chunks", spy)
        husimi_grid(chi, re_axis, im_axis)
        for points in (2, 3, 5, 17):
            for workers in (1, 2, 3):
                monkeypatch.setattr(dynamics, "_WORKERS", workers)
                monkeypatch.setattr(dynamics, "_CHUNK", points * workers * widths[0])
                grids[f"{points} points", workers] = husimi_grid(chi, re_axis, im_axis).values
                assert sizes[-1] == points
        ref = next(iter(grids.values()))
        for key, grid in grids.items():
            assert np.array_equal(grid, ref), key
        single = np.array([[husimi_q(chi, complex(re, im)) for re in re_axis]
                           for im in im_axis])
        np.testing.assert_allclose(ref, single, rtol=1e-9, atol=0)

    def test_stack_gives_each_snapshot_its_own_bits(self, monkeypatch):
        # the far state's partial sums are rescaled past |alpha|^2 = 691, the
        # others' never; their supports end at different blocks of levels
        far = self.far_state()
        rng = np.random.default_rng(5)
        near = np.zeros(far.shape, dtype=complex)
        near[:, :70] = rng.normal(size=(3, 70)) + 1j * rng.normal(size=(3, 70))
        low = np.zeros_like(far)
        low[:, 3:9] = rng.normal(size=(3, 6))
        stack = np.stack([near, far, low, near])
        re_axis = np.linspace(-1.0, 38.0, 27)
        im_axis = np.linspace(-1.5, 1.5, 7)
        for workers in (1, 3):
            monkeypatch.setattr(dynamics, "_WORKERS", workers)
            grid = husimi_grid(stack, re_axis, im_axis)
            assert grid.values.shape == (4, 7, 27)
            for factors, values in zip(stack, grid.values):
                assert np.array_equal(values, husimi_grid(factors, re_axis, im_axis).values)
            np.testing.assert_array_equal(grid.integral(),
                                          [husimi_grid(f, re_axis, im_axis).integral()
                                           for f in stack])

    def test_same_bytes_for_any_blas_thread_count(self):
        # the block sums are one BLAS product, which may split its work over
        # threads of its own; each point's sums must not depend on how
        script = (
            "import hashlib, numpy as np\n"
            "from twojc import husimi_grid\n"
            "rng = np.random.default_rng(9)\n"
            "chi = np.zeros((4, 3, 203), dtype=complex)\n"
            "chi[..., :150] = rng.normal(size=(4, 3, 150)) + 1j * rng.normal(size=(4, 3, 150))\n"
            "ax = np.linspace(-7.0, 7.0, 101)\n"
            "print(hashlib.sha256(husimi_grid(chi, ax, ax).values.tobytes()).hexdigest())\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        digests = set()
        for threads in ("1", "4"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        rng = np.random.default_rng(3)
        chi = rng.normal(size=(3, 43)) + 1j * rng.normal(size=(3, 43))
        chi /= math.sqrt(np.sum(np.abs(chi) ** 2))
        ax = np.linspace(-3.0, 3.0, 31)
        monkeypatch.setattr(dynamics, "_CHUNK", 3 * 8 * 5)  # <= 5 points a chunk
        monkeypatch.setattr(dynamics, "_WORKERS", 1)
        ref = husimi_grid(chi, ax, ax).values
        monkeypatch.setattr(dynamics, "_WORKERS", 8)
        assert len(dynamics._chunks(ax.size ** 2, 3)) == 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            grid = husimi_grid(chi, ax, ax).values
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(grid, ref)

    def test_grid_in_one_chunk_starts_no_thread(self, monkeypatch):
        # each chunk pays the whole Horner loop, so a small grid runs alone
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        chi = self.far_state()
        re_axis = np.linspace(34.0, 38.0, 5)
        im_axis = np.linspace(-1.5, 1.5, 5)
        monkeypatch.setattr(dynamics, "_WORKERS", 4)
        monkeypatch.setattr(threading, "Thread", no_thread)
        grid = husimi_grid(chi, re_axis, im_axis).values
        ref = np.array([[husimi_q(chi, complex(re, im)) for re in re_axis]
                        for im in im_axis])
        np.testing.assert_allclose(grid, ref, rtol=1e-9, atol=0)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        caller = threading.current_thread()
        amplitudes = dynamics._bargmann_amplitudes

        def fail_off_caller(*args):
            if threading.current_thread() is not caller:
                raise NumericalGuardError("worker chunk")
            return amplitudes(*args)

        monkeypatch.setattr(dynamics, "_WORKERS", 2)
        monkeypatch.setattr(dynamics, "_CHUNK", 3 * 2 * 8)  # <= 8 points a chunk
        monkeypatch.setattr(dynamics, "_bargmann_amplitudes", fail_off_caller)
        ax = np.linspace(-1.0, 1.0, 7)
        chi = np.eye(3, 12, dtype=complex) / math.sqrt(3.0)
        with pytest.raises(NumericalGuardError, match="worker chunk"):
            husimi_grid(chi, ax, ax)


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
        ref = [jacobi_entropy(rho) for rho in reduced_atom_density(field, spectra, taus)]
        np.testing.assert_allclose(series, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_stacked_concurrence_equals_per_matrix(self, rank):
        rho = random_densities(np.random.default_rng(rank), 30, 3, rank=rank)
        stacked = concurrence(rho)
        assert stacked.shape == (30,)
        np.testing.assert_array_equal(stacked, [concurrence(r) for r in rho])

    def test_one_matrix_gives_numpys_own_scalar(self):
        # no conversion: one 3x3 gives np.float64, the stack's entry bit for bit
        rho = random_densities(np.random.default_rng(9), 4, 3)
        for observable in (purity, field_entropy, concurrence):
            values = observable(rho)
            for i, r in enumerate(rho):
                assert type(observable(r)) is np.float64
                assert observable(r) == values[i], observable.__name__

    def test_concurrence_rejects_other_shapes(self):
        # 4x4 included: only the symmetric-sector 3x3 frame is accepted
        for shape in [(5, 5), (4, 4), (2, 4, 4), (2, 2, 3, 3)]:
            with pytest.raises(twojc.TwojcError):
                concurrence(np.zeros(shape))

    def test_density_observables_are_the_series_bits(self):
        # field_entropy and concurrence read the eigh of the series, so a
        # stack of rho_A gives the series' values bit for bit
        _, field, spectra = beat_reference_setup()
        taus = np.linspace(0.0, 50.0, 4000)
        series = observable_series(field, spectra, taus, ["entropy", "concurrence"])
        rho = reduced_atom_density(field, spectra, taus)
        assert field_entropy(rho).tobytes() == series["entropy"].tobytes()
        assert concurrence(rho).tobytes() == series["concurrence"].tobytes()


class TestAlphaGuard:
    """|alpha|^2 is read as re re + im im, as the grid's window guard reads
    it, so an alpha beyond the window or not finite trips the guard in
    place of an OverflowError or NaN amplitudes."""

    @pytest.mark.parametrize("alpha", [1e200, 1e160 + 1e160j, -1e308, complex(0.5, math.nan)])
    def test_husimi_q(self, alpha):
        chi = np.eye(3, 12, dtype=complex) / math.sqrt(3.0)
        with pytest.raises(NumericalGuardError, match="outside the trusted window"):
            husimi_q(chi, alpha)

    @pytest.mark.parametrize("alpha", [1e200, complex(1e160, -1e160), math.nan,
                                       complex(0.0, math.inf)])
    def test_coherent_vector(self, alpha):
        with pytest.raises(NumericalGuardError, match="not finite"):
            coherent_vector(alpha, 5)


class TestDegenerateShapes:
    """An empty stack gives the empty result; blocks of another shape are
    refused by name."""

    def test_husimi_grid_empty_stack(self):
        ax = np.linspace(-1.0, 1.0, 4)
        grid = husimi_grid(np.zeros((0, 3, 33), dtype=complex), ax, ax[:3])
        assert grid.values.shape == (0, 3, 4)

    def test_jacobi_empty_stack(self):
        w, V = jacobi_eigh_cyclic(np.zeros((0, 3, 3)))
        assert w.shape == (0, 3) and V.shape == (0, 3, 3)

    def test_solve_blocks_empty_stack(self):
        table = solve_blocks(np.zeros((0, 3, 3)), np.arange(0))
        assert len(table) == 0 and table.energies.shape == (0, 3)

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (4, 3, 4)])
    def test_solve_blocks_other_shape(self, shape):
        with pytest.raises(TwojcError, match=re.escape(f"got shape {shape}")):
            solve_blocks(np.ones(shape), 0)


class TestFiniteExtremes:
    """Finite input at the edge of double range gives finite values or the
    package's guard, and no numpy warning."""

    def test_jacobi_scales_by_a_power_of_two(self):
        w, _ = jacobi_eigh_cyclic(np.array([[1.0, 1e308], [1e308, 2.0]]))
        np.testing.assert_allclose(w, [-1e308, 1e308], rtol=1e-15)
        # tiny entries: the sum of squares underflowed, and tau * tau overflowed
        w, _ = jacobi_eigh_cyclic(np.array([[1e-162, 5e-324], [5e-324, 0.0]]))
        np.testing.assert_array_equal(w, [1e-162, 0.0])
        # scaling by 2^-e moves no bit of an ordinary matrix's solution
        a = np.random.default_rng(2).normal(size=(6, 4, 4))
        a = a + a.swapaxes(1, 2)
        w_a, V_a = jacobi_eigh_cyclic(a)
        w_b, V_b = jacobi_eigh_cyclic(a * 2.0 ** 600)
        assert (w_a * 2.0 ** 600).tobytes() == w_b.tobytes()
        assert V_a.tobytes() == V_b.tobytes()

    def test_jacobi_eigenvalue_beyond_range(self):
        with pytest.raises(NumericalGuardError, match="beyond double range"):
            jacobi_eigh_cyclic(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("scale", [1e308, 2.0 ** 501])
    def test_husimi_factors_beyond_range(self, scale):
        chi = np.eye(3, 12, dtype=complex) / math.sqrt(3.0) * scale
        ax = np.linspace(-1.0, 1.0, 3)
        for kernel in (lambda: husimi_grid(chi, ax, ax), lambda: husimi_q(chi, 0.5)):
            with pytest.raises(NumericalGuardError, match="beyond 2\\^500"):
                kernel()

    def test_husimi_factors_at_the_bound_stay_finite(self):
        rng = np.random.default_rng(1)
        chi = rng.normal(size=(3, 1003)) + 1j * rng.normal(size=(3, 1003))
        chi *= 0.999 * 2.0 ** 500 / np.abs(chi).max()
        ax = np.linspace(-15.8, 15.8, 5)  # 2 |alpha|^2 up to 998.56 <= n_max
        assert np.isfinite(husimi_grid(chi, ax, ax).values).all()
        assert math.isfinite(husimi_q(chi, 15.8 - 15.8j))


class TestNonFiniteDensities:
    """A NaN or Inf handed to an observable of rho_A trips the guard: none
    reads it as a number, and none reaches LAPACK's LinAlgError."""

    @staticmethod
    def spoiled(where, value, count=1):
        rho = random_densities(np.random.default_rng(3), count, 3)
        rho[-1][where] = value
        return rho

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_concurrence(self, where, value):
        for rho in (self.spoiled(where, value)[0], self.spoiled(where, value, 4)):
            with pytest.raises(NumericalGuardError, match="not finite and Hermitian"):
                concurrence(rho)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_field_entropy(self, where, value):
        for rho in (self.spoiled(where, value)[0], self.spoiled(where, value, 4)):
            with pytest.raises(NumericalGuardError, match="not finite and Hermitian"):
                field_entropy(rho)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_entropy_of_eigvals(self, value):
        for w in ([value, 0.5, 0.5], [[1.0, 0.0, 0.0], [0.5, value, 0.5]]):
            with pytest.raises(NumericalGuardError, match="non-finite"):
                entropy_of_eigvals(w)

    @pytest.mark.parametrize("observables", [["entropy"], ["concurrence"],
                                             ["inversion", "entropy", "concurrence"]])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_series_densities(self, where, observables):
        rho = self.spoiled(where, math.nan, 6)
        with pytest.raises(NumericalGuardError, match="not finite and Hermitian"):
            dynamics._of_densities(rho, observables)


class TestNonDensities:
    """A finite Hermitian matrix whose eigenvalues do not sum to 1, or one
    of them negative, trips the guard in every kernel that solves it."""

    KERNELS = {"concurrence": concurrence, "field_entropy": field_entropy,
               "series": lambda rho: dynamics._of_densities(rho, ["entropy", "concurrence"])}

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("diagonal", [[1e308, 0.0, 0.0], [2.0, -0.5, -0.5]])
    def test_rejected(self, kernel, diagonal):
        bad = np.diag(diagonal).astype(complex)
        for rho in (bad, np.stack([random_densities(np.random.default_rng(5), 1, 3)[0], bad])):
            if kernel == "series" and rho.ndim == 2:
                continue  # the series reads stacks
            with pytest.raises(NumericalGuardError, match="unit-trace and positive"):
                self.KERNELS[kernel](rho)


class TestNonFiniteFactors:
    """A NaN or Inf in rho_F's factors or in a grid axis trips the guard in
    the Husimi kernels, in place of a NaN value or a window guard that
    reads it."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_husimi_grid(self, value):
        chi = np.eye(3, 12, dtype=complex) / math.sqrt(3.0)
        chi[1, 4] = value
        ax = np.linspace(-1.0, 1.0, 3)
        for factors in (chi, np.stack([np.eye(3, 12, dtype=complex), chi])):
            with pytest.raises(NumericalGuardError, match="non-finite"):
                husimi_grid(factors, ax, ax)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_husimi_q(self, value):
        chi = np.eye(3, 12, dtype=complex) / math.sqrt(3.0)
        chi[2, 0] = value
        with pytest.raises(NumericalGuardError, match="non-finite"):
            husimi_q(chi, 0.5 + 0.5j)

    def test_husimi_grid_interior_point_outside_the_window(self):
        # the window guard reads every point of an axis, not its end points alone
        chi = np.eye(3, 12, dtype=complex) / math.sqrt(3.0)
        ax = np.array([0.0, 1e308, 1.0])
        with pytest.raises(NumericalGuardError, match="outside the trusted window"):
            husimi_grid(chi, ax, ax[::2])

    @pytest.mark.parametrize("where, value", [(-1, math.nan), (2, math.nan), (2, math.inf),
                                              (-1, -math.inf)])
    def test_husimi_grid_axes(self, where, value):
        # the non-finite guard names the fault before the window guard reads it
        chi = np.eye(3, 12, dtype=complex) / math.sqrt(3.0)
        ax = np.linspace(0.0, 1.0, 5)
        bad = ax.copy()
        bad[where] = value
        for re_axis, im_axis in ((bad, ax), (ax, bad)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalGuardError, match="non-finite"):
                    husimi_grid(chi, re_axis, im_axis)


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

    @staticmethod
    def patterned(H, pattern):
        """H with another nonzero pattern, and its number of connected blocks."""
        M = len(H) // 4
        if pattern == "cross_sector":
            H = H.copy()
            # |e,e,4> (excitation 5) to |g,g,9> (excitation 8): M + 2 sectors, two merged
            H[3 * M + 4, 9] = H[9, 3 * M + 4] = 0.05
            return H, M + 1
        if pattern == "dense":
            a = np.random.default_rng(4).normal(size=H.shape)
            return (a + a.T) / math.sqrt(2.0 * len(a)), 1
        return np.zeros_like(H), 4 * M

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 2.0, 41),                 # evenly spaced: one shared P^n
        np.array([0.3, 0.31, 0.9, 0.9, 1.45, 2.0]),  # uneven, with a repeat
        np.array([0.3, 0.8, 1.1, 1.6, 1.9]),       # alternating spans: P^n formed again
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
    def test_any_block_pattern_matches_sequential_loop(self, pattern):
        H, psi0, _ = self.system()
        H, n_blocks = self.patterned(H, pattern)
        assert sum(len(idx) for idx, _ in oracle._block_stacks(H)) == n_blocks
        bound = float(np.abs(H).sum(axis=1).max())
        dt = 0.02 / bound if bound else math.inf
        times = np.linspace(0.0, 2.0, 21)
        states = evolve_numeric_sampled(H, psi0, times)
        ref = reference_rk4(H, psi0.reshape(-1).astype(complex), times, dt)
        np.testing.assert_allclose(states.reshape(len(times), -1), ref,
                                   rtol=0, atol=1e-12)

    def test_sector_propagator_exact_across_sectors(self):
        # the exact propagator reads its blocks from H, so a coupling across
        # sectors is evolved rather than dropped
        H, psi0, _ = self.system()
        H, _ = self.patterned(H, "cross_sector")
        times = np.linspace(0.0, 2.0, 21)
        states = SectorPropagator(H, 20).evolve(psi0, times)
        w, U = np.linalg.eigh(H)
        phases = np.exp(-1j * np.multiply.outer(times, w))
        expect = (phases * (U.conj().T @ psi0.reshape(-1))) @ U.T
        assert np.abs(states.reshape(len(times), -1) - expect).max() < 1e-12

    def test_descending_times_rejected(self):
        H, psi0, _ = self.system()
        with pytest.raises(ValueError, match="ascending"):
            evolve_numeric_sampled(H, psi0, [0.5, 0.4])
        assert evolve_numeric_sampled(H, psi0, []).shape == (0, 4, 23)


class TestNonFiniteOracleInput:
    """The oracle's propagators abort on a NaN or Inf, in place of NaN
    states, numpy warnings or numpy's own errors."""

    @pytest.mark.parametrize("spoil", ["psi0", "nan time", "inf time"])
    def test_sector_propagator(self, spoil):
        H, psi0, _ = TestRk4Powers.system()
        times = np.linspace(0.0, 2.0, 5)
        if spoil == "psi0":
            psi0 = psi0.copy()
            psi0[3, 2] = math.nan
        else:
            times[2] = math.nan if spoil == "nan time" else math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalGuardError, match="non-finite"):
                SectorPropagator(H, 20).evolve(psi0, times)

    def test_sampled_nan_time(self):
        # np.bincount in _shared_spans raised ValueError here
        H, psi0, _ = TestRk4Powers.system()
        with pytest.raises(NumericalGuardError, match="non-finite"):
            evolve_numeric_sampled(H, psi0, [0.1, math.nan, 0.3])

    def test_sampled_inf_hamiltonian(self):
        # _auto_dt returned 0 here, and the step count divided by it
        H, psi0, _ = TestRk4Powers.system()
        H = H.copy()
        H[5, 7] = math.inf
        with pytest.raises(NumericalGuardError, match="non-finite"):
            evolve_numeric_sampled(H, psi0, [0.1, 0.2])


@functools.lru_cache(maxsize=None)
def fuzz_cases():
    """{kernel: (arrays, call)}: call(*arrays) is a valid call of the kernel
    on finite arrays."""
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.25, f_kind=F_BUCK_SUKUMAR)
    field = coherent_field(1.0, n_max=18)
    spectra = spectrum_table(params, 18)
    H = build_joint_hamiltonian(params, 18)
    psi0 = joint_initial_state(field)
    propagator = SectorPropagator(H, 18)
    rho = random_densities(np.random.default_rng(7), 4, 3)
    blocks = build_block(params, np.arange(5))
    chi = reduced_field_density(field, spectra, [0.4, 1.1])
    ax = np.linspace(-1.0, 1.0, 5)
    times = np.linspace(0.0, 2.0, 6)
    return {
        "concurrence": ([rho], concurrence),
        "field_entropy": ([rho], field_entropy),
        "entropy_of_eigvals": ([hermitian_eigvals(rho)], entropy_of_eigvals),
        "solve_blocks": ([blocks], lambda b: solve_blocks(b, np.arange(5))),
        "jacobi_eigh_cyclic": ([blocks], jacobi_eigh_cyclic),
        "husimi_grid": ([chi, ax, ax], husimi_grid),
        "husimi_q": ([chi[0]], lambda f: husimi_q(f, 0.3 + 0.2j)),
        "reduced_field_density": ([times], lambda t: reduced_field_density(field, spectra, t)),
        "observable_series": ([times], lambda t: observable_series(field, spectra, t,
                                                                   SERIES_OBSERVABLES)),
        "SectorPropagator.evolve": ([psi0, times], propagator.evolve),
        "evolve_numeric_sampled": ([H, psi0, times], evolve_numeric_sampled),
    }


def spoiled_call(data, values, kernels):
    """(call, arrays): the fuzz case of a kernel drawn from `kernels`, with
    one entry of one array argument set to a value drawn from `values`, in
    its real or imaginary part."""
    arrays, call = fuzz_cases()[data.draw(st.sampled_from(kernels), label="kernel")]
    arrays = [np.array(a) for a in arrays]
    flat = arrays[data.draw(st.integers(0, len(arrays) - 1), label="argument")].reshape(-1)
    at = data.draw(st.integers(0, flat.size - 1), label="position")
    value = data.draw(st.sampled_from(values), label="value")
    if np.iscomplexobj(flat) and data.draw(st.booleans(), label="imaginary part"):
        flat.imag[at] = value
    else:
        flat[at] = value
    return call, arrays


def all_finite(result):
    """Whether every number a kernel returned is finite."""
    if isinstance(result, dict):
        return all(all_finite(v) for v in result.values())
    if isinstance(result, tuple):
        return all(all_finite(v) for v in result)
    if isinstance(result, QGrid):
        return all_finite(result.values)
    if isinstance(result, SpectrumTable):
        return all_finite((result.energies, result.coeffs))
    return bool(np.isfinite(result).all())


class TestNonFiniteFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_non_finite_entry_raises_a_package_error(self, data):
        """A NaN or +-Inf at any position of any array argument of a public
        kernel raises a TwojcError, and nothing warns on the way."""
        call, arrays = spoiled_call(data, [math.nan, math.inf, -math.inf], sorted(fuzz_cases()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TwojcError):
                call(*arrays)
        assert not caught, [str(w.message) for w in caught]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_finite_extreme_gives_finite_values_or_a_package_error(self, data):
        """+-1e308 or the least subnormal at any position of any array
        argument of a public kernel but the oracle's propagators gives
        finite values or raises a TwojcError, and nothing warns on the way."""
        kernels = sorted(set(fuzz_cases()) - {"SectorPropagator.evolve", "evolve_numeric_sampled"})
        call, arrays = spoiled_call(data, [1e308, -1e308, 5e-324], kernels)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                assert all_finite(call(*arrays))
            except TwojcError:
                pass
        assert not caught, [str(w.message) for w in caught]


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
