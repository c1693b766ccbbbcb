import math

import numpy as np
import pytest

from twojc import (F_BUCK_SUKUMAR, F_LINEAR, H_KERR, ModelParams,
                   NumericalGuardError, TruncationError, build_block,
                   coherent_field, reduced_atom_density, spectrum_table)
from twojc import oracle
from twojc.dynamics import AtomInit, embed_atom_density
from twojc.oracle import (SectorPropagator, _block_stacks,
                          antisymmetric_leakage, buffer_population,
                          build_joint_hamiltonian, evolve_numeric_sampled,
                          inversion_of,
                          jacobi_eigh_cyclic, joint_initial_state,
                          partial_trace_atoms, partial_trace_field,
                          require_buffer_empty)

SQRT2 = math.sqrt(2.0)


def bs_params(kmj=0.25, chi=0.0, delta=0.0):
    return ModelParams(omega0=1.0, g=1.0, kappa=kmj, chi=chi, delta=delta,
                       h_kind=H_KERR if chi else ModelParams(omega0=1, g=1).h_kind,
                       f_kind=F_BUCK_SUKUMAR)


def excitation_of(a, m):
    return m + {0: -1, 1: 0, 2: 0, 3: 1}[a]


class TestJointHamiltonian:
    def test_negligible_couplings_give_negligible_matrix(self):
        p = ModelParams(omega0=1.0, g=1e-30, f_kind=F_LINEAR)
        H = build_joint_hamiltonian(p, 6)
        assert np.abs(H).max() < 1e-25

    def test_hermitian(self):
        p = bs_params(kmj=0.3, chi=0.05, delta=0.2)
        H = build_joint_hamiltonian(p, 10)
        assert np.abs(H - H.T.conj()).max() < 1e-13

    @pytest.mark.parametrize("n", [0, 5])
    def test_projection_onto_symmetric_sector_matches_block(self, n):
        p = bs_params(kmj=0.3, chi=0.05, delta=0.2)
        n_max = 10
        M = n_max + 3
        H = build_joint_hamiltonian(p, n_max)
        # |e,e,n>, (|g,e>+|e,g>)/sqrt2 |n+1>, |g,g,n+2>
        basis = np.zeros((3, 4 * M))
        basis[0, 3 * M + n] = 1.0
        basis[1, 1 * M + n + 1] = 1 / SQRT2
        basis[1, 2 * M + n + 1] = 1 / SQRT2
        basis[2, 0 * M + n + 2] = 1.0
        block = basis @ H @ basis.T
        np.testing.assert_allclose(block, build_block(p, n), atol=1e-13)

    def test_antisymmetric_states_are_eigenvectors(self):
        p = bs_params(kmj=0.3, chi=0.02, delta=0.15)
        n_max = 8
        M = n_max + 3
        H = build_joint_hamiltonian(p, n_max)
        for m in (0, 3, 7):
            v = np.zeros(4 * M)
            v[1 * M + m] = 1 / SQRT2
            v[2 * M + m] = -1 / SQRT2
            # anharmonic shift - 2 kappa - J
            expect = p.chi * m * m - 2.0 * p.kappa - p.J_ising
            assert np.abs(H @ v - expect * v).max() < 1e-12

    def test_excitation_sectors_are_exact_blocks(self):
        p = bs_params(kmj=0.3, chi=0.05, delta=0.2)
        n_max = 7
        M = n_max + 3
        H = build_joint_hamiltonian(p, n_max)
        exc = np.array([excitation_of(i // M, i % M) for i in range(4 * M)])
        off_sector = H[exc[:, None] != exc[None, :]]
        assert np.abs(off_sector).max() == 0.0

    def test_connected_blocks_are_the_excitation_sectors(self):
        # found from the nonzero pattern alone, checked against the sectors
        n_max = 20
        M = n_max + 3
        H = build_joint_hamiltonian(bs_params(kmj=0.3, chi=0.05, delta=0.2), n_max)
        stacks = _block_stacks(H)
        blocks = [idx for stack, _ in stacks for idx in stack]
        np.testing.assert_array_equal(np.sort(np.concatenate(blocks)),
                                      np.arange(4 * M))
        label = np.empty(4 * M, dtype=np.int64)
        for k, idx in enumerate(blocks):
            label[idx] = k
        rows, cols = np.nonzero(H)
        np.testing.assert_array_equal(label[rows], label[cols])
        # one block per excitation s in [-1, M]: sizes 1, 3 and 4
        assert len(blocks) == M + 2
        for idx in blocks:
            assert len({excitation_of(i // M, i % M) for i in idx}) == 1
        assert [len(stack[0]) for stack, _ in stacks] == [1, 3, 4]
        assert [len(stack) for stack, _ in stacks] == [2, 2, M - 2]
        for stack, Hs in stacks:
            np.testing.assert_array_equal(Hs, [H[np.ix_(idx, idx)] for idx in stack])
            # each set ascending, the sets of one size by their least index
            assert np.all(np.diff(stack, axis=1) > 0)
            assert np.all(np.diff(stack[:, 0]) > 0)


class TestInitialStates:
    def test_both_excited_product(self):
        field = coherent_field(2.0, n_max=26)
        psi = joint_initial_state(field)
        rho = partial_trace_field(psi)
        np.testing.assert_allclose(rho, np.diag([0, 0, 0, 1.0]), atol=1e-12)
        assert inversion_of(psi) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_field_shifted_one_quantum(self):
        field = coherent_field(2.0, n_max=20, atom_init=AtomInit.SYMMETRIC)
        psi = joint_initial_state(field)
        assert psi.shape == (4, 23)
        assert psi[1, 0] == 0.0  # nothing on the vacuum level
        assert abs(psi[1, 1]) == pytest.approx(
            abs(field.amplitudes[0]) / SQRT2)
        assert inversion_of(psi) == pytest.approx(0.0, abs=1e-12)
        assert antisymmetric_leakage(psi) < 1e-15


class TestSectorPropagator:
    def test_matches_dense_eigendecomposition(self):
        p = bs_params(kmj=0.2, chi=0.03)
        field = coherent_field(2.0, n_max=26)
        H = build_joint_hamiltonian(p, 26)
        prop = SectorPropagator(H, 26)
        psi0 = joint_initial_state(field)
        t = 1.3
        got = prop.evolve(psi0, t).reshape(-1)
        w, U = np.linalg.eigh(H)
        expect = U @ (np.exp(-1j * w * t) * (U.conj().T @ psi0.reshape(-1)))
        np.testing.assert_allclose(got, expect, atol=1e-11)

    def test_norm_exactly_preserved(self):
        p = bs_params()
        field = coherent_field(3.0, n_max=25)
        prop = SectorPropagator(build_joint_hamiltonian(p, 25), 25)
        psi = prop.evolve(joint_initial_state(field), 17.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_initial_state_never_leaks(self):
        p = bs_params()
        field = coherent_field(3.0, n_max=25, atom_init=AtomInit.SYMMETRIC)
        prop = SectorPropagator(build_joint_hamiltonian(p, 25), 25)
        psi0 = joint_initial_state(field)
        states = prop.evolve(psi0, np.linspace(0.0, 9.0, 12))
        assert antisymmetric_leakage(states).max() < 1e-12

    def test_time_array_stacks_the_scalar_calls(self):
        p = bs_params(kmj=0.2, chi=0.03)
        prop = SectorPropagator(build_joint_hamiltonian(p, 20), 20)
        psi0 = joint_initial_state(coherent_field(2.0, n_max=20))
        times = np.linspace(0.0, 7.0, 12).reshape(3, 4)
        states = prop.evolve(psi0, times)
        assert states.shape == (3, 4, 4, 23)
        np.testing.assert_array_equal(
            states, np.array([[prop.evolve(psi0, t) for t in row] for row in times]))
        np.testing.assert_array_equal(prop.evolve(psi0, times[0]), states[0])
        assert prop.evolve(psi0, []).shape == (0, 4, 23)

    def test_complex_hamiltonian_is_rejected_unless_real(self):
        H = build_joint_hamiltonian(ModelParams(omega0=1.0, g=1.0, kappa=0.25), 20)
        psi0 = joint_initial_state(coherent_field(1.0, n_max=20))
        i, j = 0 * 23 + 3, 1 * 23 + 2  # |g,g,3> and |g,e,2>, one excitation sector
        Hc = H.astype(np.complex128)
        Hc[i, j] += 0.3j
        Hc[j, i] -= 0.3j
        with pytest.raises(ValueError, match="imaginary"):
            SectorPropagator(Hc, 20)
        np.testing.assert_array_equal(
            SectorPropagator(H.astype(np.complex128), 20).evolve(psi0, 1.0),
            SectorPropagator(H, 20).evolve(psi0, 1.0))


class TestRk4:
    def test_zero_time_identity(self):
        p = bs_params()
        field = coherent_field(2.0, n_max=26)
        H = build_joint_hamiltonian(p, 26)
        psi0 = joint_initial_state(field)
        out = evolve_numeric_sampled(H, psi0, [0.0])
        assert out.shape == (1, 4, 29)
        np.testing.assert_array_equal(out[0], psi0)

    def test_zero_hamiltonian_freezes_state(self):
        # a zero Gershgorin bound gives one step over each span, whatever the
        # step fraction
        field = coherent_field(2.0, n_max=26)
        psi0 = joint_initial_state(field)
        H = np.zeros((4 * 29, 4 * 29))
        out = evolve_numeric_sampled(H, psi0, [2.5, 5.0])
        np.testing.assert_allclose(out, [psi0, psi0], atol=1e-15)

    def test_single_block_matches_closed_form(self):
        # start in |e,e,0>: the three-frequency closed form of block 0
        p = ModelParams(omega0=1.0, g=1.0, f_kind=F_LINEAR)
        n_max = 6
        M = n_max + 3
        H = build_joint_hamiltonian(p, n_max)
        psi0 = np.zeros((4, M), dtype=complex)
        psi0[3, 0] = 1.0
        t = 1.234
        out = evolve_numeric_sampled(H, psi0, [t])[0]
        s = spectrum_table(p, 0)[0]
        D = (s.coeffs[:, 0][:, None] * s.coeffs
             * np.exp(-1j * s.energies * t)[:, None]).sum(axis=0)
        assert abs(out[3, 0] - D[0]) < 1e-9
        assert abs(out[1, 1] - D[1] / SQRT2) < 1e-9
        assert abs(out[2, 1] - D[1] / SQRT2) < 1e-9
        assert abs(out[0, 2] - D[2]) < 1e-9

    def test_norm_preserved_and_dt_halving(self, monkeypatch):
        p = bs_params()
        field = coherent_field(2.0, n_max=26)
        H = build_joint_hamiltonian(p, 26)
        psi0 = joint_initial_state(field)
        a = evolve_numeric_sampled(H, psi0, [3.0])[0]
        assert abs(np.linalg.norm(a) - 1.0) < 1e-10
        monkeypatch.setattr(oracle, "_RK4_STEP_FRACTION", oracle._RK4_STEP_FRACTION / 2.0)
        b = evolve_numeric_sampled(H, psi0, [3.0])[0]
        assert np.abs(a - b).max() < 1e-9

    def test_energy_conserved_along_samples(self):
        p = bs_params()
        field = coherent_field(3.0, n_max=25)
        H = build_joint_hamiltonian(p, 25)
        psi0 = joint_initial_state(field)
        states = evolve_numeric_sampled(H, psi0, np.linspace(0.5, 6.0, 8))
        energies = [np.real(np.vdot(s.reshape(-1), H @ s.reshape(-1)))
                    for s in states]
        e0 = np.real(np.vdot(psi0.reshape(-1), H @ psi0.reshape(-1)))
        scale = max(1.0, abs(e0))
        assert np.abs(np.array(energies) - e0).max() < 1e-9 * scale

    def test_unstable_step_raises_guard(self, monkeypatch):
        p = bs_params()
        field = coherent_field(3.0, n_max=25)
        H = build_joint_hamiltonian(p, 25)
        psi0 = joint_initial_state(field)
        # a step of ten times 1 / (bound on |E|) is far beyond stability: the
        # deliberate overflow is what the guard catches
        monkeypatch.setattr(oracle, "_RK4_STEP_FRACTION", 10.0)
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(NumericalGuardError)):
            evolve_numeric_sampled(H, psi0, [50.0])

    def test_negative_duration_rejected(self):
        p = bs_params()
        field = coherent_field(2.0, n_max=26)
        H = build_joint_hamiltonian(p, 26)
        with pytest.raises(ValueError, match="ascending"):
            evolve_numeric_sampled(H, joint_initial_state(field), [-1e-4])

    def test_agrees_with_sector_propagator(self):
        p = bs_params(kmj=0.15, chi=0.02)
        field = coherent_field(2.0, n_max=26)
        H = build_joint_hamiltonian(p, 26)
        psi0 = joint_initial_state(field)
        t = 2.7
        a = evolve_numeric_sampled(H, psi0, [t])[0]
        b = SectorPropagator(H, 26).evolve(psi0, t)
        assert np.abs(a - b).max() < 1e-9


class TestPartialTraces:
    def test_product_state_is_rank_one(self):
        field = coherent_field(2.0, n_max=26)
        psi = joint_initial_state(field)
        rho_a = partial_trace_field(psi)
        w = np.linalg.eigvalsh(rho_a)
        np.testing.assert_allclose(np.sort(w), [0, 0, 0, 1.0], atol=1e-12)

    def test_schmidt_spectra_agree(self):
        p = bs_params()
        field = coherent_field(3.0, n_max=25)
        prop = SectorPropagator(build_joint_hamiltonian(p, 25), 25)
        psi = prop.evolve(joint_initial_state(field), 1.9)
        wa = np.linalg.eigvalsh(partial_trace_field(psi))
        wf = np.linalg.eigvalsh(partial_trace_atoms(psi))
        wa = np.sort(wa[wa > 1e-12])[::-1]
        wf = np.sort(wf[wf > 1e-12])[::-1]
        assert len(wa) == len(wf)
        np.testing.assert_allclose(wa, wf, atol=1e-10)

    def test_reduced_atom_density_cross_module(self):
        # the equivalence this module exists to provide
        p = bs_params(kmj=0.25)
        field = coherent_field(10.0)
        spectra = spectrum_table(p, field.n_max)
        t = math.pi / 4.0
        rho3 = reduced_atom_density(field, spectra, [t])[0]
        rho4_analytic = embed_atom_density(rho3)
        prop = SectorPropagator(build_joint_hamiltonian(p, field.n_max),
                                field.n_max)
        psi = prop.evolve(joint_initial_state(field), t)
        rho4_oracle = partial_trace_field(psi)
        assert np.abs(rho4_analytic - rho4_oracle).max() < 1e-8

    def test_reduced_field_density_cross_module(self):
        from twojc import reduced_field_density
        p = bs_params(kmj=0.25)
        field = coherent_field(3.0, n_max=30, atom_init=AtomInit.SYMMETRIC)
        spectra = spectrum_table(p, 30)
        t = 0.9
        chi = reduced_field_density(field, spectra, t)
        prop = SectorPropagator(build_joint_hamiltonian(p, 30), 30)
        ref = partial_trace_atoms(prop.evolve(joint_initial_state(field), t))
        np.testing.assert_allclose(chi.T @ chi.conj(), ref, atol=1e-10)
        pop = np.sum(np.abs(chi) ** 2, axis=0)
        assert abs(np.sum(pop) - 1.0) == pytest.approx(abs(np.trace(ref).real - 1.0), abs=1e-10)
        assert np.sum(np.arange(len(pop)) * pop) == pytest.approx(
            np.sum(np.arange(len(ref)) * np.diag(ref).real), abs=1e-9)

    @pytest.mark.parametrize("init", [AtomInit.BOTH_EXCITED, AtomInit.SYMMETRIC])
    def test_detuned_anharmonic_cross_module(self, init):
        # most general parameter set: detuning, Kerr shift, both couplings
        p = ModelParams(omega0=1.0, g=1.0, kappa=0.35, J_ising=0.1, chi=0.04,
                        delta=-0.3, h_kind=H_KERR, f_kind=F_BUCK_SUKUMAR)
        field = coherent_field(3.0, n_max=30, atom_init=init)
        spectra = spectrum_table(p, 30)
        prop = SectorPropagator(build_joint_hamiltonian(p, 30), 30)
        psi0 = joint_initial_state(field)
        for t in (0.45, 1.8):
            rho4_analytic = embed_atom_density(
                reduced_atom_density(field, spectra, [t])[0])
            rho4_oracle = partial_trace_field(prop.evolve(psi0, t))
            assert np.abs(rho4_analytic - rho4_oracle).max() < 1e-10

    def test_stacked_reductions_match_per_state(self):
        p = bs_params(kmj=0.2, chi=0.03, delta=0.1)
        field = coherent_field(3.0, n_max=25, atom_init=AtomInit.SYMMETRIC)
        prop = SectorPropagator(build_joint_hamiltonian(p, 25), 25)
        states = prop.evolve(joint_initial_state(field), np.linspace(0.0, 6.0, 6))
        states = states.reshape(2, 3, 4, 28)
        for reduce in (partial_trace_field, partial_trace_atoms, inversion_of,
                       buffer_population, antisymmetric_leakage):
            stacked = reduce(states)
            for i, j in np.ndindex(2, 3):
                np.testing.assert_array_equal(stacked[i, j], reduce(states[i, j]),
                                              err_msg=reduce.__name__)


class TestGuards:
    def test_buffer_guard_fires(self):
        amps = np.zeros((4, 10), dtype=complex)
        amps[3, -1] = 1.0
        with pytest.raises(TruncationError):
            require_buffer_empty(amps)

    def test_buffer_guard_reads_every_state_of_a_stack(self):
        states = np.zeros((3, 4, 10), dtype=complex)
        states[:, 3, 0] = 1.0
        require_buffer_empty(states)
        states[1, 3, -2] = 1e-4  # only the middle state reaches the buffer
        with pytest.raises(TruncationError):
            require_buffer_empty(states)

    def test_buffer_guard_trips_on_nan(self):
        states = np.zeros((3, 4, 10), dtype=complex)
        states[:, 3, 0] = 1.0
        states[1, 3, -1] = math.nan  # no comparison with a NaN is true
        with pytest.raises(TruncationError):
            require_buffer_empty(states)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_jacobi_trips_on_non_finite_entries(self, value):
        # a NaN read [1, 1, 1, 1] as the eigenvalues of eye(4)
        mat = np.eye(4)
        mat[1, 2] = value
        for m in (mat, np.stack([np.eye(4), mat])):
            with pytest.raises(NumericalGuardError, match="non-finite"):
                jacobi_eigh_cyclic(m)

    def test_buffer_stays_empty_in_normal_runs(self):
        p = bs_params()
        field = coherent_field(3.0, n_max=25)
        prop = SectorPropagator(build_joint_hamiltonian(p, 25), 25)
        psi = prop.evolve(joint_initial_state(field), 11.0)
        assert buffer_population(psi) < 1e-10
        require_buffer_empty(psi)


@pytest.mark.parametrize("call, message", [
    (lambda: jacobi_eigh_cyclic(np.ones(3)), "expected square matrices"),
    (lambda: jacobi_eigh_cyclic(np.ones((2, 3))), "expected square matrices"),
    (lambda: SectorPropagator(np.zeros((8, 8)), 20), "does not match n_max"),
    (lambda: evolve_numeric_sampled(np.zeros((4, 5)), np.zeros(4), [1.0]),
     "must be a square matrix"),
    (lambda: evolve_numeric_sampled(np.eye(8), np.zeros(7), [1.0]),
     "state dimension 7 does not match the 8-dimensional"),
], ids=["jacobi_vector", "jacobi_oblong", "sector_size", "rk4_oblong", "rk4_state"])
def test_shape_mismatches_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_cyclic_jacobi_matches_numpy():
    rng = np.random.default_rng(9)
    for k in (2, 3, 4, 6):  # 6: the real embedding of a complex 3x3 density
        for _ in range(50):
            a = rng.normal(size=(k, k))
            a = a + a.T
            w, V = jacobi_eigh_cyclic(a)
            np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(a),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(V @ np.diag(w) @ V.T, a, atol=1e-12)
            np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-12)


# edge inputs of the cyclic Jacobi: no rotation needed, a repeated zero
# eigenvalue, couplings under the tolerance, a near-degenerate pair, 1x1
JACOBI_EDGE_INPUTS = {
    "diagonal": np.diag([0.3, -1.2, 0.3]),
    "rank_one": np.full((3, 3), 0.5),
    "tiny_offdiag": np.eye(4) + 1e-15 * np.ones((4, 4)),
    "near_degenerate": np.array([[2.0, 1e-9], [1e-9, 2.0]]),
    "one_by_one": np.array([[0.7]]),
}


def test_cyclic_jacobi_edge_inputs():
    for name, a in JACOBI_EDGE_INPUTS.items():
        w, v = jacobi_eigh_cyclic(a.copy())
        np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(a), atol=1e-12,
                                   err_msg=name)
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, a, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(v.T @ v, np.eye(len(a)), atol=1e-12, err_msg=name)


def scalar_jacobi(a):
    """The cyclic Jacobi one element at a time, as a scalar reference: the
    same sweep order, rotations, tolerance and skip threshold."""
    A = np.array(a, dtype=float)
    n = len(A)
    V = np.eye(n)
    nrm = 0.0
    for x in A.ravel():
        nrm += x * x
    tol = 1e-14 * math.sqrt(nrm)
    for _ in range(80):
        if max((abs(A[i, j]) for i in range(n) for j in range(i + 1, n)),
               default=0.0) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= tol * 1e-2:
                    continue
                tau = 0.5 * (A[q, q] - A[p, p]) / A[p, q]
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for X, cols in ((A, True), (A, False), (V, True)):
                    for k in range(n):
                        ip, iq = ((k, p), (k, q)) if cols else ((p, k), (q, k))
                        xp, xq = X[ip], X[iq]
                        X[ip], X[iq] = c * xp - s * xq, s * xp + c * xq
    return np.diag(A).copy(), V


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cyclic_jacobi_stack_matches_single_calls(k):
    rng = np.random.default_rng(40 + k)
    a = rng.normal(size=(10, k, k))
    a = a + np.swapaxes(a, 1, 2)
    a[0] = np.diag(rng.normal(size=k))          # converged before the first sweep
    a[1, 0, 1] = a[1, 1, 0] = 1e-18             # pair (0, 1) under the skip threshold
    a[2] *= 1e6                                 # scales differ across the stack
    a[3] = np.diag(rng.normal(size=k)) + 1e-15  # converged, yet above the skip threshold
    w, V = jacobi_eigh_cyclic(a)
    for row, mat in enumerate(a):
        w1, V1 = jacobi_eigh_cyclic(mat)
        np.testing.assert_array_equal(w[row], w1)
        np.testing.assert_array_equal(V[row], V1)
        w0, V0 = scalar_jacobi(mat)
        np.testing.assert_array_equal(w1, w0)
        np.testing.assert_array_equal(V1, V0)
    w4, V4 = jacobi_eigh_cyclic(a.reshape(2, 5, k, k))
    assert w4.shape == (2, 5, k) and V4.shape == (2, 5, k, k)
    np.testing.assert_array_equal(w4.reshape(w.shape), w)
    np.testing.assert_array_equal(V4.reshape(V.shape), V)
