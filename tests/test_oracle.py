import itertools
import math
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from xxring import analytic, oracle
from xxring.errors import SizeLimit
from xxring.statevector import ground_state

_IDENTITY_2 = np.eye(2)


def kron_site_operator(op, site, n_sites):
    """Reference embedding of a 2x2 site operator as a Kronecker product."""
    factors = [_IDENTITY_2] * n_sites
    factors[n_sites - 1 - site] = op  # last Kronecker factor = least significant bit
    return reduce(np.kron, factors)


def kron_annihilation(n_sites, site):
    """Reference c_site = (prod_{l<site} sz_l) sigma^-_site as a Kronecker product."""
    factors = [_IDENTITY_2] * n_sites
    for l in range(site):
        factors[n_sites - 1 - l] = oracle.SIGMA_Z
    factors[n_sites - 1 - site] = oracle.SIGMA_MINUS
    return reduce(np.kron, factors)


def dense(monomial):
    return oracle.Monomial.dense_sum([monomial])


def sector_block(n_sites, n, g):
    """The n-fermion block of H straight from the Pauli form, on C(N, n) states.

    Returns the ascending basis states of the sector and the block over them:
    -g (2n - N) on the diagonal and -1 for every adjacent up/down swap,
    including the bond closing the ring.
    """
    states = np.array(
        sorted(sum(1 << j for j in ups) for ups in itertools.combinations(range(n_sites), n))
    )
    block = np.diag(np.full(states.size, -g * (2.0 * n - n_sites)))
    for j in range(n_sites):
        jn = (j + 1) % n_sites
        movers = np.flatnonzero(((states >> j) ^ (states >> jn)) & 1)
        partners = np.searchsorted(states, states[movers] ^ ((1 << j) | (1 << jn)))
        block[movers, partners] = -1.0
    return states, block


def assert_same_as_full_solve(ham):
    """Blocked and full dense solves agree on energy, gap, flag and ground space."""
    pair = oracle.ground_eigenpair(ham)
    values, vectors = np.linalg.eigh(ham)
    assert abs(pair.energy - values[0]) <= 1e-12
    assert abs(pair.gap - (values[1] - values[0])) <= 1e-12
    assert pair.degenerate == (values[1] - values[0] < oracle.DEGENERACY_GAP)
    # Overlap with the full solve's ground space: one vector unless degenerate.
    ground_space = vectors[:, values - values[0] < oracle.DEGENERACY_GAP]
    assert 1.0 - np.linalg.norm(ground_space.T @ pair.vector) <= 1e-12
    return pair


class TestSpinHamiltonian:
    def test_polarized_diagonal(self):
        for n_sites, g in ((4, 0.7), (6, -1.1)):
            ham = oracle.build_spin_hamiltonian(n_sites, g)
            all_up = (1 << n_sites) - 1
            assert ham[0, 0] == pytest.approx(n_sites * g, abs=1e-14)
            assert ham[all_up, all_up] == pytest.approx(-n_sites * g, abs=1e-14)

    def test_flip_flop_element(self):
        # |up down down ...> <-> |down up down ...> couples with -1.
        ham = oracle.build_spin_hamiltonian(4, 0.3)
        assert ham[0b0001, 0b0010] == -1.0
        assert ham[0b0010, 0b0001] == -1.0
        # the ring bond couples site 3 to site 0
        assert ham[0b1000, 0b0001] == -1.0

    def test_symmetric(self):
        ham = oracle.build_spin_hamiltonian(6, -0.8)
        assert np.abs(ham - ham.T).max() <= 1e-14

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            oracle.build_spin_hamiltonian(13, 0.1)


class TestJordanWignerBuild:
    @pytest.mark.parametrize("n_sites,g", [(3, 0.7), (4, 0.0), (5, -0.9), (6, 0.25)])
    def test_matches_pauli_build(self, n_sites, g):
        jw = oracle.build_jw_hamiltonian(n_sites, g)
        pauli = oracle.build_spin_hamiltonian(n_sites, g)
        assert np.abs(jw - pauli).max() <= 1e-12

    def test_anticommutators(self):
        for n_sites in (3, 5):
            cs = [oracle.jw_annihilation(n_sites, j) for j in range(n_sites)]
            eye = np.eye(1 << n_sites)
            for i in range(n_sites):
                for j in range(n_sites):
                    assert np.abs(cs[i] @ cs[j] + cs[j] @ cs[i]).max() <= 1e-13
                    mixed = cs[i] @ cs[j].T + cs[j].T @ cs[i]
                    expected = eye if i == j else 0.0
                    assert np.abs(mixed - expected).max() <= 1e-13

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            oracle.build_jw_hamiltonian(11, 0.1)


class TestParityOperator:
    def test_diagonal_values(self):
        parity = oracle.build_parity_operator(4)
        assert parity.shape == (16,)
        assert parity[0] == -1.0          # all down: 4 holes, e^{i pi 5}
        assert parity[0b1111] == -1.0     # all up: 0 holes, e^{i pi}
        assert parity[0b0001] == 1.0      # 3 holes

    def test_commutes_with_hamiltonian(self):
        for n_sites, g in ((4, 0.6), (5, -0.2)):
            ham = oracle.build_spin_hamiltonian(n_sites, g)
            parity = oracle.build_parity_operator(n_sites)
            assert np.abs(parity[:, None] * ham - ham * parity).max() <= 1e-13


class TestGroundEigenpair:
    def test_polarized_energy(self):
        pair = oracle.ground_eigenpair(oracle.build_spin_hamiltonian(8, -2.0))
        assert pair.energy / 8 == pytest.approx(-2.0, abs=1e-10)

    def test_half_filling_energy(self):
        pair = oracle.ground_eigenpair(oracle.build_spin_hamiltonian(8, 0.0))
        assert pair.energy / 8 == pytest.approx(-0.25 / math.sin(math.pi / 8), abs=1e-9)

    def test_trivial_diagonal_matrix(self):
        pair = oracle.ground_eigenpair(np.diag(np.arange(1.0, 9.0)))
        assert pair.energy == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(pair.vector), np.eye(8)[0], atol=1e-10)
        assert not pair.degenerate

    def test_residual_bound(self):
        ham = oracle.build_spin_hamiltonian(7, 0.45)
        pair = oracle.ground_eigenpair(ham)
        residual = np.linalg.norm(ham @ pair.vector - pair.energy * pair.vector)
        assert residual <= 1e-10 * np.linalg.norm(ham)

    def test_degeneracy_flag_at_crossing(self):
        g_c = analytic.critical_points(6)[1].g_c
        pair = oracle.ground_eigenpair(oracle.build_spin_hamiltonian(6, g_c))
        assert pair.degenerate
        off = oracle.ground_eigenpair(oracle.build_spin_hamiltonian(6, g_c + 0.05))
        assert not off.degenerate

    @pytest.mark.parametrize(
        "matrix",
        [np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))],
        ids=["empty", "rectangular", "vector", "rank-3"],
    )
    def test_rejects_non_square_input(self, matrix):
        with pytest.raises(ValueError, match="non-empty square"):
            oracle.ground_eigenpair(matrix)

    @pytest.mark.parametrize(
        "matrix", [[[0.0, 1.0], [5.0, 0.0]], [[1.0, 7.0], [0.0, 2.0]]], ids=["skew", "triangular"]
    )
    def test_rejects_asymmetric_input(self, matrix):
        with pytest.raises(ValueError, match="not symmetric"):
            oracle.ground_eigenpair(matrix)

    def test_one_by_one_matrix_has_infinite_gap(self):
        pair = oracle.ground_eigenpair([[-2.5]])
        assert pair.energy == -2.5
        assert pair.gap == math.inf
        assert not pair.degenerate


class TestSpectrumSymmetry:
    @pytest.mark.parametrize("n_sites,g", [(4, 0.8), (5, 0.35), (6, -0.6)])
    def test_field_reflection_preserves_spectrum(self, n_sites, g):
        # The global spin flip maps H(g) to H(-g) unitarily for every N.
        direct = np.sort(
            scipy.linalg.eigvalsh(oracle.build_spin_hamiltonian(n_sites, g))
        )
        flipped = np.sort(
            scipy.linalg.eigvalsh(oracle.build_spin_hamiltonian(n_sites, -g))
        )
        assert np.abs(direct - flipped).max() <= 1e-10

    @pytest.mark.parametrize("n_sites,g", [(4, 0.8), (6, -0.6)])
    def test_even_rings_negate_spectrum(self, n_sites, g):
        # Even rings are bipartite: the staggered z-rotation flips the sign
        # of the hopping, so the spectrum is additionally negated.
        direct = np.sort(
            scipy.linalg.eigvalsh(oracle.build_spin_hamiltonian(n_sites, g))
        )
        flipped = np.sort(
            scipy.linalg.eigvalsh(oracle.build_spin_hamiltonian(n_sites, -g))
        )
        assert np.abs(direct + flipped[::-1]).max() <= 1e-10


class TestSectorReassembly:
    @pytest.mark.parametrize("n_sites,g", [(4, 0.5), (5, -0.3)])
    def test_reassembles_hamiltonian(self, n_sites, g):
        report = oracle.verify_sector_hamiltonians(n_sites, g)
        assert report.reassembly_deviation <= 1e-11
        assert report.spectrum_deviation <= 1e-11

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            oracle.verify_sector_hamiltonians(9, 0.1)

    def test_mismatch_reported(self, monkeypatch):
        # Corrupt one matrix element of the reference build; the report must
        # name the deviating entry instead of passing silently.
        true_build = oracle.build_spin_hamiltonian

        def corrupted(n_sites, g):
            ham = true_build(n_sites, g)
            ham[0, 3] = ham[3, 0] = +1.0
            return ham

        monkeypatch.setattr(oracle, "build_spin_hamiltonian", corrupted)
        report = oracle.verify_sector_hamiltonians(4, 0.5)
        assert report.reassembly_deviation >= 0.5
        assert report.entry == (0, 3)


class TestMonomialOperators:
    @pytest.mark.parametrize("n_sites", range(3, 7))
    def test_site_operators_equal_kronecker_build(self, n_sites):
        general = np.array([[1.5, -2.0], [0.25, 3.0]])
        for site in range(n_sites):
            for op, flip in (
                (oracle.SIGMA_MINUS.T, True),
                (oracle.SIGMA_MINUS, True),
                (oracle.SIGMA_Z, False),
            ):
                reference = kron_site_operator(op, site, n_sites)
                monomial = oracle.Monomial.site(op, site, n_sites, flip=flip)
                assert np.array_equal(dense(monomial), reference)
                assert np.array_equal(oracle.site_operator(op, site, n_sites), reference)
            assert np.array_equal(
                oracle.site_operator(general, site, n_sites),
                kron_site_operator(general, site, n_sites),
            )

    @pytest.mark.parametrize("n_sites", range(3, 7))
    def test_annihilators_equal_kronecker_build(self, n_sites):
        for site in range(n_sites):
            reference = kron_annihilation(n_sites, site)
            c = oracle.Monomial.annihilation(n_sites, site)
            assert np.array_equal(dense(c), reference)
            assert np.array_equal(dense(c.T), reference.T)
            assert np.array_equal(oracle.jw_annihilation(n_sites, site), reference)

    def test_algebra_matches_dense_matrices(self):
        n_sites = 4
        parity = oracle.build_parity_operator(n_sites)
        ops = [oracle.Monomial.annihilation(n_sites, j) for j in range(n_sites)]
        ops += [oracle.Monomial.site(oracle.SIGMA_Z, 2, n_sites)]
        eye = oracle.Monomial.identity(1 << n_sites)
        for a, b in itertools.product(ops, repeat=2):
            assert np.array_equal(dense(a @ b.T), dense(a) @ dense(b).T)
            assert np.array_equal(dense(a.scaled(parity)), parity[:, None] * dense(a))
            assert np.array_equal(dense(a.scaled(-0.5)), -0.5 * dense(a))
            terms = [a @ b, (b.T @ a).scaled(0.5), eye.scaled(-1.0)]
            total = dense(a) @ dense(b) + 0.5 * dense(b).T @ dense(a) - np.eye(1 << n_sites)
            assert oracle.Monomial.max_abs_sum(terms) == np.abs(total).max()
            assert np.array_equal(oracle.Monomial.dense_sum(terms), total)


class TestBlockedSolve:
    @pytest.mark.parametrize("n_sites", range(3, 9))
    def test_matches_full_dense_solve(self, n_sites):
        crossings = [cp.g_c for cp in analytic.critical_points(n_sites)]
        flagged = 0
        for g in [*np.linspace(-1.5, 1.5, 41), *crossings]:
            ham = oracle.build_spin_hamiltonian(n_sites, float(g))
            flagged += assert_same_as_full_solve(ham).degenerate
        # Every crossing inside (-1, 1) puts the two lowest levels in two blocks.
        assert flagged >= n_sites - 1

    @pytest.mark.parametrize("n_sites", range(3, 9))
    def test_blocks_follow_the_matrix_not_the_model(self, n_sites):
        # Coupling the vacuum to a one-fermion state merges those two
        # sectors; both solves must still agree.
        for g in (-1.2, -0.9, 0.3):
            ham = oracle.build_spin_hamiltonian(n_sites, g)
            ham[0, 1] = ham[1, 0] = 0.3
            assert len(oracle._blocks(ham)) == n_sites
            assert_same_as_full_solve(ham)

    @pytest.mark.parametrize("n_sites", range(3, 11))
    def test_spin_hamiltonian_blocks_are_the_fermion_sectors(self, n_sites):
        fermions = np.array([bin(b).count("1") for b in range(1 << n_sites)])
        for g in (0.37, 0.0):
            blocks = oracle._blocks(oracle.build_spin_hamiltonian(n_sites, g))
            assert [fermions[index[0]] for index in blocks] == list(range(n_sites + 1))
            for n, index in enumerate(blocks):
                assert np.array_equal(index, np.flatnonzero(fermions == n))

    @pytest.mark.parametrize("n_sites", range(3, 9))
    def test_eigvalsh_matches_full_spectrum(self, n_sites):
        ham = oracle.build_spin_hamiltonian(n_sites, 0.45)
        assert np.abs(oracle.eigvalsh(ham) - np.linalg.eigvalsh(ham)).max() <= 1e-12
        hermitian = ham + 1j * (np.triu(ham, 1) - np.tril(ham, -1)) * 0.25
        expected = np.linalg.eigvalsh(hermitian)
        assert np.abs(oracle.eigvalsh(hermitian) - expected).max() <= 1e-12

    def test_eigvalsh_rejects_non_square_input(self):
        with pytest.raises(ValueError, match="non-empty square"):
            oracle.eigvalsh(np.zeros((2, 3)))


def check_sector_ground_states(n_sites, sectors):
    """ground_state at each sector's midpoint field against that sector's block."""
    fields = [cp.g_c for cp in analytic.critical_points(n_sites)]
    for n in sectors:
        g = (fields[n - 1] + fields[n]) / 2
        assert analytic.ground_sector(n_sites, g) == n
        states, block = sector_block(n_sites, n, g)
        pair = oracle.ground_eigenpair(block)
        energy = n_sites * analytic.ground_energy_density(n_sites, g)
        assert abs(energy - pair.energy) <= 1e-8, (n_sites, n)
        overlap = abs(np.vdot(ground_state(n_sites, g).amplitudes[states], pair.vector))
        assert 1.0 - overlap <= 1e-8, (n_sites, n)


class TestSectorBlocks:
    @pytest.mark.parametrize("n_sites", range(4, 11, 3))
    def test_block_is_the_dense_hamiltonian_restricted(self, n_sites):
        for n in range(n_sites + 1):
            states, block = sector_block(n_sites, n, -0.3)
            ham = oracle.build_spin_hamiltonian(n_sites, -0.3)
            assert np.array_equal(ham[np.ix_(states, states)], block)

    @pytest.mark.parametrize("n_sites", [11, 12])
    def test_ground_state_above_the_dense_cap(self, n_sites):
        check_sector_ground_states(n_sites, range(1, n_sites))

    @pytest.mark.oracle_large
    @pytest.mark.parametrize("n_sites", [13, 14])
    def test_ground_state_at_half_filling(self, n_sites):
        check_sector_ground_states(n_sites, sorted({n_sites // 2, (n_sites + 1) // 2}))
