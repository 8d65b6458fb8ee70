import itertools
import math
import warnings
import weakref
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from xxring import analytic, oracle, verify
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


def dense_projected_form(n_sites, g, alpha):
    """Reference P_alpha [-2 sum_k (n_k - 1/2) w_k] P_alpha from dense mode operators.

    Each mode number a_k+ a_k is a dense product of the Fourier sum
    a_k = N^-1/2 sum_j e^{-2 pi i (k+alpha) j/N} c_j of dense c_j.
    """
    cs = [kron_annihilation(n_sites, j).astype(complex) for j in range(n_sites)]
    eye = np.eye(1 << n_sites)
    form = np.zeros_like(eye, dtype=complex)
    for k in range(n_sites):
        mode = sum(
            np.exp(-2j * np.pi * (k + alpha) * j / n_sites) * cs[j] for j in range(n_sites)
        ) / math.sqrt(n_sites)
        number = mode.conj().T @ mode
        form -= 2.0 * (number - 0.5 * eye) * (g - analytic.mode_cosine(n_sites, alpha, k))
    parity = oracle.build_parity_operator(n_sites)
    projector = (1.0 + parity) / 2.0 if alpha == 0.0 else (1.0 - parity) / 2.0
    return projector[:, None] * form * projector


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

    @pytest.mark.parametrize("n_sites", [3, 6])
    def test_terms_are_the_field_diagonal_and_one_hop_per_bond(self, n_sites):
        basis = np.arange(1 << n_sites)
        terms = oracle.hamiltonian_terms(n_sites, 0.4)
        assert len(terms) == n_sites + 1
        assert np.array_equal(terms[0].target, basis)
        diagonal = oracle.build_spin_hamiltonian(n_sites, 0.4).diagonal()
        assert np.array_equal(terms[0].coeff, diagonal)
        for j, term in enumerate(terms[1:]):
            pair = (1 << j) | (1 << (j + 1) % n_sites)
            hops = np.array([bin(b & pair).count("1") == 1 for b in basis])
            assert np.array_equal(term.target, basis ^ pair)
            assert np.array_equal(term.coeff, np.where(hops, -1.0, 0.0))


class TestJordanWignerBuild:
    @pytest.mark.parametrize("n_sites,g", [(3, 0.7), (4, 0.0), (5, -0.9), (6, 0.25)])
    def test_matches_pauli_build(self, n_sites, g):
        jw = oracle.build_jw_hamiltonian(n_sites, g)
        pauli = oracle.build_spin_hamiltonian(n_sites, g)
        assert np.abs(jw - pauli).max() <= 1e-12

    def test_anticommutators(self):
        for n_sites in (3, 5):
            cs = [dense(oracle.Monomial.annihilation(n_sites, j)) for j in range(n_sites)]
            eye = np.eye(1 << n_sites)
            for i in range(n_sites):
                for j in range(n_sites):
                    assert np.abs(cs[i] @ cs[j] + cs[j] @ cs[i]).max() <= 1e-13
                    mixed = cs[i] @ cs[j].T + cs[j].T @ cs[i]
                    expected = eye if i == j else 0.0
                    assert np.abs(mixed - expected).max() <= 1e-13

    def test_matches_pauli_build_above_the_verify_cap(self):
        # The JW build shares the dense spin Hamiltonian's cap of 12.
        jw = oracle.build_jw_hamiltonian(11, 0.3)
        pauli = oracle.build_spin_hamiltonian(11, 0.3)
        assert np.abs(jw - pauli).max() <= verify.JW_EQUALITY_TOLERANCE

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            oracle.build_jw_hamiltonian(13, 0.1)


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


def with_both_solvers(argnames, cases, ids):
    """Parametrize over ``solver`` and each case, for both eigensolvers.

    They share one input contract.  The ground_eigenpair cases keep the bare
    ids; the eigvalsh ones are prefixed.
    """
    params = [
        pytest.param(solver, *case, id=prefix + case_id)
        for solver, prefix in ((oracle.ground_eigenpair, ""), (oracle.eigvalsh, "eigvalsh-"))
        for case, case_id in zip(cases, ids)
    ]
    return pytest.mark.parametrize(f"solver,{argnames}", params)


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

    @with_both_solvers(
        "matrix", [([[0.0, 1.0], [5.0, 0.0]],), ([[1.0, 7.0], [0.0, 2.0]],)], ["skew", "triangular"]
    )
    def test_rejects_asymmetric_input(self, solver, matrix):
        with pytest.raises(ValueError, match="not symmetric"):
            solver(matrix)

    @with_both_solvers("row,col", [(0, 5), (2, 7)], ["vacuum", "inner"])
    def test_rejects_one_sided_entry_joining_two_sectors(self, solver, row, col):
        # A single H[row, col] couples two fermion-number sectors of N = 3
        # (0 and 2, or 1 and 3): the asymmetry lies inside the block that
        # entry creates.
        ham = oracle.build_spin_hamiltonian(3, 0.37)
        assert ham[row, col] == ham[col, row] == 0.0
        ham[row, col] = 0.3
        with pytest.raises(ValueError, match="not symmetric"):
            solver(ham)

    @with_both_solvers(
        "matrix",
        [
            ([[math.nan]],),
            ([[math.inf]],),
            ([[1.0, math.nan], [math.nan, 2.0]],),
            ([[0.0, math.inf], [math.inf, 0.0]],),
            ([[1.0, 0.0], [0.0, math.nan]],),
        ],
        ["nan", "inf", "nan-coupling", "inf-coupling", "nan-in-own-block"],
    )
    def test_rejects_non_finite_entries(self, solver, matrix):
        with pytest.raises(ValueError, match="finite"):
            solver(matrix)

    @pytest.mark.parametrize(
        "matrix", [np.array([[0, 1j], [-1j, 0]]), [[0, 1j], [-1j, 0]]], ids=["ndarray", "list"]
    )
    def test_rejects_complex_input_before_any_cast(self, matrix):
        # Hermitian, with levels -1 and 1: a cast to float would drop the
        # imaginary part and report a degenerate level 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="needs a real symmetric matrix"):
                oracle.ground_eigenpair(matrix)
        assert oracle.eigvalsh(matrix).tolist() == [-1.0, 1.0]

    def test_one_dense_solve_lists_its_nonzeros_once(self, monkeypatch):
        ham = oracle.build_spin_hamiltonian(10, 0.3)
        true_flatnonzero = np.flatnonzero
        sizes = []

        def counting(array):
            sizes.append(np.size(array))
            return true_flatnonzero(array)

        monkeypatch.setattr(np, "flatnonzero", counting)
        oracle.ground_eigenpair(ham)
        assert sizes.count(1 << 20) == 1

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
        reassembled = oracle.sector_reassembly(n_sites, g)
        ham = oracle.build_spin_hamiltonian(n_sites, g)
        assert np.abs(reassembled - ham).max() <= 1e-11

    @pytest.mark.parametrize("g", [0.7, -0.4, 0.5, -0.3])
    @pytest.mark.parametrize("n_sites", range(3, 7))
    def test_monomial_reassembly_equals_dense_mode_numbers(self, n_sites, g):
        reassembled = oracle.sector_reassembly(n_sites, g)
        parity = oracle.build_parity_operator(n_sites)
        forms = []
        for alpha, sector in ((0.0, 1.0), (0.5, -1.0)):
            forms.append(dense_projected_form(n_sites, g, alpha))
            inside = np.outer(parity == sector, parity == sector)
            assert np.abs(np.where(inside, reassembled, 0.0) - forms[-1]).max() <= 1e-13
        assert np.abs(reassembled - sum(forms)).max() <= 1e-13

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            oracle.sector_reassembly(9, 0.1)

    def test_mismatch_reported(self, monkeypatch):
        # Corrupt one matrix element of the reference build; the audit must
        # name the deviating entry instead of passing silently.
        true_build = oracle.build_spin_hamiltonian

        def corrupted(n_sites, g):
            ham = true_build(n_sites, g)
            ham[0, 3] = ham[3, 0] = +1.0
            return ham

        monkeypatch.setattr(oracle, "build_spin_hamiltonian", corrupted)
        result = verify.check_sector_reassembly(4, 0.5)
        assert not result.passed
        assert result.max_deviation >= 0.5
        assert result.detail["entry"] == [0, 3]


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
            diagonal = oracle.Monomial.site(general, site, n_sites)
            off_diagonal = oracle.Monomial.site(general, site, n_sites, flip=True)
            assert np.array_equal(
                oracle.Monomial.dense_sum([diagonal, off_diagonal]),
                kron_site_operator(general, site, n_sites),
            )

    @pytest.mark.parametrize("n_sites", range(3, 7))
    def test_annihilators_equal_kronecker_build(self, n_sites):
        for site in range(n_sites):
            reference = kron_annihilation(n_sites, site)
            c = oracle.Monomial.annihilation(n_sites, site)
            assert np.array_equal(dense(c), reference)
            assert np.array_equal(dense(c.T), reference.T)

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

    def test_max_abs_sum_of_complex_terms(self):
        n_sites = 4
        ops = [oracle.Monomial.annihilation(n_sites, j) for j in range(n_sites)]
        eye = oracle.Monomial.identity(1 << n_sites)
        for a, b in itertools.product(ops, repeat=2):
            terms = [(a @ b.T).scaled(0.5 + 2j), (b.T @ a).scaled(-1.5j), eye.scaled(np.exp(0.3j))]
            total = np.abs(oracle.Monomial.dense_sum(terms)).max()
            assert oracle.Monomial.max_abs_sum(terms) == total

    def test_direct_sums_multiply_block_by_block(self):
        n_sites = 4
        dim = 1 << n_sites
        lefts = [oracle.Monomial.annihilation(n_sites, j) for j in range(n_sites)]
        rights = [c.T for c in lefts[:3]] + [oracle.Monomial.site(oracle.SIGMA_Z, 2, n_sites)]
        firsts = oracle.Monomial.direct_sum(lefts)
        seconds = oracle.Monomial.direct_sum(rights)
        assert firsts.target.size == 4 * dim
        for p, (a, b) in enumerate(zip(lefts, rights)):
            block = slice(p * dim, (p + 1) * dim)
            stacked_products = ((firsts, a), (firsts @ seconds, a @ b), (seconds @ firsts, b @ a))
            for stacked, product in stacked_products:
                assert np.array_equal(stacked.target[block], product.target + p * dim)
                assert np.array_equal(stacked.coeff[block], product.coeff)


class TestBlockedSolve:
    @pytest.mark.parametrize("n_sites", range(3, 9))
    def test_terms_solve_as_their_dense_sum(self, n_sites):
        for g in (0.45, -1.1):
            terms = oracle.hamiltonian_terms(n_sites, g)
            dense = oracle.build_spin_hamiltonian(n_sites, g)
            assert np.array_equal(oracle.eigvalsh(terms), oracle.eigvalsh(dense))
            pair, plain = oracle.ground_eigenpair(terms), oracle.ground_eigenpair(dense)
            assert (pair.energy, pair.gap) == (plain.energy, plain.gap)
            assert np.array_equal(pair.vector, plain.vector)

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
    def test_one_eigenvector_solve_per_call(self, n_sites, monkeypatch):
        # Every block gets eigvalsh; only the ground block gets eigh, also at
        # the crossings where the two lowest levels sit in different blocks.
        true_eigh = np.linalg.eigh
        solved = []

        def counting(block):
            solved.append(block.shape[0])
            return true_eigh(block)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        crossings = [cp.g_c for cp in analytic.critical_points(n_sites)]
        for g in [*analytic.field_grid(-1.5, 1.5, 41), *crossings]:
            before = len(solved)
            oracle.ground_eigenpair(oracle.build_spin_hamiltonian(n_sites, g))
            assert len(solved) == before + 1, g

    @pytest.mark.parametrize("n_sites", range(3, 9))
    def test_blocks_follow_the_matrix_not_the_model(self, n_sites):
        # Coupling the vacuum to a one-fermion state merges those two
        # sectors; both solves must still agree.
        for g in (-1.2, -0.9, 0.3):
            ham = oracle.build_spin_hamiltonian(n_sites, g)
            ham[0, 1] = ham[1, 0] = 0.3
            assert len(oracle._blocks(*oracle._entries(ham))) == n_sites
            assert_same_as_full_solve(ham)

    @pytest.mark.parametrize("n_sites", range(3, 11))
    def test_spin_hamiltonian_blocks_are_the_fermion_sectors(self, n_sites):
        fermions = np.array([bin(b).count("1") for b in range(1 << n_sites)])
        for g in (0.37, 0.0):
            blocks = oracle._blocks(*oracle._entries(oracle.build_spin_hamiltonian(n_sites, g)))
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

    def test_eigvalsh_rejects_complex_symmetric_input(self):
        # Symmetric but not Hermitian: one triangle alone would give real levels.
        with pytest.raises(ValueError, match="not symmetric"):
            oracle.eigvalsh([[0.0, 1j], [1j, 0.0]])


class TestGroundEigenpairStream:
    @pytest.mark.parametrize("n_sites", range(3, 11))
    def test_matches_one_solve_per_field(self, n_sites):
        # The shifted levels of the term stream against the plain dense path
        # at every field.
        grid = verify.default_field_grid(n_sites)
        if n_sites == 10:
            grid = grid[::19]
            assert len(grid) == 3
        hams = [oracle.build_spin_hamiltonian(n_sites, g) for g in grid]
        terms = (oracle.hamiltonian_terms(n_sites, g) for g in grid)
        for ham, pair in zip(hams, oracle.ground_eigenpairs(terms), strict=True):
            plain = oracle.ground_eigenpair(ham)
            assert abs(pair.energy - plain.energy) <= 1e-12
            assert abs(pair.gap - plain.gap) <= 1e-12
            assert pair.degenerate == plain.degenerate
            if not plain.degenerate:
                assert abs(np.vdot(pair.vector, plain.vector)) >= 1.0 - 1e-12

    @pytest.mark.parametrize("change", ["hopping", "extra", "moved", "diagonal", "size"])
    def test_a_matrix_that_is_no_shift_is_solved_afresh(self, change, monkeypatch):
        first = oracle.hamiltonian_terms(5, 0.3)
        second = oracle.hamiltonian_terms(5, -0.6)
        # States 3 and 12 (sites {0, 1} and {2, 3}) share the two-fermion
        # block but no hop; this term adds one between them.
        swap = np.arange(32)
        swap[[3, 12]] = [12, 3]
        extra_hop = oracle.Monomial(swap, np.where(swap != np.arange(32), -1.0, 0.0))
        if change == "hopping":
            second[1].coeff[[1, 2]] = -1.5  # bond (0, 1): states 1 and 2
        elif change == "extra":
            # Every reference entry is kept; the entry list only grows.
            second.append(extra_hop)
        elif change == "moved":
            # One hop dropped and another added: as many entries, at other cells.
            second[1].coeff[[1, 2]] = 0.0
            second.append(extra_hop)
        elif change == "diagonal":
            second[0].coeff[3] += 0.25  # state 3 shares its two-fermion block with others
        else:
            second = oracle.hamiltonian_terms(6, -0.6)
        true_eigvalsh = np.linalg.eigvalsh
        solved = []

        def counting(block):
            solved.append(block.shape[0])
            return true_eigvalsh(block)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        stream = oracle.ground_eigenpairs([first, second])
        next(stream)
        del solved[:]
        pair = next(stream)
        assert sum(solved) == second[0].target.size
        monkeypatch.undo()
        plain = oracle.ground_eigenpair(second)
        assert (pair.energy, pair.gap, pair.degenerate) == (
            plain.energy,
            plain.gap,
            plain.degenerate,
        )
        assert np.array_equal(pair.vector, plain.vector)

    def test_a_shift_solves_no_block(self, monkeypatch):
        stream = oracle.ground_eigenpairs(
            oracle.hamiltonian_terms(5, g) for g in (0.3, -0.6, 1.2)
        )
        next(stream)

        def refuse(block):
            raise AssertionError("a shifted matrix was solved again")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert [pair.energy < 0 for pair in stream] == [True, True]

    def test_a_shift_lists_no_nonzeros(self, monkeypatch):
        # Only a solved Hamiltonian has its blocks found; a shift of terms is
        # matched by its off-diagonal entry list, with no scan for nonzeros.
        true_flatnonzero = np.flatnonzero
        scans = []

        def counting(array):
            scans.append(np.shape(array))
            return true_flatnonzero(array)

        monkeypatch.setattr(np, "flatnonzero", counting)
        stream = oracle.ground_eigenpairs(
            oracle.hamiltonian_terms(5, g) for g in (0.3, -0.6, 1.2)
        )
        next(stream)
        assert scans
        del scans[:]
        assert len(list(stream)) == 2
        assert scans == []

    def test_pulls_each_matrix_after_the_last_result(self):
        # Matrix k + 1 is built only once result k is out, and by then no
        # reference to matrix k is left.
        events, made = [], []

        def source():
            for k, g in enumerate((0.3, -0.6, 1.2)):
                assert not made or made[-1]() is None, "an earlier matrix is still held"
                events.append(("pull", k))
                ham = oracle.build_spin_hamiltonian(5, g)
                made.append(weakref.ref(ham))
                yield ham
                del ham

        for k, _ in enumerate(oracle.ground_eigenpairs(source())):
            events.append(("yield", k))
        assert events == [(step, k) for k in range(3) for step in ("pull", "yield")]

    def test_every_matrix_gets_the_input_checks(self):
        ham = oracle.hamiltonian_terms(4, 0.3)
        bad = oracle.hamiltonian_terms(4, -0.6)
        bad[0].coeff[0] = math.nan
        stream = oracle.ground_eigenpairs([ham, bad])
        next(stream)
        with pytest.raises(ValueError, match="finite"):
            next(stream)


class TestFullSpectrum:
    @pytest.mark.parametrize("n_sites", range(3, 11))
    def test_every_block_level_is_a_sum_of_mode_energies(self, n_sites):
        # The n-fermion levels are g (N - 2n) + 2 sum_{k in K} cos(2 pi (k + alpha)/N)
        # over every n-subset K of the modes, alpha = alpha_for_sector(N, n).
        fermions = np.array([bin(b).count("1") for b in range(1 << n_sites)])
        for g in (0.7, -0.4, 0.0, 1.3):
            entries = oracle._entries(oracle.build_spin_hamiltonian(n_sites, g))
            blocks, levels, *_ = oracle._solve_blocks(*entries)
            assert len(blocks) == n_sites + 1
            for n, ((index, _), block_levels) in enumerate(zip(blocks, levels)):
                assert np.array_equal(index, np.flatnonzero(fermions == n))
                alpha = analytic.alpha_for_sector(n_sites, n)
                cosines = [analytic.mode_cosine(n_sites, alpha, k) for k in range(n_sites)]
                closed_form = np.sort([
                    g * (n_sites - 2 * n) + 2.0 * sum(cosines[k] for k in modes)
                    for modes in itertools.combinations(range(n_sites), n)
                ])
                assert np.abs(block_levels - closed_form).max() <= 1e-12, (n_sites, g, n)


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
