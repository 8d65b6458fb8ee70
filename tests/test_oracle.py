import math

import numpy as np
import pytest
import scipy.linalg

from xxring import analytic, oracle
from xxring.errors import MismatchError, SizeLimit


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
        assert parity[0, 0] == -1.0          # all down: 4 holes, e^{i pi 5}
        assert parity[0b1111, 0b1111] == -1.0  # all up: 0 holes, e^{i pi}
        assert parity[0b0001, 0b0001] == 1.0   # 3 holes

    def test_commutes_with_hamiltonian(self):
        for n_sites, g in ((4, 0.6), (5, -0.2)):
            ham = oracle.build_spin_hamiltonian(n_sites, g)
            parity = oracle.build_parity_operator(n_sites)
            assert np.abs(parity @ ham - ham @ parity).max() <= 1e-13


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
        # Corrupt one matrix element of the reference build; the audit must
        # name a deviating entry instead of passing silently.
        true_build = oracle.build_spin_hamiltonian

        def corrupted(n_sites, g):
            ham = true_build(n_sites, g)
            ham[0, 3] = ham[3, 0] = +1.0
            return ham

        monkeypatch.setattr(oracle, "build_spin_hamiltonian", corrupted)
        with pytest.raises(MismatchError) as excinfo:
            oracle.verify_sector_hamiltonians(4, 0.5)
        assert excinfo.value.max_deviation >= 0.5
        assert excinfo.value.entry is not None
