import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xxring import analytic, oracle, verify


class TestChecks:
    def test_full_suite_passes(self):
        report = verify.run_verification(4)
        assert report.passed
        names = {check.name for check in report.checks}
        assert {
            "pauli_site_algebra",
            "jw_anticommutation",
            "boundary_operator",
            "parity_commutes",
            "jw_equals_pauli",
            "sector_reassembly",
            "spectrum_reflection",
            "energy_agreement",
            "state_overlap",
        } <= names

    def test_suite_passes_odd_ring(self):
        assert verify.run_verification(5).passed

    def test_default_grid_avoids_crossings(self):
        grid = verify.default_field_grid(6)
        from xxring.analytic import critical_points

        fields = [cp.g_c for cp in critical_points(6)]
        assert grid
        for g in grid:
            assert min(abs(g - gc) for gc in fields) > 1e-3

    @pytest.mark.parametrize("n_sites", range(3, 11))
    def test_default_grid_is_the_linspace_grid(self, n_sites):
        fields = [cp.g_c for cp in analytic.critical_points(n_sites)]
        span, points = verify.FIELD_GRID_SPAN, verify.FIELD_GRID_POINTS
        expected = [
            float(g)
            for g in np.linspace(-span, span, points)
            if min(abs(g - gc) for gc in fields) > verify.CROSSING_EXCLUSION
        ]
        grid = verify.default_field_grid(n_sites)
        assert all(type(g) is float for g in grid)
        assert [g.hex() for g in grid] == [g.hex() for g in expected]

    def test_ground_agreement_refuses_empty_grid(self):
        # A check over no field would report passed with "points": 0.
        with pytest.raises(ValueError, match="empty"):
            verify.check_ground_agreement(6, [])

    def test_energy_check_catches_corruption(self, monkeypatch):
        true_terms = oracle.hamiltonian_terms

        def corrupted(n_sites, g):
            terms = true_terms(n_sites, g)
            terms[0].coeff[0] += 0.01  # break the vacuum diagonal
            return terms

        monkeypatch.setattr(oracle, "hamiltonian_terms", corrupted)
        result, _ = verify.check_ground_agreement(4)
        assert result.name == "energy_agreement"
        assert not result.passed
        assert result.max_deviation > 1e-4

    def test_ground_agreement_results_fail_only_on_their_own_corruption(
        self, monkeypatch
    ):
        true_terms = oracle.hamiltonian_terms
        true_state = verify.ground_state

        def shifted_diagonal(n_sites, g):
            terms = true_terms(n_sites, g)
            terms[0].coeff[0] += 0.01  # the vacuum is its own 1 x 1 block: only its energy moves
            return terms

        def rolled_state(n_sites, g):
            state = true_state(n_sites, g)
            return replace(state, amplitudes=np.roll(state.amplitudes, 1))

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "hamiltonian_terms", shifted_diagonal)
            energy, overlap = verify.check_ground_agreement(4)
        assert (energy.name, overlap.name) == ("energy_agreement", "state_overlap")
        assert not energy.passed
        assert overlap.passed

        with monkeypatch.context() as patch:
            patch.setattr(verify, "ground_state", rolled_state)
            energy, overlap = verify.check_ground_agreement(4)
        assert energy.passed
        assert not overlap.passed
        assert overlap.max_deviation > 1e-4

    def test_ground_agreement_solves_each_block_once(self, monkeypatch):
        # The field only shifts each fermion-number block, so the grid's six
        # blocks get one eigvalsh each, and each block that is the ground
        # somewhere on the grid gets one eigh.
        calls = {"eigvalsh": [], "eigh": []}
        for name, calls_of in calls.items():
            def counting(block, true_solve=getattr(np.linalg, name), calls_of=calls_of):
                calls_of.append(block.shape[0])
                return true_solve(block)

            monkeypatch.setattr(np.linalg, name, counting)
        grid = verify.default_field_grid(5)
        results = verify.check_ground_agreement(5)
        assert sorted(calls["eigvalsh"]) == sorted(math.comb(5, n) for n in range(6))
        ground_sectors = {analytic.ground_sector(5, g) for g in grid}
        assert sorted(calls["eigh"]) == sorted(math.comb(5, n) for n in ground_sectors)
        assert len(ground_sectors) == 6
        assert [r.detail for r in results] == [{"sites": 5, "points": len(grid)}] * 2
        assert [r.tolerance for r in results] == [
            verify.ENERGY_TOLERANCE,
            verify.OVERLAP_TOLERANCE,
        ]

    def test_ground_agreement_builds_each_sector_state_once(self, monkeypatch):
        # The analytic state depends on g only through its sector, and the
        # default grid ascends, so its six sectors give six builds, not 40.
        true_state = verify.ground_state
        built = []

        def counting(n_sites, g):
            built.append(analytic.ground_sector(n_sites, g))
            return true_state(n_sites, g)

        monkeypatch.setattr(verify, "ground_state", counting)
        grid = verify.default_field_grid(5)
        assert len(grid) == 40
        assert all(result.passed for result in verify.check_ground_agreement(5))
        assert built == sorted(set(built)) == list(range(6))

    @pytest.mark.parametrize("order", ["reversed", "interleaved"])
    def test_ground_agreement_pairs_each_field_with_its_own_sector(self, order):
        # On a grid that leaves and re-enters sectors, the deviations must be
        # bit-equal to those of a state built afresh at every field.
        grid = verify.default_field_grid(5)
        if order == "reversed":
            grid = grid[::-1]
        else:
            grid = [g for pair in zip(grid[:20], grid[:19:-1]) for g in pair]
        assert len(set(grid)) == 40
        hams = (oracle.build_spin_hamiltonian(5, g) for g in grid)
        energy = overlap = 0.0
        for g, pair in zip(grid, oracle.ground_eigenpairs(hams)):
            energy = max(energy, abs(5 * analytic.ground_energy_density(5, g) - pair.energy))
            state = verify.ground_state(5, g)
            overlap = max(overlap, 1.0 - abs(np.vdot(state.amplitudes, pair.vector)))
        results = verify.check_ground_agreement(5, grid)
        assert [r.max_deviation for r in results] == [energy, overlap]
        assert all(r.passed for r in results)

    def test_energy_check_catches_a_flipped_hopping_at_one_field(self, monkeypatch):
        # Corrupting a single grid field's H must fail the check although the
        # other fields reuse one block solve: the corrupted terms are no shift
        # of the reference, so it is solved on its own.
        true_terms = oracle.hamiltonian_terms
        grid = verify.default_field_grid(4)
        corrupted_g = next(g for g in grid if analytic.ground_sector(4, g) == 1)

        def corrupted(n_sites, g):
            terms = true_terms(n_sites, g)
            if g == corrupted_g:
                terms[1].coeff[[1, 2]] = +1.0  # one-fermion hop from site 0 to site 1
            return terms

        monkeypatch.setattr(oracle, "hamiltonian_terms", corrupted)
        energy, _ = verify.check_ground_agreement(4)
        assert not energy.passed
        assert energy.max_deviation > 1e-3
        assert verify.check_ground_agreement(4, [g for g in grid if g != corrupted_g])[0].passed

    @pytest.mark.parametrize("n_sites,g", [(4, 0.5), (5, -0.3)])
    def test_reassembly_check_passes(self, n_sites, g):
        result = verify.check_sector_reassembly(n_sites, g)
        assert result.passed
        assert result.detail == {"sites": n_sites, "g": g}

    def test_reassembly_check_reports_mismatch(self, monkeypatch):
        # Corrupt one symmetric pair of the reference build; the check must
        # fail and name the deviating entry instead of passing silently.
        true_build = oracle.build_spin_hamiltonian

        def corrupted(n_sites, g):
            ham = true_build(n_sites, g)
            ham[1, 2] = ham[2, 1] = +1.0  # flipped hopping sign
            return ham

        monkeypatch.setattr(oracle, "build_spin_hamiltonian", corrupted)
        result = verify.check_sector_reassembly(4, 0.5)
        assert not result.passed
        assert result.max_deviation >= 0.5
        assert result.detail["entry"] == [1, 2]


    @pytest.mark.parametrize("n_sites", [9, 10])
    def test_no_dense_hamiltonian_above_the_reassembly_cap(self, n_sites, monkeypatch):
        # Above the sector reassembly's cap, every check works on terms.
        def refuse(*args, **kwargs):
            raise AssertionError("a dense Hamiltonian was built")

        monkeypatch.setattr(oracle.Monomial, "dense_sum", staticmethod(refuse))
        monkeypatch.setattr(oracle, "build_spin_hamiltonian", refuse)
        monkeypatch.setattr(oracle, "build_jw_hamiltonian", refuse)
        report = verify.run_verification(n_sites)
        assert report.passed
        assert "sector_reassembly" not in {check.name for check in report.checks}


def _corrupt_output(monkeypatch, owner, name, corrupt):
    """Patch ``owner.name`` so that ``corrupt(result, *args)`` edits each result in place."""
    true_call = getattr(owner, name)

    def corrupted(*args, **kwargs):
        result = true_call(*args, **kwargs)
        corrupt(result, *args, **kwargs)
        return result

    if isinstance(owner, type):  # a Monomial constructor, called on the class
        corrupted = staticmethod(corrupted)
    monkeypatch.setattr(owner, name, corrupted)


class TestOperatorChecksCatchCorruption:
    # Each corruption is one coefficient or target of one operator build; a
    # check that passed regardless would fail here.
    def test_parity_commutes(self, monkeypatch):
        def move_the_vacuum(terms, n_sites, g):
            terms[0].target[[0, 1]] = [1, 0]  # the field couples states of opposite parity

        _corrupt_output(monkeypatch, oracle, "hamiltonian_terms", move_the_vacuum)
        result = verify.check_parity_commutes(4, 0.7)
        assert not result.passed
        assert result.max_deviation == pytest.approx(2 * 4 * 0.7)

    def test_jw_equals_pauli(self, monkeypatch):
        def shift_one_field_entry(terms, n_sites, g):
            terms[0].coeff[5] += 0.5

        _corrupt_output(monkeypatch, oracle, "jw_terms", shift_one_field_entry)
        result = verify.check_jw_equals_pauli(4, 0.7)
        assert not result.passed
        assert result.max_deviation == pytest.approx(0.5)

    def test_spectrum_reflection(self, monkeypatch):
        def shift_the_vacuum(terms, n_sites, g):
            terms[0].coeff[0] += 0.01  # not flipped with the field

        _corrupt_output(monkeypatch, oracle, "hamiltonian_terms", shift_the_vacuum)
        for n_sites in (4, 5):
            result = verify.check_spectrum_reflection(n_sites, 0.7)
            assert not result.passed
            assert result.max_deviation >= 0.01 - 1e-12

    def test_pauli_site_algebra(self, monkeypatch):
        def corrupt(monomial, op, site, n_sites, flip=False):
            if flip and site == 1:
                monomial.coeff[0] *= 2.0  # sigma+_1 on the all-down state

        _corrupt_output(monkeypatch, oracle.Monomial, "site", corrupt)
        result = verify.check_pauli_site_algebra(4)
        assert not result.passed
        assert result.max_deviation == 1.0

    def test_jw_anticommutation(self, monkeypatch):
        def corrupt(monomial, n_sites, site):
            if site == 1:
                monomial.coeff[0b10] *= -1.0  # c_1 on the state with site 1 alone filled

        _corrupt_output(monkeypatch, oracle.Monomial, "annihilation", corrupt)
        result = verify.check_jw_anticommutation(4)
        assert not result.passed
        assert result.max_deviation == 2.0


class TestGroundAgreementProperty:
    # The tolerances are absolute, so the field stays at the scale of the
    # couplings; crossings are excluded exactly as on the default grid.
    @settings(max_examples=30, deadline=None)
    @given(n_sites=st.integers(3, 8), g=st.floats(-3.0, 3.0))
    def test_dense_oracle_agrees_off_the_grid(self, n_sites, g):
        crossings = [cp.g_c for cp in analytic.critical_points(n_sites)]
        assume(min(abs(g - gc) for gc in crossings) > verify.CROSSING_EXCLUSION)
        energy, overlap = verify.check_ground_agreement(n_sites, [g])
        assert energy.passed, energy
        assert overlap.passed, overlap
