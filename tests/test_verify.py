import math
import tracemalloc
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
        # The failed check names the grid field of its worst overlap and
        # that field's sector.  Rolling a polarized state moves it onto an
        # orthogonal basis state, so the first grid field, in sector 0,
        # already has the largest possible deviation, 1.
        grid = verify.default_field_grid(4)
        assert overlap.max_deviation == 1.0
        assert overlap.detail == {"sites": 4, "points": len(grid), "g": grid[0], "n": 0}
        assert analytic.ground_sector(4, grid[0]) == 0
        assert energy.detail == {"sites": 4, "points": len(grid)}

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

    def test_a_nan_state_fails_the_overlap_check(self, monkeypatch):
        # A NaN overlap is no agreement: it must not be skipped by the
        # running maximum and leave the check passing at 0.
        true_state = verify.ground_state

        def nan_state(n_sites, g):
            state = true_state(n_sites, g)
            return replace(state, amplitudes=np.full_like(state.amplitudes, np.nan))

        monkeypatch.setattr(verify, "ground_state", nan_state)
        energy, overlap = verify.check_ground_agreement(4)
        grid = verify.default_field_grid(4)
        assert energy.passed
        assert not overlap.passed
        assert math.isnan(overlap.max_deviation)
        assert (overlap.detail["g"], overlap.detail["n"]) == (grid[0], 0)

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
        assert (energy.detail["g"], energy.detail["n"]) == (corrupted_g, 1)
        assert verify.check_ground_agreement(4, [g for g in grid if g != corrupted_g])[0].passed

    @pytest.mark.parametrize("n_sites,g", [(4, 0.5), (5, -0.3)])
    def test_reassembly_check_passes(self, n_sites, g):
        result = verify.check_sector_reassembly(n_sites, g)
        assert result.passed
        assert result.detail == {"sites": n_sites, "g": g}

    def test_reassembly_check_reports_mismatch(self, monkeypatch):
        # Flip the sign of one symmetric pair of the reference terms; the
        # check must fail and name the deviating entry instead of passing
        # silently.
        true_terms = oracle.hamiltonian_terms

        def corrupted(n_sites, g):
            terms = true_terms(n_sites, g)
            terms[1].coeff[[1, 2]] = +1.0  # bond (0, 1) between states 1 and 2
            return terms

        monkeypatch.setattr(oracle, "hamiltonian_terms", corrupted)
        result = verify.check_sector_reassembly(4, 0.5)
        assert not result.passed
        assert result.max_deviation >= 0.5
        assert result.detail["entry"] == [1, 2]

    @pytest.mark.parametrize("n_sites", range(3, 11))
    def test_no_dense_hamiltonian_above_the_reassembly_cap(self, n_sites, monkeypatch):
        # Every check works on terms at every size, the sector reassembly
        # below its cap too.
        def refuse(*args, **kwargs):
            raise AssertionError("a dense Hamiltonian was built")

        monkeypatch.setattr(oracle.Monomial, "dense_sum", staticmethod(refuse))
        monkeypatch.setattr(oracle, "build_spin_hamiltonian", refuse)
        monkeypatch.setattr(oracle, "build_jw_hamiltonian", refuse)
        report = verify.run_verification(n_sites)
        assert report.passed
        audited = n_sites <= analytic.SIZE_LIMITS["sector reassembly audit"]
        assert ("sector_reassembly" in {check.name for check in report.checks}) == audited


#: Traced peak bytes of each check, about 1.5 times what it measured with
#: rows stacked one at a time and the reassembly on merged terms (numpy
#: 2.4, x86-64).  Stacking all 2 N^2 pairs at once took 17.0 MiB for
#: jw_anticommutation and 7.3 MiB for pauli_site_algebra at N = 10, and the
#: dense reassembly 4.1 MiB at N = 8.
_MiB = 1 << 20
TRACED_PEAKS = [
    (verify.check_pauli_site_algebra, (10,), 2 * _MiB),
    (verify.check_jw_anticommutation, (10,), 4 * _MiB),
    (verify.check_boundary_operator, (10,), _MiB // 4),
    (verify.check_parity_commutes, (10, 0.7), 3 * _MiB // 4),
    (verify.check_jw_equals_pauli, (10, 0.7), 13 * _MiB // 4),
    (verify.check_spectrum_reflection, (10, 0.7), 7 * _MiB // 2),
    (verify.check_ground_agreement, (10,), 23 * _MiB // 4),
    (verify.check_sector_reassembly, (8, 0.7), 5 * _MiB // 2),
]


@pytest.mark.parametrize(
    "check, args, limit", TRACED_PEAKS, ids=[check.__name__ for check, _, _ in TRACED_PEAKS]
)
def test_traced_peak_stays_bounded(check, args, limit):
    # numpy reports its buffers to tracemalloc, so a stack of every site
    # pair or a dense 2^N x 2^N sum shows up here.
    check(*args)  # load modules and caches first
    tracemalloc.start()
    try:
        check(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


def one_stack_worst(lefts, rights, signs, deltas):
    """The form the row-by-row sum replaced: all pairs in one direct sum, one max_abs_sum."""
    dim = lefts[0].target.size
    pairs = list(np.ndindex(len(lefts), len(rights)))
    firsts = oracle.Monomial.direct_sum([lefts[i] for i, _ in pairs])
    seconds = oracle.Monomial.direct_sum([rights[j] for _, j in pairs])
    backward = (seconds @ firsts).scaled(np.repeat(signs, dim))
    minus_delta = oracle.Monomial(np.arange(len(pairs) * dim), -np.repeat(deltas, dim))
    worst, cell = oracle.Monomial.max_abs_sum([firsts @ seconds, backward, minus_delta])
    return worst, None if cell is None else pairs[cell[1] // dim]


def site_algebra_operators(n_sites):
    """The lefts, rights, signs and deltas of pauli_site_algebra and jw_anticommutation."""
    plus = [
        oracle.Monomial.site(oracle.SIGMA_MINUS.T, j, n_sites, flip=True)
        for j in range(n_sites)
    ]
    cs = [oracle.Monomial.annihilation(n_sites, j) for j in range(n_sites)]
    return {
        "pauli": (plus, plus, 2.0 * np.eye(n_sites) - 1.0, np.zeros((n_sites, n_sites))),
        "jw": (
            cs,
            cs + [c.T for c in cs],
            np.ones((n_sites, 2 * n_sites)),
            np.eye(n_sites, 2 * n_sites, n_sites),
        ),
    }


class TestRowStackedChecks:
    @pytest.mark.parametrize("n_sites", range(3, 10))
    def test_rows_equal_the_one_stack(self, n_sites):
        # On the true operators, and on copies with every coefficient
        # perturbed, so that each pair has its own nonzero deviation.
        rng = np.random.default_rng(n_sites)
        checks = {
            "pauli": verify.check_pauli_site_algebra(n_sites),
            "jw": verify.check_jw_anticommutation(n_sites),
        }
        for kind, (lefts, rights, signs, deltas) in site_algebra_operators(n_sites).items():
            assert checks[kind].max_deviation == one_stack_worst(lefts, rights, signs, deltas)[0]
            assert verify._worst_pair(lefts, rights, signs, deltas) == one_stack_worst(
                lefts, rights, signs, deltas
            )
            perturb = {}
            for op in lefts + rights:
                perturb.setdefault(id(op), op.scaled(1.0 + rng.normal(0, 1e-3, op.target.size)))
            noisy = [[perturb[id(op)] for op in ops] for ops in (lefts, rights)]
            worst, pair = verify._worst_pair(*noisy, signs, deltas)
            assert worst > 0.0
            assert (worst, pair) == one_stack_worst(*noisy, signs, deltas)


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
        # Column 0 (the vacuum, field entry 4 * 0.7) now lands in row 1.
        assert result.detail == {"sites": 4, "g": 0.7, "entry": [1, 0]}

    def test_jw_equals_pauli(self, monkeypatch):
        def shift_one_field_entry(terms, n_sites, g):
            terms[0].coeff[5] += 0.5

        _corrupt_output(monkeypatch, oracle, "jw_terms", shift_one_field_entry)
        result = verify.check_jw_equals_pauli(4, 0.7)
        assert not result.passed
        assert result.max_deviation == pytest.approx(0.5)
        assert result.detail == {"sites": 4, "g": 0.7, "entry": [5, 5]}

    def test_spectrum_reflection(self, monkeypatch):
        def shift_the_vacuum(terms, n_sites, g):
            terms[0].coeff[0] += 0.01  # not flipped with the field

        _corrupt_output(monkeypatch, oracle, "hamiltonian_terms", shift_the_vacuum)
        results = {n_sites: verify.check_spectrum_reflection(n_sites, 0.7) for n_sites in (4, 5)}
        for result in results.values():
            assert not result.passed
            assert result.max_deviation >= 0.01 - 1e-12
        # On 4 sites the vacuum, 4 * 0.7 + 0.01, is level 13 of 16; the
        # negation moves it by 0.02, twice as far as the reflection does.
        assert (results[4].detail["identity"], results[4].detail["level"]) == ("E -> -E", 13)
        assert results[5].detail["identity"] == "g -> -g"

    @pytest.mark.parametrize("n_sites, identity", [(4, "E -> -E"), (5, "g -> -g")])
    def test_spectrum_reflection_names_the_worst_level(self, monkeypatch, n_sites, identity):
        # Lifting the vacuum by 100 makes it the top level of H(g) and of
        # H(-g), 2 N g apart.  On even rings the negation pairs it with the
        # bottom level of H(-g) instead, about 100 away.
        def lift_the_vacuum(terms, n_sites, g):
            terms[0].coeff[0] += 100.0

        _corrupt_output(monkeypatch, oracle, "hamiltonian_terms", lift_the_vacuum)
        result = verify.check_spectrum_reflection(n_sites, 0.7)
        assert not result.passed
        if n_sites % 2:
            assert result.max_deviation == pytest.approx(2 * n_sites * 0.7)
        assert result.detail == {
            "sites": n_sites,
            "g": 0.7,
            "identity": identity,
            "level": (1 << n_sites) - 1,
        }

    def test_pauli_site_algebra(self, monkeypatch):
        def corrupt(monomial, op, site, n_sites, flip=False):
            if flip and site == 1:
                monomial.coeff[0] *= 2.0  # sigma+_1 on the all-down state

        _corrupt_output(monkeypatch, oracle.Monomial, "site", corrupt)
        result = verify.check_pauli_site_algebra(4)
        assert not result.passed
        assert result.max_deviation == 1.0
        assert result.detail == {"sites": 4, "dim": 16, "pair": [0, 1]}

    @pytest.mark.parametrize("corrupted_site, pair", [(0, [0, 1]), (2, [0, 2]), (3, [0, 3])])
    def test_pauli_site_algebra_names_the_first_failing_pair(
        self, monkeypatch, corrupted_site, pair
    ):
        # sigma+_s and sigma+_i stop commuting for every i != s; the first
        # such pair in row order is named.
        def corrupt(monomial, op, site, n_sites, flip=False):
            if flip and site == corrupted_site:
                monomial.coeff[0] *= 2.0

        _corrupt_output(monkeypatch, oracle.Monomial, "site", corrupt)
        result = verify.check_pauli_site_algebra(4)
        assert not result.passed
        assert result.detail["pair"] == pair

    def test_jw_anticommutation(self, monkeypatch):
        def corrupt(monomial, n_sites, site):
            if site == 1:
                monomial.coeff[0b10] *= -1.0  # c_1 on the state with site 1 alone filled

        _corrupt_output(monkeypatch, oracle.Monomial, "annihilation", corrupt)
        result = verify.check_jw_anticommutation(4)
        assert not result.passed
        assert result.max_deviation == 2.0
        assert result.detail == {"sites": 4, "pair": [0, 1], "anticommutator": "{c_i, c_j}"}

    @pytest.mark.parametrize("corrupted_site", [0, 2])
    def test_jw_anticommutation_names_a_scaled_pair(self, monkeypatch, corrupted_site):
        # Doubling c_s leaves every {c_i, c_j} zero and {c_i, c_j+} zero off
        # site, but makes {c_s, c_s+} four times the identity.
        def corrupt(monomial, n_sites, site):
            if site == corrupted_site:
                monomial.coeff *= 2.0

        _corrupt_output(monkeypatch, oracle.Monomial, "annihilation", corrupt)
        result = verify.check_jw_anticommutation(4)
        assert not result.passed
        assert result.max_deviation == 3.0
        assert result.detail["pair"] == [corrupted_site, corrupted_site]
        assert result.detail["anticommutator"] == "{c_i, c_j+}"


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
