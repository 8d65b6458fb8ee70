"""Every public entry point shares one domain check and one size table."""

import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xxring import analytic, cli, entanglement, oracle, statevector, verify
from xxring.analytic import SIZE_LIMITS
from xxring.errors import SizeLimit

GOOD_FIELD = 0.3


def _guard_dense_builds(monkeypatch):
    """Make any dense operator build fail loudly, so a cap is seen to act first."""

    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built before the size check")

    monkeypatch.setattr(oracle.Monomial, "dense_sum", staticmethod(refuse))
    monkeypatch.setattr(oracle, "build_spin_hamiltonian", refuse)


class EntryPoint(NamedTuple):
    call: Callable  # call(n_sites, g)
    minimum: int | None  # smallest valid ring, None when no size is taken
    takes_field: bool
    budget: str | None  # key into SIZE_LIMITS


ENTRY_POINTS = {
    "finite_size_parameter": EntryPoint(
        lambda n, g: analytic.finite_size_parameter(n), 1, False, None
    ),
    "relative_error": EntryPoint(lambda n, g: analytic.relative_error(n), 2, False, None),
    "alpha_for_sector": EntryPoint(
        lambda n, g: analytic.alpha_for_sector(n, 1), 3, False, None
    ),
    "occupied_modes": EntryPoint(lambda n, g: analytic.occupied_modes(n, 1), 3, False, None),
    "mode_cosine": EntryPoint(lambda n, g: analytic.mode_cosine(n, 0.0, 0), 3, False, None),
    "single_particle_energy_density": EntryPoint(
        lambda n, g: analytic.single_particle_energy_density(n, 0, g), 3, True, None
    ),
    "min_energy_density": EntryPoint(
        lambda n, g: analytic.min_energy_density(n, 1, g), 3, True, None
    ),
    "critical_points": EntryPoint(lambda n, g: analytic.critical_points(n), 3, False, None),
    "ground_sector": EntryPoint(analytic.ground_sector, 3, True, None),
    "ground_energy_density": EntryPoint(analytic.ground_energy_density, 3, True, None),
    "envelope_energy": EntryPoint(analytic.envelope_energy, 3, True, None),
    "envelope_second_derivative": EntryPoint(
        analytic.envelope_second_derivative, 3, True, None
    ),
    "thermodynamic_energy": EntryPoint(
        lambda n, g: analytic.thermodynamic_energy(g), None, True, None
    ),
    "ground_state": EntryPoint(statevector.ground_state, 3, True, "state vector"),
    "balanced_bipartitions": EntryPoint(
        lambda n, g: entanglement.balanced_bipartitions(n), 3, False, "bipartition enumeration"
    ),
    "Bipartition": EntryPoint(
        lambda n, g: entanglement.Bipartition(n, 1), 3, False, "bipartition enumeration"
    ),
    "purity_stats": EntryPoint(entanglement.purity_stats, 3, True, "purity statistics"),
    "entanglement_sweep": EntryPoint(
        lambda n, g: entanglement.entanglement_sweep(n, g, 2.0, 3),
        3,
        True,
        "purity statistics",
    ),
    "build_spin_hamiltonian": EntryPoint(
        oracle.build_spin_hamiltonian, 3, True, "dense spin Hamiltonian"
    ),
    "hamiltonian_terms": EntryPoint(oracle.hamiltonian_terms, 3, True, "dense spin Hamiltonian"),
    "jw_terms": EntryPoint(oracle.jw_terms, 3, True, "dense spin Hamiltonian"),
    "build_parity_operator": EntryPoint(
        lambda n, g: oracle.build_parity_operator(n), 3, False, "dense spin Hamiltonian"
    ),
    "Monomial.site": EntryPoint(
        lambda n, g: oracle.Monomial.site(oracle.SIGMA_Z, 0, n),
        3,
        False,
        "dense spin Hamiltonian",
    ),
    "Monomial.annihilation": EntryPoint(
        lambda n, g: oracle.Monomial.annihilation(n, 0), 3, False, "dense spin Hamiltonian"
    ),
    "build_jw_hamiltonian": EntryPoint(
        oracle.build_jw_hamiltonian, 3, True, "dense spin Hamiltonian"
    ),
    "sector_reassembly": EntryPoint(
        oracle.sector_reassembly, 3, True, "sector reassembly audit"
    ),
    "check_sector_reassembly": EntryPoint(
        verify.check_sector_reassembly, 3, True, "sector reassembly audit"
    ),
    "run_verification": EntryPoint(
        lambda n, g: verify.run_verification(n), 3, False, "verification suite"
    ),
}

#: Entry points that call other dense builds: the guard shows that their own
#: size check refuses an over-budget call before any dense operator is built.
GUARDED = {"check_sector_reassembly", "run_verification"}


def _names(predicate):
    return [name for name, entry in ENTRY_POINTS.items() if predicate(entry)]


class TestEntryPointTable:
    @pytest.mark.parametrize("name", _names(lambda e: e.minimum is not None))
    @pytest.mark.parametrize("size", [True, 8.0, 8.5])
    def test_rejects_non_integer_sizes(self, name, size):
        with pytest.raises(TypeError):
            ENTRY_POINTS[name].call(size, GOOD_FIELD)

    @pytest.mark.parametrize("name", _names(lambda e: e.minimum is not None))
    def test_rejects_tiny_rings(self, name):
        entry = ENTRY_POINTS[name]
        with pytest.raises(ValueError):
            entry.call(entry.minimum - 1, GOOD_FIELD)

    @pytest.mark.parametrize("name", _names(lambda e: e.takes_field))
    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_fields(self, name, g):
        with pytest.raises(ValueError):
            ENTRY_POINTS[name].call(4, g)

    @pytest.mark.parametrize("name", _names(lambda e: e.budget is not None))
    def test_refuses_one_site_over_budget(self, name, monkeypatch):
        entry = ENTRY_POINTS[name]
        if name in GUARDED:
            _guard_dense_builds(monkeypatch)
        with pytest.raises(SizeLimit, match="limited"):
            entry.call(SIZE_LIMITS[entry.budget] + 1, GOOD_FIELD)

    def test_budgets_keep_their_sizes(self):
        assert SIZE_LIMITS == {
            "state vector": 14,
            "bipartition enumeration": 14,
            "purity statistics": 12,
            "dense spin Hamiltonian": 12,
            "verification suite": 10,
            "sector reassembly audit": 8,
        }

    def test_every_budget_guards_an_entry_point(self):
        # A cap that no public entry point validates against is dead.
        assert set(SIZE_LIMITS) == {e.budget for e in ENTRY_POINTS.values()} - {None}

    def test_operator_site_index_in_range(self):
        for bad in (-1, 4):
            with pytest.raises(ValueError):
                oracle.Monomial.site(oracle.SIGMA_Z, bad, 4)
            with pytest.raises(ValueError):
                oracle.Monomial.annihilation(4, bad)
            with pytest.raises(ValueError):
                analytic.single_particle_energy_density(4, bad, GOOD_FIELD)
            with pytest.raises(ValueError):
                analytic.mode_cosine(4, 0.0, bad)
        with pytest.raises(TypeError):
            analytic.single_particle_energy_density(4, 1.5, GOOD_FIELD)
        with pytest.raises(TypeError):
            analytic.mode_cosine(8, 0.5, 2.5)

    @pytest.mark.parametrize("alpha", [0.3, 0.25, 1.0, -0.5, math.nan])
    def test_mode_cosine_takes_only_sector_offsets(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            analytic.mode_cosine(8, alpha, 2)
        assert analytic.mode_cosine(8, 0.5, 2) == math.cos(2.0 * math.pi * 2.5 / 8)


class TestRingValidator:
    def test_rejects_tiny_rings(self):
        with pytest.raises(ValueError):
            analytic._validate_sites(2, minimum=3)

    def test_rejects_nonfinite_coupling(self):
        with pytest.raises(ValueError):
            analytic._validate_field(math.inf)

    def test_accepts_valid(self):
        analytic._validate_sites(5, minimum=3, budget="sector reassembly audit")
        analytic._validate_sites(np.int64(5), minimum=3)
        analytic._validate_field(-0.3)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        n_sites=st.integers(3, 60),
        g=st.floats(allow_nan=False, allow_infinity=False),
        data=st.data(),
    )
    def test_analytic_values_are_finite(self, n_sites, g, data):
        n = data.draw(st.integers(0, n_sites))
        k = data.draw(st.integers(0, n_sites - 1))
        chi = analytic.finite_size_parameter(n_sites)
        assume(abs(abs(g) * chi - 1.0) > 1e-9)
        values = [
            analytic.min_energy_density(n_sites, n, g),
            analytic.single_particle_energy_density(n_sites, k, g),
            analytic.ground_energy_density(n_sites, g),
            analytic.envelope_energy(n_sites, g),
            analytic.envelope_second_derivative(n_sites, g),
            analytic.thermodynamic_energy(g),
        ]
        assert all(math.isfinite(v) for v in values)

    @settings(max_examples=100, deadline=None)
    @given(n_sites=st.integers(3, 60), data=st.data())
    def test_fractional_fermion_count_rejected(self, n_sites, data):
        n = data.draw(
            st.floats(0.0, float(n_sites)).filter(lambda x: not x.is_integer())
        )
        for call in (
            analytic.alpha_for_sector,
            analytic.occupied_modes,
            lambda size, count: analytic.min_energy_density(size, count, GOOD_FIELD),
        ):
            with pytest.raises(TypeError):
                call(n_sites, n)


class TestCrossingEndpoints:
    @pytest.mark.parametrize("n_sites", range(3, 51))
    def test_endpoints_exact_and_sequence_nondecreasing(self, n_sites):
        fields = [cp.g_c for cp in analytic.critical_points(n_sites)]
        assert fields[0] == -1.0
        assert fields[-2] == fields[-1] == 1.0
        assert all(a <= b for a, b in zip(fields, fields[1:]))


class TestCommandLineFields:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--g-max", "inf"],
            ["--g-min=-inf"],
            ["--g-min", "nan"],
            ["--g", "nan"],
        ],
    )
    def test_nonfinite_flags_are_usage_errors_without_warnings(self, flags, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["spectrum", "--sites", "8", *flags]) == cli.EXIT_USAGE
        assert "finite" in capsys.readouterr().err
