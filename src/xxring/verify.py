"""Cross-validation suite: every identity the brute-force oracle can check.

Each check compares an independent construction against the closed-form
modules (or one operator build against another) and reports the worst
deviation with its tolerance.  The checks work on monomial terms: the
Hamiltonian as ``oracle.hamiltonian_terms`` and ``oracle.jw_terms``, and the
site-operator pairs stacked into one block-diagonal monomial per check.  Only
the sector reassembly, capped below the suite, builds dense matrices.  The
CLI's ``verify`` command runs every check, lists each failed one, and exits 1
if any failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .analytic import (
    SIZE_LIMITS,
    _validate_sites,
    critical_points,
    field_grid,
    ground_energy_density,
    ground_sector,
)
from .statevector import ground_state

#: Grid points this close to a crossing are skipped in energy/state checks.
CROSSING_EXCLUSION = 1e-3

#: default_field_grid spaces this many points over [-FIELD_GRID_SPAN, FIELD_GRID_SPAN].
FIELD_GRID_POINTS = 41
FIELD_GRID_SPAN = 1.5

#: Fields at which the operator-level audits run.
SPOT_FIELDS = (0.7, -0.4)

OPERATOR_TOLERANCE = 1e-13
JW_EQUALITY_TOLERANCE = 1e-12
SECTOR_AUDIT_TOLERANCE = 1e-11
REFLECTION_TOLERANCE = 1e-10
ENERGY_TOLERANCE = 1e-8
OVERLAP_TOLERANCE = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
    sites: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _result(name, deviation, tolerance, **detail):
    return CheckResult(
        name=name,
        passed=bool(deviation <= tolerance),
        max_deviation=float(deviation),
        tolerance=float(tolerance),
        detail=detail,
    )


def default_field_grid(n_sites: int) -> list[float]:
    """Uniform field grid with crossing neighborhoods removed."""
    fields = [cp.g_c for cp in critical_points(n_sites)]
    grid = field_grid(-FIELD_GRID_SPAN, FIELD_GRID_SPAN, FIELD_GRID_POINTS)
    return [g for g in grid if min(abs(g - gc) for gc in fields) > CROSSING_EXCLUSION]


def _stacked_products(pairs, lefts, rights):
    """[A_i B_j, B_j A_i] over the pairs (i, j), each stacked as the blocks of one direct sum."""
    firsts = oracle.Monomial.direct_sum([lefts[i] for i, _ in pairs])
    seconds = oracle.Monomial.direct_sum([rights[j] for _, j in pairs])
    return [firsts @ seconds, seconds @ firsts]


def check_pauli_site_algebra(n_sites: int) -> CheckResult:
    """Raising/lowering operators anticommute on site, commute off site.

    The N^2 site pairs are stacked, so one max_abs_sum gives the worst entry
    over all of them.
    """
    dim = 1 << n_sites
    plus = [
        oracle.Monomial.site(oracle.SIGMA_MINUS.T, j, n_sites, flip=True)
        for j in range(n_sites)
    ]
    forward, backward = _stacked_products(list(np.ndindex(n_sites, n_sites)), plus, plus)
    signs = 2.0 * np.eye(n_sites) - 1.0  # + on site, - off site
    worst = oracle.Monomial.max_abs_sum([forward, backward.scaled(np.repeat(signs, dim))])
    return _result("pauli_site_algebra", worst, OPERATOR_TOLERANCE, sites=n_sites, dim=dim)


def check_jw_anticommutation(n_sites: int) -> CheckResult:
    """{c_i, c_j} = 0, {c_i+, c_j+} = 0, {c_i, c_j+} = delta_ij.

    Both anticommutators of all N^2 pairs are stacked, so one max_abs_sum
    gives the worst entry over all of them.
    """
    cs = [oracle.Monomial.annihilation(n_sites, j) for j in range(n_sites)]
    # Block (i, j) holds {c_i, c_j}, and block (i, N + j) holds {c_i, c_j+}.
    pairs = list(np.ndindex(n_sites, 2 * n_sites))
    products = _stacked_products(pairs, cs, cs + [c.T for c in cs])
    delta = np.eye(n_sites, 2 * n_sites, n_sites)
    minus_delta = oracle.Monomial(np.arange(len(pairs) << n_sites), -np.repeat(delta, 1 << n_sites))
    worst = oracle.Monomial.max_abs_sum(products + [minus_delta])
    return _result("jw_anticommutation", worst, OPERATOR_TOLERANCE, sites=n_sites)


def check_boundary_operator(n_sites: int) -> CheckResult:
    """Prolonging the string over the whole ring: c_N = (parity of holes) c_0."""
    string = oracle.Monomial.identity(1 << n_sites)
    for l in range(n_sites):
        string = string @ oracle.Monomial.site(oracle.SIGMA_Z, l, n_sites)
    c_n = string @ oracle.Monomial.site(oracle.SIGMA_MINUS, 0, n_sites, flip=True)
    hole_parity = -oracle.build_parity_operator(n_sites)  # (-1)^(#down)
    c_0 = oracle.Monomial.annihilation(n_sites, 0)
    deviation = oracle.Monomial.max_abs_sum([c_n, c_0.scaled(-hole_parity)])
    return _result("boundary_operator", deviation, OPERATOR_TOLERANCE, sites=n_sites)


def check_parity_commutes(n_sites: int, g: float) -> CheckResult:
    """[P, H] = 0, term by term: [P, T] holds (P[target] - P) * coeff in T's cells."""
    parity = oracle.build_parity_operator(n_sites)
    commutators = [
        oracle.Monomial(term.target, (parity[term.target] - parity) * term.coeff)
        for term in oracle.hamiltonian_terms(n_sites, g)
    ]
    deviation = oracle.Monomial.max_abs_sum(commutators)
    return _result("parity_commutes", deviation, OPERATOR_TOLERANCE, sites=n_sites, g=g)


def check_jw_equals_pauli(n_sites: int, g: float) -> CheckResult:
    """The Jordan-Wigner terms sum to the Pauli terms entrywise."""
    negated = [term.scaled(-1.0) for term in oracle.hamiltonian_terms(n_sites, g)]
    deviation = oracle.Monomial.max_abs_sum(oracle.jw_terms(n_sites, g) + negated)
    return _result("jw_equals_pauli", deviation, JW_EQUALITY_TOLERANCE, sites=n_sites, g=g)


def check_sector_reassembly(n_sites: int, g: float) -> CheckResult:
    """The parity-projected diagonal forms sum back to H, entrywise and in spectrum.

    A failed check names the (row, column) of the worst entry.
    """
    reassembled = oracle.sector_reassembly(n_sites, g)  # refuses over-budget sizes first
    ham = oracle.build_spin_hamiltonian(n_sites, g)
    deviation = np.abs(reassembled - ham)
    hermitian = (reassembled + reassembled.conj().T) / 2
    spectrum = np.abs(oracle.eigvalsh(ham) - oracle.eigvalsh(hermitian)).max()
    detail = {"sites": n_sites, "g": g}
    if deviation.max() > SECTOR_AUDIT_TOLERANCE:
        detail["entry"] = list(divmod(int(deviation.argmax()), len(ham)))
    worst = max(deviation.max(), spectrum)
    return _result("sector_reassembly", worst, SECTOR_AUDIT_TOLERANCE, **detail)


def check_spectrum_reflection(n_sites: int, g: float) -> CheckResult:
    """Flipping the field preserves the spectrum (global spin flip).

    Even rings are bipartite, so their spectrum is additionally negated
    under the reflection; odd rings have no such sublattice rotation.  Both
    spectra come block by block from the terms' entries.
    """
    direct = oracle.eigvalsh(oracle.hamiltonian_terms(n_sites, g))
    flipped = oracle.eigvalsh(oracle.hamiltonian_terms(n_sites, -g))
    deviation = np.abs(direct - flipped).max()
    if n_sites % 2 == 0:
        deviation = max(deviation, np.abs(direct + flipped[::-1]).max())
    return _result("spectrum_reflection", deviation, REFLECTION_TOLERANCE, sites=n_sites, g=g)


def check_ground_agreement(n_sites: int, field_grid=None) -> list[CheckResult]:
    """Closed-form ground energy and state against the oracle's H at each field.

    Each field's Hamiltonian terms stream through ``oracle.ground_eigenpairs``
    (one block solve, shifted per field).  The analytic state depends on g
    only through its sector, so it is rebuilt only when the sector changes
    from one field to the next: once per sector on an ascending grid.  Returns
    ``energy_agreement`` (lowest eigenvalue against N * ground_energy_density)
    and ``state_overlap`` (analytic ground state against the dense
    eigenvector, up to phase).  An empty grid raises ValueError: a check over
    no field would pass vacuously.
    """
    grid = default_field_grid(n_sites) if field_grid is None else field_grid
    if len(grid) == 0:
        raise ValueError("the field grid is empty; nothing would be checked")
    energy_worst = overlap_worst = 0.0
    state = None
    hamiltonians = (oracle.hamiltonian_terms(n_sites, g) for g in grid)
    for g, pair in zip(grid, oracle.ground_eigenpairs(hamiltonians)):
        energy = n_sites * ground_energy_density(n_sites, g)
        energy_worst = max(energy_worst, abs(energy - pair.energy))
        if state is None or state.n != ground_sector(n_sites, g):
            state = ground_state(n_sites, g)
        overlap = abs(np.vdot(state.amplitudes, pair.vector))
        overlap_worst = max(overlap_worst, 1.0 - overlap)
    detail = {"sites": n_sites, "points": len(grid)}
    return [
        _result("energy_agreement", energy_worst, ENERGY_TOLERANCE, **detail),
        _result("state_overlap", overlap_worst, OVERLAP_TOLERANCE, **detail),
    ]


def run_verification(n_sites: int) -> VerificationReport:
    """Run every applicable check for one ring size.

    Operator-level audits run at SPOT_FIELDS; the energy and state
    comparisons share one term build per point of the default grid, one
    block solve for the whole grid and one analytic state per sector.  The
    sector reassembly is the one check with a size cap below the suite's,
    and the only one that builds dense matrices; it is skipped above it.
    """
    _validate_sites(n_sites, minimum=3, budget="verification suite")
    checks: list[CheckResult] = [
        check_pauli_site_algebra(n_sites),
        check_jw_anticommutation(n_sites),
        check_boundary_operator(n_sites),
    ]
    for g in SPOT_FIELDS:
        checks.append(check_parity_commutes(n_sites, g))
        checks.append(check_jw_equals_pauli(n_sites, g))
        if n_sites <= SIZE_LIMITS["sector reassembly audit"]:
            checks.append(check_sector_reassembly(n_sites, g))
        checks.append(check_spectrum_reflection(n_sites, g))
    checks.extend(check_ground_agreement(n_sites))
    return VerificationReport(sites=n_sites, checks=tuple(checks))
