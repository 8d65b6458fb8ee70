"""Cross-validation suite: every identity the brute-force oracle can check.

Each check compares an independent construction against the closed-form
modules (or one operator build against another) and reports the worst
deviation with its tolerance.  Every check works on monomial terms, in
memory of order N 2^N: the Hamiltonian as ``oracle.hamiltonian_terms`` and
``oracle.jw_terms``, the sector reassembly as ``oracle.sector_reassembly``,
and the site-operator pairs stacked one row at a time into a block-diagonal
monomial.  No check builds a dense 2^N x 2^N matrix.  The CLI's ``verify``
command runs every check, lists each failed one, and exits 1 if any failed.
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


def _entry_result(name, terms, tolerance, **detail):
    """max_abs_sum of the terms; a failed result names the (row, column) of its worst entry."""
    deviation, entry = oracle.Monomial.max_abs_sum(terms)
    if not deviation <= tolerance:
        detail["entry"] = list(entry)
    return _result(name, deviation, tolerance, **detail)


def default_field_grid(n_sites: int) -> list[float]:
    """Uniform field grid with crossing neighborhoods removed."""
    fields = [cp.g_c for cp in critical_points(n_sites)]
    grid = field_grid(-FIELD_GRID_SPAN, FIELD_GRID_SPAN, FIELD_GRID_POINTS)
    return [g for g in grid if min(abs(g - gc) for gc in fields) > CROSSING_EXCLUSION]


def _worst_pair(lefts, rights, signs, deltas):
    """Worst |A_i B_j + s_ij B_j A_i - d_ij 1| over the pairs (i, j), and a pair that holds it.

    Row i stacks its pairs as the blocks of one direct sum, so one
    max_abs_sum covers the row, and the block of its worst cell names j.
    Rows are summed one at a time, so only len(rights) blocks live at once.
    The pair is None when no coefficient is nonzero.
    """
    dim = lefts[0].target.size
    seconds = oracle.Monomial.direct_sum(rights)
    diagonal = np.arange(len(rights) * dim)
    rows = []
    for i, left in enumerate(lefts):
        firsts = oracle.Monomial.direct_sum([left] * len(rights))
        backward = (seconds @ firsts).scaled(np.repeat(signs[i], dim))
        minus_delta = oracle.Monomial(diagonal, -np.repeat(deltas[i], dim))
        rows.append(oracle.Monomial.max_abs_sum([firsts @ seconds, backward, minus_delta]))
    i = int(np.argmax([deviation for deviation, _ in rows]))  # the first NaN, if any
    deviation, cell = rows[i]
    return deviation, None if cell is None else (i, cell[1] // dim)


def check_pauli_site_algebra(n_sites: int) -> CheckResult:
    """Raising/lowering operators anticommute on site, commute off site.

    The N site pairs of each row are stacked, so one max_abs_sum per row
    gives the worst entry; a failed check names its site pair.
    """
    dim = 1 << n_sites
    plus = [
        oracle.Monomial.site(oracle.SIGMA_MINUS.T, j, n_sites, flip=True)
        for j in range(n_sites)
    ]
    signs = 2.0 * np.eye(n_sites) - 1.0  # + on site, - off site
    worst, pair = _worst_pair(plus, plus, signs, np.zeros((n_sites, n_sites)))
    detail = {"sites": n_sites, "dim": dim}
    if not worst <= OPERATOR_TOLERANCE:
        detail["pair"] = list(pair)
    return _result("pauli_site_algebra", worst, OPERATOR_TOLERANCE, **detail)


def check_jw_anticommutation(n_sites: int) -> CheckResult:
    """{c_i, c_j} = 0, {c_i+, c_j+} = 0, {c_i, c_j+} = delta_ij.

    Both anticommutators of the N pairs of each row are stacked, so one
    max_abs_sum per row gives the worst entry; a failed check names its
    site pair and anticommutator.
    """
    cs = [oracle.Monomial.annihilation(n_sites, j) for j in range(n_sites)]
    # Block j of row i holds {c_i, c_j}, and block N + j holds {c_i, c_j+}.
    signs = np.ones((n_sites, 2 * n_sites))
    deltas = np.eye(n_sites, 2 * n_sites, n_sites)
    worst, pair = _worst_pair(cs, cs + [c.T for c in cs], signs, deltas)
    detail = {"sites": n_sites}
    if not worst <= OPERATOR_TOLERANCE:
        i, j = pair
        detail["pair"] = [i, j % n_sites]
        detail["anticommutator"] = "{c_i, c_j+}" if j >= n_sites else "{c_i, c_j}"
    return _result("jw_anticommutation", worst, OPERATOR_TOLERANCE, **detail)


def check_boundary_operator(n_sites: int) -> CheckResult:
    """Prolonging the string over the whole ring: c_N = (parity of holes) c_0."""
    string = oracle.Monomial.identity(1 << n_sites)
    for l in range(n_sites):
        string = string @ oracle.Monomial.site(oracle.SIGMA_Z, l, n_sites)
    c_n = string @ oracle.Monomial.site(oracle.SIGMA_MINUS, 0, n_sites, flip=True)
    hole_parity = -oracle.build_parity_operator(n_sites)  # (-1)^(#down)
    c_0 = oracle.Monomial.annihilation(n_sites, 0)
    terms = [c_n, c_0.scaled(-hole_parity)]
    return _entry_result("boundary_operator", terms, OPERATOR_TOLERANCE, sites=n_sites)


def check_parity_commutes(n_sites: int, g: float) -> CheckResult:
    """[P, H] = 0, term by term: [P, T] holds (P[target] - P) * coeff in T's cells."""
    parity = oracle.build_parity_operator(n_sites)
    commutators = [
        oracle.Monomial(term.target, (parity[term.target] - parity) * term.coeff)
        for term in oracle.hamiltonian_terms(n_sites, g)
    ]
    return _entry_result("parity_commutes", commutators, OPERATOR_TOLERANCE, sites=n_sites, g=g)


def check_jw_equals_pauli(n_sites: int, g: float) -> CheckResult:
    """The Jordan-Wigner terms sum to the Pauli terms entrywise."""
    negated = [term.scaled(-1.0) for term in oracle.hamiltonian_terms(n_sites, g)]
    terms = oracle.jw_terms(n_sites, g) + negated
    return _entry_result("jw_equals_pauli", terms, JW_EQUALITY_TOLERANCE, sites=n_sites, g=g)


def check_sector_reassembly(n_sites: int, g: float) -> CheckResult:
    """The parity-projected diagonal forms sum back to H, entrywise and in spectrum.

    Both sides stay monomial terms: the entries are max_abs_sum of the
    reassembly R minus hamiltonian_terms, and the spectra those of H and of
    (R + R^+)/2, its cells merged before the solve.  A failed check names
    the (row, column) of the worst entry.
    """
    reassembled = oracle.sector_reassembly(n_sites, g)  # refuses over-budget sizes first
    ham = oracle.hamiltonian_terms(n_sites, g)
    diff = reassembled + [t.scaled(-1.0) for t in ham]
    entries = _entry_result("sector_reassembly", diff, SECTOR_AUDIT_TOLERANCE, sites=n_sites, g=g)
    adjoint = [oracle.Monomial(t.target, t.coeff.conj()).T for t in reassembled]
    hermitian = oracle.Monomial.merged([t.scaled(0.5) for t in reassembled + adjoint])
    spectrum = np.abs(oracle.eigvalsh(ham) - oracle.eigvalsh(hermitian)).max()
    worst = max(entries.max_deviation, spectrum)
    return _result("sector_reassembly", worst, SECTOR_AUDIT_TOLERANCE, **entries.detail)


def check_spectrum_reflection(n_sites: int, g: float) -> CheckResult:
    """Flipping the field preserves the spectrum (global spin flip).

    Even rings are bipartite, so their spectrum is additionally negated
    under the reflection; odd rings have no such sublattice rotation.  Both
    spectra come block by block from the terms' entries.  A failed check
    names the identity and the index of its worst level, in ascending order.
    """
    direct = oracle.eigvalsh(oracle.hamiltonian_terms(n_sites, g))
    flipped = oracle.eigvalsh(oracle.hamiltonian_terms(n_sites, -g))
    errors = [np.abs(direct - flipped)]
    if n_sites % 2 == 0:
        errors.append(np.abs(direct + flipped[::-1]))
    which, level = divmod(int(np.argmax(errors)), direct.size)  # the first NaN, if any
    detail = {"sites": n_sites, "g": g}
    if not errors[which][level] <= REFLECTION_TOLERANCE:
        detail.update(identity=("g -> -g", "E -> -E")[which], level=level)
    return _result("spectrum_reflection", errors[which][level], REFLECTION_TOLERANCE, **detail)


def _field_result(name, errors, fields, tolerance, **detail):
    """A grid check's result from its per-field errors; a failed one names the
    field g of its worst error and that field's sector n."""
    worst = int(np.argmax(errors))  # the first NaN, if any
    if not errors[worst] <= tolerance:
        detail["g"], detail["n"] = fields[worst]
    return _result(name, errors[worst], tolerance, **detail)


def check_ground_agreement(n_sites: int, field_grid=None) -> list[CheckResult]:
    """Closed-form ground energy and state against the oracle's H at each field.

    Each field's Hamiltonian terms stream through ``oracle.ground_eigenpairs``
    (one block solve, shifted per field).  The analytic state depends on g
    only through its sector, so it is rebuilt only when the sector changes
    from one field to the next: once per sector on an ascending grid.  Returns
    ``energy_agreement`` (lowest eigenvalue against N * ground_energy_density)
    and ``state_overlap`` (analytic ground state against the dense
    eigenvector, up to phase).  A NaN error counts as the worst, so it
    fails; a failed result names the field of its worst error and that
    field's sector.  An empty grid raises ValueError: a check over no field
    would pass vacuously.
    """
    grid = default_field_grid(n_sites) if field_grid is None else field_grid
    if len(grid) == 0:
        raise ValueError("the field grid is empty; nothing would be checked")
    fields, energy_errors, overlap_errors = [None], [0.0], [0.0]  # both errors start at 0
    state = None
    hamiltonians = (oracle.hamiltonian_terms(n_sites, g) for g in grid)
    for g, pair in zip(grid, oracle.ground_eigenpairs(hamiltonians)):
        if state is None or state.n != ground_sector(n_sites, g):
            state = ground_state(n_sites, g)
        fields.append((g, state.n))
        energy_errors.append(abs(n_sites * ground_energy_density(n_sites, g) - pair.energy))
        overlap_errors.append(1.0 - abs(np.vdot(state.amplitudes, pair.vector)))
    detail = {"sites": n_sites, "points": len(grid)}
    return [
        _field_result("energy_agreement", energy_errors, fields, ENERGY_TOLERANCE, **detail),
        _field_result("state_overlap", overlap_errors, fields, OVERLAP_TOLERANCE, **detail),
    ]


def run_verification(n_sites: int) -> VerificationReport:
    """Run every applicable check for one ring size.

    Operator-level audits run at SPOT_FIELDS; the energy and state
    comparisons share one term build per point of the default grid, one
    block solve for the whole grid and one analytic state per sector.  The
    sector reassembly is the one check with a size cap below the suite's;
    it is skipped above it.
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
