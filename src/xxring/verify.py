"""Cross-validation suite: every identity the dense oracle can check.

Each check compares an independent construction against the closed-form
modules (or one operator build against another) and reports the worst
deviation with its tolerance.  The CLI's ``verify`` command runs every
check, lists each failed one, and exits 1 if any failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .analytic import (
    SIZE_LIMITS,
    _validate_sites,
    critical_points,
    ground_energy_density,
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
    return [
        float(g)
        for g in np.linspace(-FIELD_GRID_SPAN, FIELD_GRID_SPAN, FIELD_GRID_POINTS)
        if min(abs(g - gc) for gc in fields) > CROSSING_EXCLUSION
    ]


def check_pauli_site_algebra(n_sites: int) -> CheckResult:
    """Raising/lowering operators anticommute on site, commute off site."""
    dim = 1 << n_sites
    plus = [
        oracle.Monomial.site(oracle.SIGMA_MINUS.T, j, n_sites, flip=True)
        for j in range(n_sites)
    ]
    worst = 0.0
    for i in range(n_sites):
        for j in range(n_sites):
            sign = 1.0 if i == j else -1.0
            terms = [plus[i] @ plus[j], (plus[j] @ plus[i]).scaled(sign)]
            worst = max(worst, oracle.Monomial.max_abs_sum(terms))
    return _result("pauli_site_algebra", worst, OPERATOR_TOLERANCE, sites=n_sites, dim=dim)


def check_jw_anticommutation(n_sites: int) -> CheckResult:
    """{c_i, c_j} = 0, {c_i+, c_j+} = 0, {c_i, c_j+} = delta_ij."""
    cs = [oracle.Monomial.annihilation(n_sites, j) for j in range(n_sites)]
    daggers = [c.T for c in cs]
    minus_eye = oracle.Monomial.identity(1 << n_sites).scaled(-1.0)
    worst = 0.0
    for i in range(n_sites):
        for j in range(n_sites):
            worst = max(worst, oracle.Monomial.max_abs_sum([cs[i] @ cs[j], cs[j] @ cs[i]]))
            mixed = [cs[i] @ daggers[j], daggers[j] @ cs[i]]
            if i == j:
                mixed.append(minus_eye)
            worst = max(worst, oracle.Monomial.max_abs_sum(mixed))
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
    """[P, H] = 0, with P applied as row and column scaling."""
    ham = oracle.build_spin_hamiltonian(n_sites, g)
    parity = oracle.build_parity_operator(n_sites)
    deviation = np.abs(parity[:, None] * ham - ham * parity).max()
    return _result("parity_commutes", deviation, OPERATOR_TOLERANCE, sites=n_sites, g=g)


def check_jw_equals_pauli(n_sites: int, g: float) -> CheckResult:
    """The fermion-operator build reproduces the Pauli build entrywise."""
    deviation = np.abs(
        oracle.build_jw_hamiltonian(n_sites, g) - oracle.build_spin_hamiltonian(n_sites, g)
    ).max()
    return _result("jw_equals_pauli", deviation, JW_EQUALITY_TOLERANCE, sites=n_sites, g=g)


def check_sector_reassembly(n_sites: int, g: float) -> CheckResult:
    """Parity-projected diagonal forms sum back to the Hamiltonian."""
    report = oracle.verify_sector_hamiltonians(n_sites, g)
    detail = {"sites": n_sites, "g": g}
    if report.reassembly_deviation > report.tolerance:
        detail["entry"] = list(report.entry)
    return _result(
        "sector_reassembly",
        max(report.reassembly_deviation, report.spectrum_deviation),
        report.tolerance,
        **detail,
    )


def check_spectrum_reflection(n_sites: int, g: float) -> CheckResult:
    """Flipping the field preserves the spectrum (global spin flip).

    Even rings are bipartite, so their spectrum is additionally negated
    under the reflection; odd rings have no such sublattice rotation.
    """
    direct = oracle.eigvalsh(oracle.build_spin_hamiltonian(n_sites, g))
    flipped = oracle.eigvalsh(oracle.build_spin_hamiltonian(n_sites, -g))
    deviation = np.abs(direct - flipped).max()
    if n_sites % 2 == 0:
        deviation = max(deviation, np.abs(direct + flipped[::-1]).max())
    return _result("spectrum_reflection", deviation, REFLECTION_TOLERANCE, sites=n_sites, g=g)


def check_ground_agreement(n_sites: int, field_grid=None) -> list[CheckResult]:
    """Closed-form ground energy and state against one dense solve per field.

    Returns the ``energy_agreement`` result (lowest eigenvalue against
    N * ground_energy_density) and the ``state_overlap`` result (analytic
    ground state against the dense eigenvector, up to phase).  An empty
    grid raises ValueError: a check over no field would pass vacuously.
    """
    grid = default_field_grid(n_sites) if field_grid is None else field_grid
    if len(grid) == 0:
        raise ValueError("the field grid is empty; nothing would be checked")
    energy_worst = overlap_worst = 0.0
    for g in grid:
        pair = oracle.ground_eigenpair(oracle.build_spin_hamiltonian(n_sites, g))
        energy = n_sites * ground_energy_density(n_sites, g)
        energy_worst = max(energy_worst, abs(energy - pair.energy))
        overlap = abs(np.vdot(ground_state(n_sites, g).amplitudes, pair.vector))
        overlap_worst = max(overlap_worst, 1.0 - overlap)
    detail = {"sites": n_sites, "points": len(grid)}
    return [
        _result("energy_agreement", energy_worst, ENERGY_TOLERANCE, **detail),
        _result("state_overlap", overlap_worst, OVERLAP_TOLERANCE, **detail),
    ]


def run_verification(n_sites: int) -> VerificationReport:
    """Run every applicable check for one ring size.

    Operator-level audits run at SPOT_FIELDS; the energy and
    state comparisons share one dense solve per point of the default grid.
    The sector reassembly and the fermion-operator build are skipped above
    their size caps.
    """
    _validate_sites(n_sites, minimum=3, budget="verification suite")
    checks: list[CheckResult] = [
        check_pauli_site_algebra(n_sites),
        check_jw_anticommutation(n_sites),
        check_boundary_operator(n_sites),
    ]
    for g in SPOT_FIELDS:
        checks.append(check_parity_commutes(n_sites, g))
        if n_sites <= SIZE_LIMITS["fermion-operator build"]:
            checks.append(check_jw_equals_pauli(n_sites, g))
        if n_sites <= SIZE_LIMITS["sector reassembly audit"]:
            checks.append(check_sector_reassembly(n_sites, g))
        checks.append(check_spectrum_reflection(n_sites, g))
    checks.extend(check_ground_agreement(n_sites))
    return VerificationReport(sites=n_sites, checks=tuple(checks))
