"""Exact solution of the finite XX spin ring.

Closed-form spectrum and critical points, explicit ground-state vectors,
balanced-bipartition purity statistics, and a dense brute-force oracle that
cross-validates all of it at small sizes.
"""

from .analytic import (
    CriticalPoint,
    ModeSet,
    alpha_for_sector,
    critical_points,
    envelope_energy,
    envelope_second_derivative,
    finite_size_parameter,
    ground_energy_density,
    ground_sector,
    min_energy_density,
    occupied_modes,
    relative_error,
    thermodynamic_energy,
)
from .entanglement import (
    Bipartition,
    PurityStats,
    balanced_bipartitions,
    entanglement_sweep,
    purity,
    purity_stats,
)
from .errors import (
    DegenerateAtCrossing,
    DimensionMismatch,
    MismatchError,
    NoConvergence,
    SingularPoint,
    SizeLimit,
    XXRingError,
)
from .oracle import (
    build_jw_hamiltonian,
    build_parity_operator,
    build_spin_hamiltonian,
    ground_eigenpair,
    verify_sector_hamiltonians,
)
from .statevector import StateVector, ground_state, slater_amplitude

__version__ = "0.1.0"

__all__ = [
    "CriticalPoint",
    "ModeSet",
    "StateVector",
    "Bipartition",
    "PurityStats",
    "alpha_for_sector",
    "balanced_bipartitions",
    "build_jw_hamiltonian",
    "build_parity_operator",
    "build_spin_hamiltonian",
    "critical_points",
    "entanglement_sweep",
    "envelope_energy",
    "envelope_second_derivative",
    "finite_size_parameter",
    "ground_eigenpair",
    "ground_energy_density",
    "ground_sector",
    "ground_state",
    "min_energy_density",
    "occupied_modes",
    "purity",
    "purity_stats",
    "relative_error",
    "slater_amplitude",
    "thermodynamic_energy",
    "verify_sector_hamiltonians",
    "DegenerateAtCrossing",
    "DimensionMismatch",
    "MismatchError",
    "NoConvergence",
    "SingularPoint",
    "SizeLimit",
    "XXRingError",
]
