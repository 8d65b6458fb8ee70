"""Exact solution of the finite XX spin ring.

Closed-form spectrum and critical points, explicit ground-state vectors,
balanced-bipartition purity statistics, and a dense brute-force oracle that
cross-validates all of it at small sizes.

``import xxring`` loads no numpy: the closed forms of ``analytic`` need only
``math``.  The numpy-backed modules ``statevector``, ``entanglement``,
``oracle`` and ``verify`` are registered in ``sys.modules`` and bound on the
package at import, but each one runs (and loads numpy) on the first
attribute read from it.  Their public names are re-exported lazily too, so
``xxring.ground_state`` is the very object ``xxring.statevector.ground_state``.
"""

import sys as _sys
from importlib import util as _importlib_util
from types import ModuleType as _ModuleType

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
from .errors import (
    DegenerateAtCrossing,
    DimensionMismatch,
    NoConvergence,
    SingularPoint,
    SizeLimit,
    XXRingError,
)

#: The public names imported above; the ``analytic`` and ``errors`` submodule
#: bindings those imports leave on the package are not exports.
_EAGER_EXPORTS = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]


def _lazy_submodule(name: str):
    """Register xxring.<name> so that its body runs on first attribute access."""
    spec = _importlib_util.find_spec(f"{__name__}.{name}")
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


statevector = _lazy_submodule("statevector")
entanglement = _lazy_submodule("entanglement")
oracle = _lazy_submodule("oracle")
verify = _lazy_submodule("verify")

#: Home module of each public name the lazily loaded modules export.
_LAZY_EXPORTS = {
    "StateVector": statevector,
    "ground_state": statevector,
    "Bipartition": entanglement,
    "PurityStats": entanglement,
    "balanced_bipartitions": entanglement,
    "entanglement_sweep": entanglement,
    "purity": entanglement,
    "purity_stats": entanglement,
    "build_jw_hamiltonian": oracle,
    "build_parity_operator": oracle,
    "build_spin_hamiltonian": oracle,
    "ground_eigenpair": oracle,
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY_EXPORTS})


__version__ = "0.1.0"

__all__ = [*_EAGER_EXPORTS, *_LAZY_EXPORTS]
