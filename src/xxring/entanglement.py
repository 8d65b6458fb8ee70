"""Bipartite purity statistics of the ground state over balanced cuts.

For a pure state split into subsystems A and B, the purity of the reduced
state, Tr rho_A^2, equals the squared Frobenius norm of M M+ where M is
the amplitude array reshaped to 2^|A| x 2^|B|.  It ranges from 2^-|A| for
a maximally mixed reduction up to 1 for a product state, so smaller purity
means a more entangled cut.  Aggregating the purity over every balanced
bipartition gives a two-number fingerprint of multipartite entanglement:
the mean mu (amount) and the standard deviation sigma (how evenly it is
shared).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    _crossing_fields,
    _validate_field,
    _validate_sites,
    field_grid,
    ground_sector,
)
from .errors import DimensionMismatch
from .statevector import StateVector, ground_state

#: Grid points closer than this to a crossing get nudged during sweeps.
SWEEP_CROSSING_RADIUS = 1e-9
SWEEP_NUDGE = 1e-6


@dataclass(frozen=True)
class Bipartition:
    """A split of the ring: set bits of ``mask`` form subsystem A.

    Only balanced splits are allowed: A holds floor(N/2) or ceil(N/2)
    sites.  The generator below canonicalizes even-N splits so that site 0
    is in A; complements stay constructible because purity is symmetric
    under swapping the two sides.
    """

    sites: int
    mask: int
    #: The amplitude tensor's axes with A's before B's, each side ascending:
    #: the transpose that ``purity`` applies (axis k is site N-1-k).
    axes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.mask < (1 << self.sites):
            raise ValueError(f"mask {self.mask:#x} does not fit {self.sites} sites")
        size = self.mask.bit_count()
        if size not in (self.sites // 2, (self.sites + 1) // 2):
            raise ValueError(
                f"mask selects {size} sites; a balanced split of {self.sites} "
                f"needs {self.sites // 2} or {(self.sites + 1) // 2}"
            )
        a_axes = [k for k in range(self.sites) if (self.mask >> (self.sites - 1 - k)) & 1]
        b_axes = [k for k in range(self.sites) if k not in a_axes]
        object.__setattr__(self, "axes", (*a_axes, *b_axes))

    @property
    def size_a(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class PurityStats:
    """Purity of every balanced cut at one field value, with mu and sigma.

    ``sigma`` is the population standard deviation: the balanced cuts form
    the complete ensemble, not a sample.
    """

    g: float
    n: int
    purities: tuple[tuple[int, float], ...]
    mu: float
    sigma: float


def balanced_bipartitions(n_sites: int) -> list[Bipartition]:
    """Every balanced cut, in ascending mask order.

    Even N: masks with N/2 bits set and bit 0 set, one per unordered pair
    {A, B}, C(N, N/2)/2 in total.  Odd N: all masks with (N-1)/2 bits set,
    C(N, (N-1)/2) in total.
    """
    _validate_sites(n_sites, minimum=3, budget="bipartition enumeration")
    return list(_balanced_cuts(int(n_sites)))


@functools.lru_cache(maxsize=None)  # one entry per ring size the budget allows
def _balanced_cuts(n_sites: int) -> tuple[Bipartition, ...]:
    size_a = n_sites // 2
    even = n_sites % 2 == 0
    return tuple(
        Bipartition(sites=n_sites, mask=mask)
        for mask in range(1, 1 << n_sites)
        if mask.bit_count() == size_a and (not even or mask & 1)
    )


def purity(state: StateVector, bipartition: Bipartition) -> float:
    """Tr rho_A^2 of the state reduced to the masked subsystem.

    The amplitudes are viewed as a rank-N tensor of shape (2,) * N, whose
    axis k is site N-1-k; moving the A axes before the B axes (each kept in
    ascending order: ``bipartition.axes``) and flattening gives the
    2^|A| x 2^|B| matrix M with site order preserved on both sides.  The
    Gram matrix is formed on the smaller side; the purity is its squared
    Frobenius norm.
    """
    if state.sites != bipartition.sites:
        raise DimensionMismatch(
            f"state has {state.sites} sites but the bipartition has "
            f"{bipartition.sites}"
        )
    tensor = state.amplitudes.reshape((2,) * state.sites)
    matrix = tensor.transpose(bipartition.axes).reshape(1 << bipartition.size_a, -1)
    if matrix.shape[0] <= matrix.shape[1]:
        gram = matrix @ matrix.conj().T
    else:
        gram = matrix.conj().T @ matrix
    return float((np.abs(gram) ** 2).sum())


def purity_stats(n_sites: int, g: float) -> PurityStats:
    """Purity of every balanced cut of the ground state at field g."""
    _validate_sites(n_sites, minimum=3, budget="purity statistics")
    state = ground_state(n_sites, g)
    values = [
        (part.mask, purity(state, part)) for part in balanced_bipartitions(n_sites)
    ]
    samples = np.array([v for _, v in values])
    return PurityStats(
        g=float(g),
        n=state.n,
        purities=tuple(values),
        mu=float(samples.mean()),
        sigma=float(samples.std()),
    )


def _nudge_off_crossings(n_sites: int, g: float) -> float:
    fields = _crossing_fields(n_sites)
    if any(abs(g - gc) <= SWEEP_CROSSING_RADIUS for gc in fields):
        return g + SWEEP_NUDGE
    return g


def entanglement_sweep(
    n_sites: int,
    g_min: float,
    g_max: float,
    steps: int,
) -> list[PurityStats]:
    """Purity statistics over a uniform field grid.

    Grid points landing on a level crossing are nudged by +1e-6 instead of
    failing, so the sweep is total; a span g_max - g_min that overflows
    raises ValueError.  The ground state depends on g only through its
    sector n = ground_sector(N, g), so the cuts are evaluated once per
    sector and every other grid point of that sector reuses them with its
    own g.
    """
    _validate_sites(n_sites, minimum=3, budget="purity statistics")
    _validate_field(g_min)
    _validate_field(g_max)
    if not g_min < g_max:
        raise ValueError(f"need g_min < g_max, got [{g_min}, {g_max}]")
    grid = [_nudge_off_crossings(n_sites, g) for g in field_grid(g_min, g_max, steps)]
    by_sector: dict[int, PurityStats] = {}
    results = []
    for g in grid:
        n = ground_sector(n_sites, g)
        if n not in by_sector:
            by_sector[n] = purity_stats(n_sites, g)
        stats = by_sector[n]
        results.append(PurityStats(float(g), n, stats.purities, stats.mu, stats.sigma))
    return results
