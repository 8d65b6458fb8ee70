"""Bipartite purity statistics of the ground state over balanced cuts.

For a pure state split into subsystems A and B, the purity of the reduced
state, Tr rho_A^2, equals the squared Frobenius norm of M M+ where M is
the amplitude array arranged as 2^|A| x 2^|B|.  It ranges from 2^-|A| for
a maximally mixed reduction up to 1 for a product state, so smaller purity
means a more entangled cut.  Aggregating the purity over every balanced
bipartition gives a two-number fingerprint of multipartite entanglement:
the mean mu (amount) and the standard deviation sigma (how evenly it is
shared).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .analytic import (
    _crossing_fields,
    _require_integer,
    _validate_sites,
    field_grid,
    ground_sector,
)
from .errors import DimensionMismatch
from .statevector import StateVector, ground_state

#: Grid points closer than this to a crossing get nudged during sweeps.
SWEEP_CROSSING_RADIUS = 1e-9
SWEEP_NUDGE = 1e-6

_CHUNK_AMPLITUDES = 1 << 12  # amplitudes gathered per chunk of cuts (at least 2 cuts)


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

    def __post_init__(self):
        _validate_sites(self.sites, minimum=3, budget="bipartition enumeration")
        _require_integer(self.mask, "mask")
        if not 0 < self.mask < (1 << self.sites):
            raise ValueError(f"mask {self.mask:#x} does not fit {self.sites} sites")
        size = self.mask.bit_count()
        if size not in (self.sites // 2, (self.sites + 1) // 2):
            raise ValueError(
                f"mask selects {size} sites; a balanced split of {self.sites} "
                f"needs {self.sites // 2} or {(self.sites + 1) // 2}"
            )

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
    return [Bipartition(int(n_sites), mask) for mask in _balanced_cuts(int(n_sites))]


@functools.lru_cache(maxsize=None)  # one entry per ring size the budget allows
def _balanced_cuts(n_sites: int) -> tuple[int, ...]:
    """The masks of balanced_bipartitions as plain ints, ascending."""
    step = 2 - n_sites % 2  # even N: odd masks only, so site 0 is in A
    return tuple(m for m in range(1, 1 << n_sites, step) if m.bit_count() == n_sites // 2)


def _index_tables(n_sites: int, masks: list[int]) -> list[np.ndarray]:
    """Per cut, the basis bits of each row and each column of its amplitude matrix.

    Row bit i stands for the i-th smallest site of A, column bit i for B's.
    """
    in_a = (np.array(masks)[:, None] >> np.arange(n_sites)) & 1
    tables = []
    for members in (in_a, 1 - in_a):
        count = int(members[0].sum())
        sites = np.nonzero(members)[1].reshape(len(masks), count)
        local_bits = (np.arange(1 << count)[:, None] >> np.arange(count)) & 1
        tables.append((1 << sites) @ local_bits.T)
    return tables


def _purities(amplitudes: np.ndarray, n_sites: int, masks: list[int]) -> np.ndarray:
    """Tr rho_A^2 of each cut; every mask selects the same number of sites.

    A chunk of cuts is gathered as amplitudes[rows | cols] at once, and all
    its Gram matrices come from one stacked product on the smaller side.
    """
    rows, cols = _index_tables(n_sites, masks)
    chunk = max(2, _CHUNK_AMPLITUDES >> n_sites)
    values = np.empty(len(masks))
    for start in range(0, len(masks), chunk):
        part = slice(start, start + chunk)
        matrices = amplitudes[rows[part, :, None] | cols[part, None, :]]
        adjoints = matrices.conj().transpose(0, 2, 1)
        gram = matrices @ adjoints if rows.shape[1] <= cols.shape[1] else adjoints @ matrices
        values[part] = (np.abs(gram) ** 2).sum(axis=(1, 2))
    return values


def purity(state: StateVector, bipartition: Bipartition) -> float:
    """Tr rho_A^2 of the state reduced to the masked subsystem.

    The squared Frobenius norm of the Gram matrix, on the smaller side, of
    the 2^|A| x 2^|B| amplitude matrix M[r, c] = amplitudes[rows[r] | cols[c]]:
    row bit i stands for the i-th smallest site of A, column bit i for the
    i-th smallest site of B.  This is the one-cut case of the stacked kernel
    behind ``purity_stats``, so both give the same bits.
    """
    if state.sites != bipartition.sites:
        raise DimensionMismatch(
            f"state has {state.sites} sites but the bipartition has "
            f"{bipartition.sites}"
        )
    return float(_purities(state.amplitudes, state.sites, [bipartition.mask])[0])


def purity_stats(n_sites: int, g: float) -> PurityStats:
    """Purity of every balanced cut of the ground state at field g.

    One call of the kernel behind ``purity``: a gather and a stacked Gram
    product per chunk of cuts, with the bits of ``purity`` on each cut.
    """
    _validate_sites(n_sites, minimum=3, budget="purity statistics")
    state = ground_state(n_sites, g)
    masks = _balanced_cuts(int(n_sites))
    samples = _purities(state.amplitudes, state.sites, masks)
    return PurityStats(
        g=float(g),
        n=state.n,
        purities=tuple(zip(masks, samples.tolist())),
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
    grid = field_grid(g_min, g_max, steps)  # refuses an end that is not a finite double
    if not g_min < g_max:
        raise ValueError(f"need g_min < g_max, got [{g_min}, {g_max}]")
    grid = [_nudge_off_crossings(n_sites, g) for g in grid]
    by_sector: dict[int, PurityStats] = {}
    results = []
    for g in grid:
        n = ground_sector(n_sites, g)
        if n not in by_sector:
            by_sector[n] = purity_stats(n_sites, g)
        stats = by_sector[n]
        results.append(PurityStats(float(g), n, stats.purities, stats.mu, stats.sigma))
    return results
