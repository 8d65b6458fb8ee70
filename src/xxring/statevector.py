"""Exact ground-state vectors of the XX ring in the spin-z product basis.

Basis convention, shared with the dense oracle: basis index b has bit j set
exactly when the spin at site j points up, i.e. when a fermion occupies
site j.  The all-down state is index 0.

In the n-fermion sector the ground state assigns to each occupied-site set
{j_1 < ... < j_n} an amplitude proportional to

    (-1)^(j_1 + ... + j_n) * det[ exp(2*pi*i (k_a + alpha) j_b / N) ]_{a,b}

with {k_a} the minimum-energy momenta of the sector.  The determinant is
the antisymmetrized plane-wave sum over fermion placements; the sign factor
collects the spin-z strings that order the fermions along the ring.  The
vector is normalized numerically after assembly, so only the ray is
meaningful; no global-phase convention is imposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import ModeSet, alpha_for_sector, ground_sector, occupied_modes
from .analytic import _validate_index, _validate_sites


@dataclass(frozen=True)
class StateVector:
    """2^sites complex amplitudes over the spin-z product basis.

    ``n`` is the fermion number (count of up spins) of the sector the
    amplitudes live in.
    """

    sites: int
    n: int
    amplitudes: np.ndarray


def _slater_amplitudes(n_sites: int, modes: ModeSet, positions: np.ndarray) -> np.ndarray:
    """Unnormalized amplitudes, one per row of sorted fermion positions."""
    kv = np.asarray(modes.modes, dtype=float) + modes.alpha
    matrices = np.exp(
        (2j * np.pi / n_sites) * kv[None, :, None] * positions[:, None, :]
    )
    signs = 1.0 - 2.0 * (positions.sum(axis=1).astype(int) & 1)
    return signs * np.linalg.det(matrices)


def slater_amplitude(n_sites: int, modes: ModeSet, positions: Sequence[int]) -> complex:
    """Unnormalized ground-state amplitude for fermions at the given sites.

    ``modes`` must belong to the ring: ``modes.n`` distinct modes in
    [0, N) and the offset ``alpha_for_sector(N, modes.n)``.  ``positions``
    must be sorted, distinct and inside [0, N), with exactly ``modes.n``
    entries.  Computed as an n x n determinant (LU under the hood), not by
    permutation enumeration.
    """
    _validate_sites(n_sites, minimum=3)
    for k in modes.modes:
        _validate_index(n_sites, k, "mode index")
    if len(set(modes.modes)) != len(modes.modes) or len(modes.modes) != modes.n:
        raise ValueError(f"expected {modes.n} distinct modes, got {modes.modes}")
    if modes.alpha != alpha_for_sector(n_sites, modes.n):
        raise ValueError(
            f"offset alpha = {modes.alpha!r} does not belong to the {modes.n}-fermion "
            f"sector of a {n_sites}-site ring"
        )
    pos = list(positions)
    if len(pos) != modes.n:
        raise ValueError(
            f"expected {modes.n} positions for a {modes.n}-fermion amplitude, got {len(pos)}"
        )
    if any(not 0 <= j < n_sites for j in pos):
        raise ValueError(f"positions must lie in [0, {n_sites}): {pos}")
    if any(a >= b for a, b in zip(pos, pos[1:])):
        raise ValueError(f"positions must be strictly increasing: {pos}")
    return complex(_slater_amplitudes(n_sites, modes, np.array([pos], dtype=float))[0])


def ground_state(n_sites: int, g: float) -> StateVector:
    """Normalized ground state of the N-site ring at field g.

    Fully polarized below g = -1 (index 0) and above g = +1 (index
    2^N - 1); in between, a superposition over all C(N, n) placements of
    the n = ground_sector(N, g) fermions.  Raises DegenerateAtCrossing on a
    level crossing and SizeLimit above the "state vector" size limit.
    """
    _validate_sites(n_sites, minimum=3, budget="state vector")
    n = ground_sector(n_sites, g)
    dim = 1 << n_sites
    amplitudes = np.zeros(dim, dtype=complex)
    if n == 0:
        amplitudes[0] = 1.0
        return StateVector(sites=n_sites, n=n, amplitudes=amplitudes)
    if n == n_sites:
        amplitudes[dim - 1] = 1.0
        return StateVector(sites=n_sites, n=n, amplitudes=amplitudes)

    # Ascending bitmask order == colexicographic order of position sets;
    # fixed ordering keeps the output bit-identical however work is split.
    masks = [m for m in range(dim) if m.bit_count() == n]
    positions = np.array(
        [[j for j in range(n_sites) if (m >> j) & 1] for m in masks], dtype=float
    )
    amplitudes[masks] = _slater_amplitudes(n_sites, occupied_modes(n_sites, n), positions)
    amplitudes /= np.linalg.norm(amplitudes)
    return StateVector(sites=n_sites, n=n, amplitudes=amplitudes)
