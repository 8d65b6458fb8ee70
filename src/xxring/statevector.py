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

The C(N, n) determinants are assembled in chunks of at most
``_CHUNK_ENTRIES`` matrix entries, so the working memory beside the 2^N
amplitudes and the sector's positions is a fixed few hundred KiB, not
C(N, n) n^2 complex entries.  Every matrix is factored on its own, so the
chunking moves no bit; every sector up to N = 10 is a single chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import ModeSet, _validate_sites, ground_sector, occupied_modes

_CHUNK_ENTRIES = 1 << 13  # determinant entries per chunk; C(10, 6) 6^2 = 7560 fits in one


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


def _sector_indices(n_sites: int, n: int) -> np.ndarray:
    """Basis indices with n bits set, ascending (colexicographic position sets)."""
    basis = np.arange(1 << n_sites)
    return basis[np.bitwise_count(basis) == n]


def ground_state(n_sites: int, g: float) -> StateVector:
    """Normalized ground state of the N-site ring at field g.

    Fully polarized below g = -1 (index 0) and above g = +1 (index
    2^N - 1); in between, a superposition over all C(N, n) placements of
    the n = ground_sector(N, g) fermions, one determinant per placement,
    filled in ascending basis order one chunk of rows at a time, then
    normalized over all 2^N entries.  Raises DegenerateAtCrossing on a
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

    masks = _sector_indices(n_sites, n)
    positions = np.empty((len(masks), n))
    rest = masks.copy()
    for k in range(n):  # fermion k sits at the lowest set bit left in the mask
        lowest = rest & -rest
        positions[:, k] = np.bitwise_count(lowest - 1)
        rest ^= lowest
    modes = occupied_modes(n_sites, n)
    rows = max(1, _CHUNK_ENTRIES // (n * n))
    for start in range(0, len(masks), rows):
        part = slice(start, start + rows)
        amplitudes[masks[part]] = _slater_amplitudes(n_sites, modes, positions[part])
    amplitudes /= np.linalg.norm(amplitudes)
    return StateVector(sites=n_sites, n=n, amplitudes=amplitudes)
