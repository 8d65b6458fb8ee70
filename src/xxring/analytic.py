"""Closed-form solution of the XX spin ring in a transverse field.

The model (J = 1, periodic boundary, site N identified with site 0) is

    H = -sum_i [ g sz_i + (sx_i sx_{i+1} + sy_i sy_{i+1}) / 2 ].

After fermionization the single-particle momenta live on a grid shifted by
a parity-dependent offset alpha: the allowed angles are 2*pi*(k + alpha)/N
with alpha = 0 when the number of holes N - n is odd and alpha = 1/2 when
it is even.  A configuration occupying modes K in the n-fermion sector has
energy density

    eps(K, g) = g (1 - 2n/N) + (2/N) sum_{k in K} cos(2*pi*(k + alpha)/N),

so the sector minimum picks the n angles closest to pi and evaluates to

    eps_min(n, g) = g (1 - 2n/N) - (2/N) sin(n*pi/N) / sin(pi/N).

Consecutive sector minima intersect at the level-crossing fields

    g_c(n) = [sin(n*pi/N) - sin((n+1)*pi/N)] / sin(pi/N),

the finite-size forerunners of the quantum phase transition at |g| = 1.
The lower envelope of the sector lines, obtained by minimizing over a
continuous filling, is controlled by the finite-size parameter

    chi_N = sin(pi/N) / (pi/N),

which tends to 1 from below and sets the O(1/N^2) relative error of the
finite ring against the thermodynamic ground-state energy density.

Everything in this module is a pure function of its arguments (double
precision throughout) and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple

from .errors import DegenerateAtCrossing, SingularPoint, SizeLimit

#: Fields closer than this to a level crossing count as degenerate.
CROSSING_TOLERANCE = 1e-12

#: Distance (in |g|*chi_N) from the envelope matching point treated as singular.
SINGULARITY_TOLERANCE = 1e-12

#: Largest ring each dense object may be built for.  The dense spin
#: Hamiltonian cap also covers the parity operator and the single-site and
#: fermion operators embedded in the full 2^N space.
SIZE_LIMITS = {
    "state vector": 14,  # 256 KiB of complex amplitudes
    "bipartition enumeration": 14,  # the cuts of the largest state vector
    "purity statistics": 12,  # C(N, N/2)/2 cuts per field, 462 at N = 12
    "dense spin Hamiltonian": 12,  # 4096 x 4096 dense matrices, Pauli or JW build
    "verification suite": 10,  # term checks; 2 N^2 2^N stacked operator pairs, 204,800 at N = 10
    "sector reassembly audit": 8,  # a dense complex 2^N sum; verify's N = 9 checks are pinned
}


# Named tuples, not dataclasses: ``dataclasses`` pulls in ``inspect`` and
# costs every closed-form process about 11 ms of import.
class ModeSet(namedtuple("ModeSet", ("n", "alpha", "modes"))):
    """Occupied fermionic momenta of a minimum-energy configuration.

    ``modes`` holds ``n`` distinct integers in ``[0, sites)``;
    ``occupied_modes`` returns them sorted ascending.  ``alpha`` is the
    parity-sector momentum offset in units of 2*pi/N, either 0 or 1/2.
    """

    __slots__ = ()


class CriticalPoint(namedtuple("CriticalPoint", ("n", "g_c"))):
    """Level-crossing field g_c(n) between the n- and (n+1)-fermion sectors."""

    __slots__ = ()


def _require_integer(value, what: str) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")


def _validate_sites(n_sites: int, minimum: int = 1, budget: str | None = None) -> None:
    """Reject a non-integer or too small ring, and one over SIZE_LIMITS[budget]."""
    _require_integer(n_sites, "number of sites")
    if n_sites < minimum:
        raise ValueError(f"number of sites must be >= {minimum}, got {n_sites}")
    if budget is not None and n_sites > SIZE_LIMITS[budget]:
        raise SizeLimit(f"{budget}: limited to {SIZE_LIMITS[budget]} sites, got {n_sites}")


def _validate_field(g: float) -> None:
    if not math.isfinite(g):
        raise ValueError(f"field g must be finite, got {g!r}")


def _validate_fermions(n_sites: int, n: int) -> None:
    _require_integer(n, "fermion count")
    if not 0 <= n <= n_sites:
        raise ValueError(f"fermion count must lie in [0, {n_sites}], got {n}")


def _validate_index(n_sites: int, index: int, what: str) -> None:
    _require_integer(index, what)
    if not 0 <= index < n_sites:
        raise ValueError(f"{what} must lie in [0, {n_sites}), got {index}")


def field_grid(g_min: float, g_max: float, steps: int) -> list[float]:
    """``steps`` evenly spaced fields from g_min to g_max, both ends included.

    The very doubles of ``numpy.linspace(g_min, g_max, steps)``: point i is
    i*step + g_min with step = (g_max - g_min)/(steps - 1), or
    i/(steps - 1)*(g_max - g_min) + g_min where the step rounds to zero (a
    denormal span), and the last point is g_max itself.  Raises ValueError
    for fewer than 2 steps and for a span g_max - g_min that overflows.
    """
    _require_integer(steps, "number of grid steps")
    if steps < 2:
        raise ValueError(f"a field grid needs at least 2 steps, got {steps}")
    start, stop = float(g_min), float(g_max)
    delta = stop - start
    if not math.isfinite(delta):
        raise ValueError(f"the span g_max - g_min of [{start!r}, {stop!r}] is not finite")
    div = steps - 1
    step = delta / div
    if step == 0.0:
        grid = [i / div * delta + start for i in range(steps)]
    else:
        grid = [i * step + start for i in range(steps)]
    grid[-1] = stop
    return grid


def finite_size_parameter(n_sites: int) -> float:
    """chi_N = sin(pi/N) / (pi/N).

    Strictly increasing in N and -> 1 as N -> infinity.  chi_1 = 0.
    """
    _validate_sites(n_sites)
    x = math.pi / n_sites
    return math.sin(x) / x


def alpha_for_sector(n_sites: int, n: int) -> float:
    """Momentum offset of the parity sector holding n fermions on N sites.

    The conserved quantity is the parity of the hole number N - n: odd hole
    number selects the unshifted grid (alpha = 0), even selects the
    half-step grid (alpha = 1/2).
    """
    _validate_sites(n_sites, minimum=3)
    _validate_fermions(n_sites, n)
    return 0.0 if (n_sites - n) % 2 == 1 else 0.5


def mode_cosine(n_sites: int, alpha: float, k: int) -> float:
    """cos(2*pi*(alpha + k)/N), the dispersion value of mode k (alpha = 0 or 1/2)."""
    _validate_sites(n_sites, minimum=3)
    _validate_index(n_sites, k, "mode index")
    if alpha not in (0.0, 0.5):
        raise ValueError(f"momentum offset alpha must be 0 or 1/2, got {alpha!r}")
    return math.cos(2.0 * math.pi * (alpha + k) / n_sites)


def occupied_modes(n_sites: int, n: int) -> ModeSet:
    """The n momenta that minimize the sector energy.

    Selects the modes whose angles 2*pi*(alpha + k)/N lie nearest pi, i.e.
    with the most negative cosine.  Exact cosine ties (possible only away
    from the ground sector's own filling) are broken toward smaller k.
    """
    _validate_sites(n_sites, minimum=3)
    _validate_fermions(n_sites, n)
    alpha = alpha_for_sector(n_sites, n)
    order = sorted(range(n_sites), key=lambda k: (mode_cosine(n_sites, alpha, k), k))
    return ModeSet(n=n, alpha=alpha, modes=tuple(sorted(order[:n])))


def single_particle_energy_density(n_sites: int, k: int, g: float) -> float:
    """Energy density with one fermion in mode k (one spin raised).

    Uses the one-particle sector's offset: alpha = 0 for even N, 1/2 for
    odd N.
    """
    _validate_sites(n_sites, minimum=3)
    _validate_index(n_sites, k, "mode index")
    _validate_field(g)
    alpha = alpha_for_sector(n_sites, 1)
    return g - (2.0 / n_sites) * (g - mode_cosine(n_sites, alpha, k))


def min_energy_density(n_sites: int, n: int, g: float) -> float:
    """Lowest energy density of the n-fermion sector.

    g (1 - 2n/N) - (2/N) sin(n*pi/N) / sin(pi/N); independent of the parity
    of N.  Reduces to g at n = 0 and to -g at n = N.
    """
    _validate_sites(n_sites, minimum=3)
    _validate_fermions(n_sites, n)
    _validate_field(g)
    return g * (1.0 - 2.0 * n / n_sites) - (
        2.0 / n_sites
    ) * math.sin(n * math.pi / n_sites) / math.sin(math.pi / n_sites)


@functools.lru_cache(maxsize=64)
def _crossing_fields(n_sites: int) -> tuple[float, ...]:
    """g_c(n) for n = 0..N from the closed form, computed once per N.

    The endpoints g_c(0) = -1 and g_c(N-1) = g_c(N) = +1 are set exactly;
    evaluating the sines there can miss them by an ulp and break the
    ordering of the sequence.
    """
    s = math.sin(math.pi / n_sites)
    inner = [
        (math.sin(n * math.pi / n_sites) - math.sin((n + 1) * math.pi / n_sites)) / s
        for n in range(1, n_sites - 1)
    ]
    return (-1.0, *inner, 1.0, 1.0)


def critical_points(n_sites: int) -> list[CriticalPoint]:
    """All level-crossing fields g_c(n), n = 0..N.

    g_c(0) = -1 and g_c(N) = +1 for every N.  The sequence increases
    strictly up to n = N - 1; the final pair coincides, g_c(N-1) = g_c(N)
    = +1 exactly, because the formula evaluated at n = N extrapolates past
    the last physical sector.
    """
    _validate_sites(n_sites, minimum=3)
    return [CriticalPoint(n=n, g_c=gc) for n, gc in enumerate(_crossing_fields(n_sites))]


def _sector_count(n_sites: int, g: float) -> int:
    """Number of physical crossings below g; equals the ground-state filling."""
    fields = _crossing_fields(n_sites)[:n_sites]
    return sum(1 for gc in fields if gc < g)


def ground_sector(n_sites: int, g: float) -> int:
    """Fermion number of the ground state at field g.

    Returns the unique n with g_c(n-1) < g < g_c(n); 0 below g = -1 and N
    above g = +1.  Raises DegenerateAtCrossing when g sits within
    CROSSING_TOLERANCE of a crossing, where two sectors tie, and
    ValueError for a non-finite g.
    """
    _validate_sites(n_sites, minimum=3)
    _validate_field(g)
    for gc in _crossing_fields(n_sites):
        if abs(g - gc) <= CROSSING_TOLERANCE:
            raise DegenerateAtCrossing(
                f"g = {g!r} lies on the level crossing at g_c = {gc!r} "
                f"(N = {n_sites}); the ground state is two-fold degenerate"
            )
    return _sector_count(n_sites, g)


def ground_energy_density(n_sites: int, g: float) -> float:
    """Ground-state energy per site: the minimum over all sector lines.

    Total at crossings: both adjacent sectors give the same value there, so
    no degeneracy error is raised.
    """
    _validate_sites(n_sites, minimum=3)
    _validate_field(g)
    return min_energy_density(n_sites, _sector_count(n_sites, g), g)


def _envelope(g: float, chi: float) -> float:
    """The envelope formula at finite-size parameter chi (1 for the infinite chain)."""
    u = g * chi
    if abs(u) >= 1.0:
        return -abs(g)
    return g * (1.0 - 2.0 / math.pi * math.acos(-u)) - (
        2.0 / math.pi
    ) * math.sqrt(1.0 - u * u) / chi


def envelope_energy(n_sites: int, g: float) -> float:
    """Lower envelope of the sector lines (continuous-filling minimum).

    Smooth for |g| < 1/chi_N, equal to -|g| beyond; value and first
    derivative are continuous at the matching points.
    """
    _validate_sites(n_sites, minimum=3)
    _validate_field(g)
    return _envelope(g, finite_size_parameter(n_sites))


def envelope_second_derivative(n_sites: int, g: float) -> float:
    """Second derivative of the envelope.

    -(2/pi) chi_N / sqrt(1 - g^2 chi_N^2) inside the matching points, zero
    outside; diverges to -infinity as |g| approaches 1/chi_N from inside.
    Raises SingularPoint within SINGULARITY_TOLERANCE of |g| = 1/chi_N.
    """
    _validate_sites(n_sites, minimum=3)
    _validate_field(g)
    chi = finite_size_parameter(n_sites)
    u = abs(g) * chi
    if abs(u - 1.0) <= SINGULARITY_TOLERANCE:
        raise SingularPoint(
            f"second derivative of the envelope diverges at |g| = 1/chi_N "
            f"(N = {n_sites}, g = {g!r})"
        )
    if u > 1.0:
        return 0.0
    return -(2.0 / math.pi) * chi / math.sqrt(1.0 - u * u)


def thermodynamic_energy(g: float) -> float:
    """Ground-state energy density of the infinite chain.

    The N -> infinity limit of the envelope; equals the envelope formula
    with chi = 1.
    """
    _validate_field(g)
    return _envelope(g, 1.0)


def relative_error(n_sites: int) -> float:
    """Relative deviation of the finite-ring energy from the infinite chain.

    -(1/chi_N - 1), evaluated at g = 0; asymptotically -pi^2 / (6 N^2).
    Negative for every finite N and vanishing as N grows.
    """
    _validate_sites(n_sites, minimum=2)
    return -(1.0 / finite_size_parameter(n_sites) - 1.0)
