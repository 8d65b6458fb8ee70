"""Dense brute-force reference for the XX ring.

Everything here manipulates explicit 2^N x 2^N matrices in the spin-z
product basis (bit j of the basis index = 1 for spin up = fermion at site
j, the same convention as the state-vector module).  It is deliberately
slow and memory-hungry: its job is to validate the closed-form modules at
desk scale, not to scale itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .analytic import _validate_field, _validate_index, _validate_sites, mode_cosine
from .errors import MismatchError, NoConvergence

#: Eigenvalue gaps below this flag a degenerate ground level.
DEGENERACY_GAP = 1e-9

#: Residual bound for the eigensolver, relative to the Frobenius norm.
RESIDUAL_TOLERANCE = 1e-10

#: Max-entry tolerance for the sector reassembly audit.
SECTOR_AUDIT_TOLERANCE = 1e-11

SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])   # diagonal over (down, up)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |down><up|
_IDENTITY_2 = np.eye(2)


@dataclass(frozen=True)
class GroundEigenpair:
    """Lowest eigenvalue of a symmetric matrix with its eigenvector.

    ``degenerate`` is set when the gap to the next level falls below
    DEGENERACY_GAP; the vector is then an arbitrary member of the ground
    eigenspace.
    """

    energy: float
    vector: np.ndarray
    degenerate: bool
    gap: float


@dataclass(frozen=True)
class SectorAuditReport:
    """Outcome of rebuilding the Hamiltonian from its parity-sector parts."""

    sites: int
    g: float
    reassembly_deviation: float
    spectrum_deviation: float
    tolerance: float


def _popcounts(n_sites: int) -> np.ndarray:
    b = np.arange(1 << n_sites)
    counts = np.zeros(b.shape, dtype=np.int64)
    for j in range(n_sites):
        counts += (b >> j) & 1
    return counts


def build_spin_hamiltonian(n_sites: int, g: float) -> np.ndarray:
    """Dense XX-ring Hamiltonian straight from the Pauli form (J = 1).

    Diagonal: -g * (#up - #down).  Off-diagonal: -1 between basis states
    that differ by swapping an adjacent up/down pair, including the bond
    closing the ring.  Real symmetric.
    """
    _validate_sites(n_sites, minimum=3, budget="dense spin Hamiltonian")
    _validate_field(g)
    dim = 1 << n_sites
    b = np.arange(dim)
    ham = np.zeros((dim, dim))
    ham[b, b] = -g * (2.0 * _popcounts(n_sites) - n_sites)
    for j in range(n_sites):
        jn = (j + 1) % n_sites
        pair = (1 << j) | (1 << jn)
        differs = (((b >> j) ^ (b >> jn)) & 1).astype(bool)
        rows = b[differs]
        ham[rows, rows ^ pair] = -1.0
    return ham


def site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site 2x2 operator into the full 2^N space."""
    _validate_sites(n_sites, minimum=3, budget="dense spin Hamiltonian")
    _validate_index(n_sites, site, "site index")
    factors = [_IDENTITY_2] * n_sites
    factors[n_sites - 1 - site] = op  # last Kronecker factor = least significant bit
    return reduce(np.kron, factors)


def jw_annihilation(n_sites: int, site: int) -> np.ndarray:
    """Fermion annihilation operator c_site = (prod_{l<site} sz_l) sigma^-_site."""
    _validate_sites(n_sites, minimum=3, budget="dense spin Hamiltonian")
    _validate_index(n_sites, site, "site index")
    factors = [_IDENTITY_2] * n_sites
    for l in range(site):
        factors[n_sites - 1 - l] = SIGMA_Z
    factors[n_sites - 1 - site] = SIGMA_MINUS
    return reduce(np.kron, factors)


def build_parity_operator(n_sites: int) -> np.ndarray:
    """Diagonal parity operator with entries -(-1)^(#down spins).

    +1 on states with an odd number of down spins, -1 on even; commutes
    with the Hamiltonian.
    """
    _validate_sites(n_sites, minimum=3, budget="dense spin Hamiltonian")
    n_down = n_sites - _popcounts(n_sites)
    return np.diag(-((-1.0) ** n_down))


def build_jw_hamiltonian(n_sites: int, g: float) -> np.ndarray:
    """The Hamiltonian assembled from explicit fermion operator matrices.

    Field term g (1 - 2 c_j c_j+), bulk hopping -(c_j c_{j+1}+ + h.c.), and
    the ring-closing bond carrying the parity factor: the periodic
    extension c_N = (parity of #down) * c_0 makes the boundary hopping
    enter as  -P (c_{N-1} c_0+ + c_0 c_{N-1}+).  Must reproduce
    build_spin_hamiltonian entrywise.
    """
    _validate_sites(n_sites, minimum=3, budget="fermion-operator build")
    _validate_field(g)
    dim = 1 << n_sites
    cs = [jw_annihilation(n_sites, j) for j in range(n_sites)]
    eye = np.eye(dim)
    ham = np.zeros((dim, dim))
    for j in range(n_sites):
        ham -= g * (eye - 2.0 * cs[j] @ cs[j].T)
    for j in range(n_sites - 1):
        ham -= cs[j] @ cs[j + 1].T + cs[j + 1] @ cs[j].T
    boundary = cs[n_sites - 1] @ cs[0].T + cs[0] @ cs[n_sites - 1].T
    ham -= build_parity_operator(n_sites) @ boundary
    return ham


def ground_eigenpair(hamiltonian: np.ndarray) -> GroundEigenpair:
    """Lowest eigenpair of a dense symmetric matrix.

    One full ``numpy.linalg.eigh`` solve (LAPACK ``syevd``); level 0 gives
    the eigenpair and level 1 the gap behind the degeneracy flag (infinite
    for a 1 x 1 matrix).  Input that is not a non-empty square matrix, or
    not symmetric within RESIDUAL_TOLERANCE times its Frobenius norm, raises
    ValueError.  The eigenpair is rejected with NoConvergence when the
    residual exceeds that same bound.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=float)
    shape = hamiltonian.shape
    if len(shape) != 2 or shape[0] != shape[1] or not hamiltonian.size:
        raise ValueError(f"need a non-empty square matrix, got shape {shape}")
    dim = shape[0]
    bound = RESIDUAL_TOLERANCE * np.linalg.norm(hamiltonian)
    asymmetry = np.linalg.norm(hamiltonian - hamiltonian.T)
    if asymmetry > bound:
        raise ValueError(f"matrix is not symmetric: |H - H^T| {asymmetry:.3e} exceeds {bound:.3e}")
    try:
        values, vectors = np.linalg.eigh(hamiltonian)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    energy = float(values[0])
    vector = vectors[:, 0]
    gap = float(values[1] - values[0]) if dim > 1 else math.inf
    residual = np.linalg.norm(hamiltonian @ vector - energy * vector)
    if residual > bound:
        raise NoConvergence(
            f"eigenpair residual {residual:.3e} exceeds {bound:.3e} "
            f"(dimension {dim}, energy {energy:.6g})"
        )
    return GroundEigenpair(
        energy=energy, vector=vector, degenerate=gap < DEGENERACY_GAP, gap=gap
    )


def _mode_number_operators(n_sites: int, alpha: float) -> list[np.ndarray]:
    """Number operators of the shifted-momentum modes, as dense matrices."""
    cs = [jw_annihilation(n_sites, j).astype(complex) for j in range(n_sites)]
    operators = []
    for k in range(n_sites):
        mode = sum(
            np.exp(-2j * np.pi * (k + alpha) * j / n_sites) * cs[j]
            for j in range(n_sites)
        ) / math.sqrt(n_sites)
        operators.append(mode.conj().T @ mode)
    return operators


def verify_sector_hamiltonians(n_sites: int, g: float) -> SectorAuditReport:
    """Rebuild H from its two parity-sector diagonal forms and compare.

    For each offset alpha the free-fermion form -2 sum_k (n_k - 1/2)
    [g - cos(2*pi*(alpha+k)/N)] is projected onto its own parity sector;
    the two projections must sum to the Pauli-form Hamiltonian.  Raises
    MismatchError (with the worst entry) beyond SECTOR_AUDIT_TOLERANCE.
    """
    _validate_sites(n_sites, minimum=3, budget="sector reassembly audit")
    _validate_field(g)
    dim = 1 << n_sites
    ham = build_spin_hamiltonian(n_sites, g)
    parity = build_parity_operator(n_sites)
    eye = np.eye(dim)
    projectors = {0.0: (eye + parity) / 2.0, 0.5: (eye - parity) / 2.0}

    reassembled = np.zeros((dim, dim), dtype=complex)
    for alpha, projector in projectors.items():
        diagonal_form = np.zeros((dim, dim), dtype=complex)
        for k, number_op in enumerate(_mode_number_operators(n_sites, alpha)):
            diagonal_form -= 2.0 * (number_op - 0.5 * eye) * (
                g - mode_cosine(n_sites, alpha, k)
            )
        reassembled += projector @ diagonal_form @ projector

    deviation = np.abs(reassembled - ham)
    worst = float(deviation.max())
    hermitian = (reassembled + reassembled.conj().T) / 2
    spectrum_deviation = float(
        np.abs(np.linalg.eigvalsh(ham) - np.linalg.eigvalsh(hermitian)).max()
    )
    if worst > SECTOR_AUDIT_TOLERANCE:
        row, col = np.unravel_index(int(deviation.argmax()), deviation.shape)
        raise MismatchError(
            f"sector reassembly deviates by {worst:.3e} at entry "
            f"({row}, {col}) for N = {n_sites}, g = {g}",
            max_deviation=worst,
            entry=(int(row), int(col)),
        )
    return SectorAuditReport(
        sites=n_sites,
        g=g,
        reassembly_deviation=worst,
        spectrum_deviation=spectrum_deviation,
        tolerance=SECTOR_AUDIT_TOLERANCE,
    )
