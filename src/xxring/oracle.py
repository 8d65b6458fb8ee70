"""Brute-force reference for the XX ring.

Everything here works in the spin-z product basis of 2^N states (bit j of
the basis index = 1 for spin up = fermion at site j, the same convention as
the state-vector module).  Its job is to validate the closed-form modules at
desk scale, not to scale itself.

The site operators sigma^+-, sigma^z and the Jordan-Wigner c_j are monomial
matrices: each column holds at most one nonzero.  They are built and
multiplied as ``Monomial`` pairs of arrays, so products, transposes and
diagonal scalings are gathers (the bit-operation form of A. W. Sandvik,
arXiv:1101.3281, sec. 4.1).  The parity operator is diagonal and is returned
as its vector of +-1 entries.  Hamiltonians are dense, and every eigensolve
splits the matrix into the connected blocks of its own nonzero pattern and
solves each block on its own (H. Q. Lin, PRB 42, 6561 (1990)); for the XX
ring these blocks are the N + 1 fermion-number sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _validate_field, _validate_index, _validate_sites, mode_cosine
from .errors import NoConvergence

#: Eigenvalue gaps below this flag a degenerate ground level.
DEGENERACY_GAP = 1e-9

#: Residual bound for the eigensolver, relative to the Frobenius norm.
RESIDUAL_TOLERANCE = 1e-10

#: Max-entry tolerance for the sector reassembly audit.
SECTOR_AUDIT_TOLERANCE = 1e-11

SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])   # diagonal over (down, up)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |down><up|


class Monomial:
    """A 2^N x 2^N matrix with at most one nonzero in each column.

    Column b holds ``coeff[b]`` in row ``target[b]``; ``target`` is a
    permutation of the basis, and a zero coefficient leaves its column empty.
    A plain class: a dataclass would add about 0.7 ms to every import.
    """

    __slots__ = ("target", "coeff")

    def __init__(self, target: np.ndarray, coeff: np.ndarray):
        self.target = target
        self.coeff = coeff

    @classmethod
    def identity(cls, dim: int) -> Monomial:
        return cls(np.arange(dim), np.ones(dim))

    @classmethod
    def site(cls, op, site: int, n_sites: int, *, flip: bool = False) -> Monomial:
        """The diagonal part of a 2x2 site operator; with ``flip``, its off-diagonal part."""
        _validate_sites(n_sites, minimum=3, budget="dense spin Hamiltonian")
        _validate_index(n_sites, site, "site index")
        basis = np.arange(1 << n_sites)
        bit = (basis >> site) & 1
        op = np.asarray(op)
        if flip:
            return cls(basis ^ (1 << site), op[1 - bit, bit])
        return cls(basis, op[bit, bit])

    @classmethod
    def annihilation(cls, n_sites: int, site: int) -> Monomial:
        """Fermion annihilation operator c_site = (prod_{l<site} sz_l) sigma^-_site."""
        c = cls.site(SIGMA_MINUS, site, n_sites, flip=True)
        for l in range(site):
            c = cls.site(SIGMA_Z, l, n_sites) @ c
        return c

    def __matmul__(self, other: Monomial) -> Monomial:
        return Monomial(self.target[other.target], self.coeff[other.target] * other.coeff)

    @property
    def T(self) -> Monomial:
        source = np.empty_like(self.target)
        source[self.target] = np.arange(self.target.size)
        return Monomial(source, self.coeff[source])

    def scaled(self, factor) -> Monomial:
        """factor * A for a scalar factor; diag(factor) @ A for a vector of row factors."""
        factor = np.asarray(factor)
        return Monomial(self.target, (factor[self.target] if factor.ndim else factor) * self.coeff)

    @staticmethod
    def dense_sum(terms: list[Monomial]) -> np.ndarray:
        """The sum of the terms as one dense matrix, added up in the order given."""
        columns = np.arange(terms[0].target.size)
        dense = np.zeros((columns.size,) * 2, dtype=np.result_type(*(t.coeff for t in terms)))
        for term in terms:
            dense[term.target, columns] += term.coeff
        return dense

    @staticmethod
    def max_abs_sum(terms: list[Monomial]) -> float:
        """Largest |entry| of the sum of the terms, summed over the cells they occupy only."""
        dim = terms[0].target.size
        cells = np.concatenate([term.target * dim + np.arange(dim) for term in terms])
        _, slot = np.unique(cells, return_inverse=True)
        sums = np.bincount(slot, weights=np.concatenate([term.coeff for term in terms]))
        return float(np.abs(sums).max())


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
    """Outcome of rebuilding the Hamiltonian from its parity-sector parts.

    ``entry`` is the (row, column) of the largest reassembly deviation.
    """

    sites: int
    g: float
    reassembly_deviation: float
    spectrum_deviation: float
    tolerance: float
    entry: tuple[int, int]


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
    """Embed a single-site 2x2 operator into the full 2^N space, as a dense matrix."""
    return Monomial.dense_sum(
        [Monomial.site(op, site, n_sites), Monomial.site(op, site, n_sites, flip=True)]
    )


def jw_annihilation(n_sites: int, site: int) -> np.ndarray:
    """Fermion annihilation operator c_site = (prod_{l<site} sz_l) sigma^-_site, dense."""
    return Monomial.dense_sum([Monomial.annihilation(n_sites, site)])


def build_parity_operator(n_sites: int) -> np.ndarray:
    """Diagonal of the parity operator, -(-1)^(#down spins), as a vector.

    +1 on states with an odd number of down spins, -1 on even; the operator
    commutes with the Hamiltonian.  Apply it as ``parity[:, None] * A``
    (rows) or ``A * parity`` (columns).
    """
    _validate_sites(n_sites, minimum=3, budget="dense spin Hamiltonian")
    n_down = n_sites - _popcounts(n_sites)
    return -((-1.0) ** n_down)


def build_jw_hamiltonian(n_sites: int, g: float) -> np.ndarray:
    """The Hamiltonian assembled from explicit fermion operators.

    Field term g (1 - 2 c_j c_j+), bulk hopping -(c_j c_{j+1}+ + h.c.), and
    the ring-closing bond carrying the parity factor: the periodic
    extension c_N = (parity of #down) * c_0 makes the boundary hopping
    enter as  -P (c_{N-1} c_0+ + c_0 c_{N-1}+).  Every term is a monomial
    product; only their sum is made dense.  Must reproduce
    build_spin_hamiltonian entrywise.
    """
    _validate_sites(n_sites, minimum=3, budget="fermion-operator build")
    _validate_field(g)
    cs = [Monomial.annihilation(n_sites, j) for j in range(n_sites)]
    terms = []
    for c in cs:
        empty = c @ c.T  # diagonal projector onto an empty site j
        terms.append(Monomial(empty.target, -g * (1.0 - 2.0 * empty.coeff)))
    for left, right in zip(cs, cs[1:]):
        terms += [(left @ right.T).scaled(-1.0), (right @ left.T).scaled(-1.0)]
    minus_parity = -build_parity_operator(n_sites)
    terms += [(cs[-1] @ cs[0].T).scaled(minus_parity), (cs[0] @ cs[-1].T).scaled(minus_parity)]
    return Monomial.dense_sum(terms)


def _square(matrix, dtype=None) -> np.ndarray:
    """The input as an array, refused unless it is a non-empty square matrix."""
    matrix = np.asarray(matrix, dtype=dtype)
    shape = matrix.shape
    if len(shape) != 2 or shape[0] != shape[1] or not matrix.size:
        raise ValueError(f"need a non-empty square matrix, got shape {shape}")
    return matrix


def _blocks(matrix: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the nonzero pattern of A and A^T.

    Minimum-label propagation with pointer jumping, numpy only.  Each set is
    ascending, and the sets come in the order of their smallest index.
    """
    rows, cols = np.divmod(np.flatnonzero(matrix != 0), matrix.shape[0])
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    labels = np.arange(matrix.shape[0])
    while True:
        lowered = labels.copy()
        np.minimum.at(lowered, rows, labels[cols])
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            break
        labels = lowered
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def eigvalsh(matrix) -> np.ndarray:
    """Every eigenvalue of a dense Hermitian matrix, ascending, solved block by block.

    Each connected block of the nonzero pattern gets its own
    ``numpy.linalg.eigvalsh``; the levels are merged and sorted.
    """
    matrix = _square(matrix)
    return np.sort(
        np.concatenate([np.linalg.eigvalsh(matrix[np.ix_(i, i)]) for i in _blocks(matrix)])
    )


def ground_eigenpair(hamiltonian: np.ndarray) -> GroundEigenpair:
    """Lowest eigenpair of a dense symmetric matrix, solved block by block.

    The blocks are the connected components of the matrix's own nonzero
    pattern; each gets a full ``numpy.linalg.eigh``.  The lowest level over
    all blocks gives the eigenpair (zero outside its block), and the two
    lowest levels over all blocks give the gap behind the degeneracy flag
    (infinite for a 1 x 1 matrix).  Input that is not a non-empty square
    matrix, or not symmetric within RESIDUAL_TOLERANCE times its Frobenius
    norm, raises ValueError.  The eigenpair is rejected with NoConvergence
    when its residual against the whole matrix exceeds that same bound.
    """
    hamiltonian = _square(hamiltonian, dtype=float)
    dim = hamiltonian.shape[0]
    bound = RESIDUAL_TOLERANCE * np.linalg.norm(hamiltonian)
    asymmetry = np.linalg.norm(hamiltonian - hamiltonian.T)
    if asymmetry > bound:
        raise ValueError(f"matrix is not symmetric: |H - H^T| {asymmetry:.3e} exceeds {bound:.3e}")
    solves = []
    for index in _blocks(hamiltonian):
        try:
            solves.append((index, *np.linalg.eigh(hamiltonian[np.ix_(index, index)])))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    index, values, vectors = min(solves, key=lambda solve: solve[1][0])
    energy = float(values[0])
    vector = np.zeros(dim)
    vector[index] = vectors[:, 0]
    levels = np.sort(np.concatenate([solve[1][:2] for solve in solves]))
    gap = float(levels[1] - levels[0]) if dim > 1 else math.inf
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
    the two projections must sum to the Pauli-form Hamiltonian.  The report
    carries the worst entry and both deviations; the caller compares them
    with the tolerance.
    """
    _validate_sites(n_sites, minimum=3, budget="sector reassembly audit")
    _validate_field(g)
    dim = 1 << n_sites
    ham = build_spin_hamiltonian(n_sites, g)
    parity = build_parity_operator(n_sites)
    eye = np.eye(dim)
    projectors = {0.0: (1.0 + parity) / 2.0, 0.5: (1.0 - parity) / 2.0}

    reassembled = np.zeros((dim, dim), dtype=complex)
    for alpha, projector in projectors.items():
        diagonal_form = np.zeros((dim, dim), dtype=complex)
        for k, number_op in enumerate(_mode_number_operators(n_sites, alpha)):
            diagonal_form -= 2.0 * (number_op - 0.5 * eye) * (
                g - mode_cosine(n_sites, alpha, k)
            )
        reassembled += projector[:, None] * diagonal_form * projector

    deviation = np.abs(reassembled - ham)
    row, col = np.unravel_index(int(deviation.argmax()), deviation.shape)
    hermitian = (reassembled + reassembled.conj().T) / 2
    return SectorAuditReport(
        sites=n_sites,
        g=g,
        reassembly_deviation=float(deviation[row, col]),
        spectrum_deviation=float(np.abs(eigvalsh(ham) - eigvalsh(hermitian)).max()),
        tolerance=SECTOR_AUDIT_TOLERANCE,
        entry=(int(row), int(col)),
    )
