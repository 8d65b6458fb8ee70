"""Brute-force reference for the XX ring.

Everything here works in the spin-z product basis of 2^N states (bit j of
the basis index = 1 for spin up = fermion at site j, the same convention as
the state-vector module).  Its job is to validate the closed-form modules at
desk scale, not to scale itself.

The site operators sigma^+-, sigma^z and the Jordan-Wigner c_j are monomial
matrices: each column holds at most one nonzero.  They are built and
multiplied as ``Monomial`` pairs of arrays, so products, transposes and
diagonal scalings are gathers (the bit-operation form of A. W. Sandvik,
arXiv:1101.3281, sec. 4.1).  The mode-number forms of the sector audit are
sums of such monomial hoppings c_i+ c_j.  The parity operator is diagonal
and is returned as its vector of +-1 entries.  Hamiltonians are dense.  The
eigensolvers refuse a matrix that is not square, finite and Hermitian (real
for the eigenpair) and solve each block of its nonzero pattern on its own
(H. Q. Lin, PRB 42, 6561 (1990)): the XX ring's fermion-number sectors.  Only
the ground block gets eigenvectors; a field sweep reuses one block solve.
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
    _validate_sites(n_sites, minimum=3, budget="dense spin Hamiltonian")
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


def _checked(matrix, real=False):
    """Shape, (with ``real``) real-entry and finiteness checks: the array, its residual bound."""
    matrix = np.asarray(matrix)
    shape = matrix.shape
    if len(shape) != 2 or shape[0] != shape[1] or not matrix.size:
        raise ValueError(f"need a non-empty square matrix, got shape {shape}")
    if real and np.iscomplexobj(matrix):
        raise ValueError(f"ground_eigenpair needs a real symmetric matrix, got {matrix.dtype}")
    matrix = np.asarray(matrix, dtype=float if real else None)
    bound = RESIDUAL_TOLERANCE * np.linalg.norm(matrix)
    if not math.isfinite(bound):
        raise ValueError(f"need finite entries with a finite Frobenius norm, got bound {bound}")
    return matrix, bound


def _check_symmetry(asymmetry, bound):
    if asymmetry > bound:
        raise ValueError(f"matrix is not symmetric: |H - H^+| {asymmetry:.3e} exceeds {bound:.3e}")


def _solve_blocks(matrix, bound):
    """Symmetry check, then one eigvalsh per block: (index, block) pairs, |H - H^+|, levels."""
    blocks = [(index, matrix[np.ix_(index, index)]) for index in _blocks(matrix)]
    # A nonzero H[i, j] joins i and j in one block whichever of H[i, j] and
    # H[j, i] it sits in, so |H - H^+| is summed over the blocks alone.
    asymmetry = math.sqrt(sum(np.linalg.norm(block - block.conj().T) ** 2 for _, block in blocks))
    _check_symmetry(asymmetry, bound)
    try:
        return blocks, asymmetry, [np.linalg.eigvalsh(block) for _, block in blocks]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc


def eigvalsh(matrix) -> np.ndarray:
    """Every eigenvalue of a dense Hermitian matrix, ascending, solved block by block.

    The levels of all blocks are merged and sorted.  Bad input raises
    ValueError as in ground_eigenpair, with Hermitian in place of real symmetric.
    """
    return np.sort(np.concatenate(_solve_blocks(*_checked(matrix))[2]))


def ground_eigenpairs(hamiltonians):
    """Yield ground_eigenpair of each matrix in turn, reusing one block solve across shifts.

    A matrix is a shift of the last one solved (the reference) when it has
    the same size and off-diagonal nonzeros (flat index and value), and its
    diagonal differs by a constant on each reference block, as a change of
    field does on the XX ring.  Only the reference's nonzeros are listed by
    index; a later matrix is matched by its off-diagonal nonzero count and
    its values at those indices.  Its levels are the reference levels plus
    each block's constant; each ground block gets one ``eigh``, kept with the
    reference.  Any other matrix is solved afresh and becomes the reference.
    Every matrix gets the input and residual checks against itself.  No dense
    matrix is kept, and matrix k + 1 is pulled after result k is yielded.
    """
    ref_dim = 0  # no reference yet; every matrix has at least one row
    for hamiltonian in hamiltonians:
        matrix, bound = _checked(hamiltonian, real=True)
        dim, shifts = len(matrix), None
        # The reference's off-diagonal values are nonzero (and the entries
        # finite), so equal values at its indices plus an equal off-diagonal
        # count is exactly the same pattern, found without an index scan.
        if (
            dim == ref_dim
            and np.count_nonzero(matrix) - np.count_nonzero(matrix.diagonal()) == ref_flat.size
            and np.array_equal(matrix.ravel()[ref_flat], ref_values)
        ):
            delta = [matrix.diagonal()[index] - block.diagonal() for index, block in blocks]
            if all((d == d[0]).all() for d in delta):
                shifts = [d[0] for d in delta]
        if shifts is None:
            blocks, asymmetry, shifted = _solve_blocks(matrix, bound)
            ref_flat = np.flatnonzero(matrix)
            ref_flat = ref_flat[ref_flat % (dim + 1) != 0]
            ref_dim, ref_values, levels, eighs = dim, matrix.ravel()[ref_flat], shifted, {}
        else:
            _check_symmetry(asymmetry, bound)
            shifted = [block_levels[:2] + s for block_levels, s in zip(levels, shifts)]
        ground = min(range(len(blocks)), key=lambda b: shifted[b][0])
        if ground not in eighs:
            try:
                eighs[ground] = np.linalg.eigh(blocks[ground][1])
            except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
                raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
        values, vectors = eighs[ground]
        energy = float(values[0] if shifts is None else values[0] + shifts[ground])
        vector = np.zeros(dim)
        vector[blocks[ground][0]] = vectors[:, 0]
        lowest = np.sort(np.concatenate([block_levels[:2] for block_levels in shifted]))
        gap = float(lowest[1] - lowest[0]) if dim > 1 else math.inf
        residual = np.linalg.norm(matrix @ vector - energy * vector)
        if residual > bound:
            raise NoConvergence(
                f"eigenpair residual {residual:.3e} exceeds {bound:.3e} "
                f"(dimension {dim}, energy {energy:.6g})"
            )
        yield GroundEigenpair(energy, vector, gap < DEGENERACY_GAP, gap)
        del hamiltonian, matrix


def ground_eigenpair(hamiltonian: np.ndarray) -> GroundEigenpair:
    """Lowest eigenpair of a dense real symmetric matrix: ground_eigenpairs of one matrix.

    The blocks are the connected components of the matrix's own nonzero
    pattern; each gets a ``numpy.linalg.eigvalsh``, and only the block
    holding the lowest level gets a ``numpy.linalg.eigh`` for the eigenpair
    (zero outside its block).  The two lowest levels over all blocks give
    the gap behind the degeneracy flag (infinite for a 1 x 1 matrix).  Input
    that is not a non-empty square real matrix, has a non-finite entry, or is
    not symmetric within RESIDUAL_TOLERANCE times its Frobenius norm raises
    ValueError.  The eigenpair is rejected with NoConvergence when its
    residual against the whole matrix exceeds that same bound.
    """
    return next(ground_eigenpairs([hamiltonian]))


def sector_reassembly(n_sites: int, g: float) -> np.ndarray:
    """The sum of the two parity-projected diagonal forms, as one dense matrix.

    For each offset alpha, -2 sum_k (n_k - 1/2) w_k with w_k = g - cos_k is
    sum_ij T_ij c_i+ c_j + (sum_k w_k) I, where T_ij = -(2/N) sum_k w_k
    e^{2 pi i (k+alpha)(i-j)/N}.  Each projected hopping P c_i+ c_j P is a
    monomial; only the sum of the 2(N^2 + 1) terms is made dense.  It must
    equal build_spin_hamiltonian entrywise.
    """
    _validate_sites(n_sites, minimum=3, budget="sector reassembly audit")
    _validate_field(g)
    cs = [Monomial.annihilation(n_sites, j) for j in range(n_sites)]
    hops = [[c_i.T @ c_j for c_j in cs] for c_i in cs]
    parity = build_parity_operator(n_sites)
    sites = np.arange(n_sites)
    separation = sites[:, None] - sites
    terms = []
    for alpha, projector in ((0.0, (1.0 + parity) / 2.0), (0.5, (1.0 - parity) / 2.0)):
        weights = np.array([g - mode_cosine(n_sites, alpha, k) for k in range(n_sites)])
        phases = np.exp(2j * np.pi * np.multiply.outer(separation, sites + alpha) / n_sites)
        hopping = -(2.0 / n_sites) * (phases @ weights)
        project = Monomial.identity(1 << n_sites).scaled(projector)
        for i, j in np.ndindex(n_sites, n_sites):
            terms.append((project @ hops[i][j] @ project).scaled(hopping[i, j]))
        terms.append((project @ project).scaled(weights.sum()))
    return Monomial.dense_sum(terms)
