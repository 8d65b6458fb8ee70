"""Brute-force reference for the XX ring.

Everything here works in the spin-z product basis of 2^N states (bit j of
the basis index = 1 for spin up = fermion at site j, the same convention as
the state-vector module).  Its job is to validate the closed-form modules at
desk scale, not to scale itself.

The site operators sigma^+-, sigma^z and the Jordan-Wigner c_j are monomial
matrices: each column holds at most one nonzero.  They are built and
multiplied as ``Monomial`` pairs of arrays, so products, transposes and
diagonal scalings are gathers (the bit-operation form of A. W. Sandvik,
arXiv:1101.3281, sec. 4.1).  The Hamiltonian is a list of such terms: the
field diagonal and one hopping per bond (``hamiltonian_terms``), or the
fermion-operator form (``jw_terms``); the dense builds are their sums.  The
sector audit's two mode-number forms fold into N^2 + 1 terms, one hopping
c_i+ c_j per site pair (``sector_reassembly``).  The parity operator is
diagonal and is returned as its vector of +-1 entries.  The eigensolvers
take a dense matrix or a term list, list its nonzero entries, refuse a
matrix that is not square, finite and Hermitian (real for the eigenpair) and
solve each block of its off-diagonal pattern on its own (H. Q. Lin, PRB 42,
6561 (1990)): the XX ring's fermion-number sectors.  Only the ground block
gets eigenvectors; a field sweep reuses one block solve.
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


def _sums(slot, weights, size):
    """Sum of the weights in each slot, added in input order; complex ones part by part."""
    if not np.iscomplexobj(weights):
        return np.bincount(slot, weights, size)
    sums = np.empty(size, dtype=complex)
    sums.real = np.bincount(slot, weights.real, size)
    sums.imag = np.bincount(slot, weights.imag, size)
    return sums


class Monomial:
    """A 2^N x 2^N matrix, or a direct sum of such blocks, with at most one nonzero per column.

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
    def direct_sum(blocks: list[Monomial]) -> Monomial:
        """The block-diagonal monomial with the given equal-sized ones on its diagonal, in order."""
        dim = blocks[0].target.size
        return Monomial(
            np.concatenate([block.target + k * dim for k, block in enumerate(blocks)]),
            np.concatenate([block.coeff for block in blocks]),
        )

    @staticmethod
    def dense_sum(terms: list[Monomial]) -> np.ndarray:
        """The sum of the terms as one dense matrix, added up in the order given."""
        columns = np.arange(terms[0].target.size)
        dense = np.zeros((columns.size,) * 2, dtype=np.result_type(*(t.coeff for t in terms)))
        for term in terms:
            dense[term.target, columns] += term.coeff
        return dense

    @staticmethod
    def merged(terms: list[Monomial]) -> list[Monomial]:
        """The terms with one target folded into one term each, in order of first appearance.

        A folded term adds its coefficients in the order given, so every cell
        those terms share is summed once before any solve.
        """
        folded = {}
        for term in terms:
            key = term.target.tobytes()
            first = folded.setdefault(key, term)
            if first is not term:
                folded[key] = Monomial(term.target, first.coeff + term.coeff)
        return list(folded.values())

    @staticmethod
    def max_abs_sum(terms: list[Monomial]) -> tuple[float, tuple[int, int] | None]:
        """Largest |entry| of the sum of the terms, and its (row, column).

        Only the terms' nonzero cells are summed, each adding its
        coefficients in the order of the terms, as dense_sum does; complex
        coefficients are summed part by part.  The cell is the first worst
        one in row-major order, None when no coefficient is nonzero.
        """
        dim = terms[0].target.size
        flat, coeff = [], []
        for term in terms:
            nonzero = np.flatnonzero(term.coeff != 0)
            flat.append(term.target[nonzero] * dim + nonzero)
            coeff.append(term.coeff[nonzero])
        cells, slot = np.unique(np.concatenate(flat), return_inverse=True)
        if not cells.size:
            return 0.0, None
        sums = np.abs(_sums(slot, np.concatenate(coeff), cells.size))
        worst = int(sums.argmax())
        return float(sums[worst]), divmod(int(cells[worst]), dim)


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


def hamiltonian_terms(n_sites: int, g: float) -> list[Monomial]:
    """The XX-ring Hamiltonian straight from the Pauli form (J = 1), as N + 1 monomials.

    First the field diagonal -g * (#up - #down), then one term per bond
    (j, j + 1), the last closing the ring: -1 from each basis state to the
    one with that adjacent up/down pair swapped, and coefficient 0 where
    the pair's spins are equal.  Their sum is real symmetric.
    """
    _validate_sites(n_sites, minimum=3, budget="dense spin Hamiltonian")
    _validate_field(g)
    b = np.arange(1 << n_sites)
    sites = np.arange(n_sites)
    bits = (b >> sites[:, None]) & 1  # row j: the spin of site j in every basis state
    pairs = (1 << sites) | (1 << (sites + 1) % n_sites)
    hops = np.where(bits != np.roll(bits, -1, axis=0), -1.0, 0.0)
    diagonal = Monomial(b, -g * (2.0 * bits.sum(axis=0) - n_sites))
    return [diagonal, *map(Monomial, b ^ pairs[:, None], hops)]


def build_spin_hamiltonian(n_sites: int, g: float) -> np.ndarray:
    """Dense XX-ring Hamiltonian: the sum of hamiltonian_terms."""
    return Monomial.dense_sum(hamiltonian_terms(n_sites, g))


def build_parity_operator(n_sites: int) -> np.ndarray:
    """Diagonal of the parity operator, -(-1)^(#down spins), as a vector.

    +1 on states with an odd number of down spins, -1 on even; the operator
    commutes with the Hamiltonian.  Apply it as ``parity[:, None] * A``
    (rows) or ``A * parity`` (columns).
    """
    _validate_sites(n_sites, minimum=3, budget="dense spin Hamiltonian")
    n_down = n_sites - np.bitwise_count(np.arange(1 << n_sites))
    return -((-1.0) ** n_down)


def jw_terms(n_sites: int, g: float) -> list[Monomial]:
    """The Hamiltonian assembled from explicit fermion operators, as 3N monomials.

    Field term g (1 - 2 c_j c_j+), bulk hopping -(c_j c_{j+1}+ + h.c.), and
    the ring-closing bond carrying the parity factor: the periodic
    extension c_N = (parity of #down) * c_0 makes the boundary hopping
    enter as  -P (c_{N-1} c_0+ + c_0 c_{N-1}+).  Their sum must reproduce
    hamiltonian_terms' entrywise.
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
    return terms


def build_jw_hamiltonian(n_sites: int, g: float) -> np.ndarray:
    """Dense Hamiltonian from explicit fermion operators: the sum of jw_terms."""
    return Monomial.dense_sum(jw_terms(n_sites, g))


def _entries(hamiltonian, real=False):
    """The summed diagonal and the off-diagonal nonzeros (rows, cols, values) of a Hamiltonian.

    A dense matrix is listed with one nonzero scan, in row-major order; a
    list of Monomial terms gives its entries term by term, so a cell may
    repeat and its values add up.  With ``real``, complex entries are
    refused before any cast.
    """
    if isinstance(hamiltonian, list) and hamiltonian and isinstance(hamiltonian[0], Monomial):
        dim = hamiltonian[0].target.size
        rows = np.concatenate([term.target for term in hamiltonian])
        cols = np.tile(np.arange(dim), len(hamiltonian))
        values = np.concatenate([term.coeff for term in hamiltonian])
    else:
        matrix = np.asarray(hamiltonian)
        shape = matrix.shape
        if len(shape) != 2 or shape[0] != shape[1] or not matrix.size:
            raise ValueError(f"need a non-empty square matrix, got shape {shape}")
        dim = shape[0]
        flat = np.flatnonzero(matrix != 0)
        rows, cols = np.divmod(flat, dim)
        values = matrix.ravel()[flat]
    if real and np.iscomplexobj(values):
        raise ValueError(f"ground_eigenpair needs a real symmetric matrix, got {values.dtype}")
    on = rows == cols
    off = ~on & (values != 0)
    return _sums(rows[on], values[on], dim), (rows[off], cols[off], values[off])


def _blocks(diagonal, off) -> list[np.ndarray]:
    """Index sets of the connected components of the off-diagonal pattern and its transpose.

    Minimum-label propagation with pointer jumping, numpy only.  Each set is
    ascending, and the sets come in the order of their smallest index.
    """
    rows, cols = np.concatenate([off[0], off[1]]), np.concatenate([off[1], off[0]])
    labels = np.arange(diagonal.size)
    while True:
        lowered = labels.copy()
        np.minimum.at(lowered, rows, labels[cols])
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            break
        labels = lowered
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _bound(off_square, diagonal):
    """Finiteness check: RESIDUAL_TOLERANCE times the Frobenius norm, from |off-diagonal|^2."""
    bound = RESIDUAL_TOLERANCE * math.sqrt(off_square + np.vdot(diagonal, diagonal).real)
    if not math.isfinite(bound):
        raise ValueError(f"need finite entries with a finite Frobenius norm, got bound {bound}")
    return bound


def _check_symmetry(asymmetry, bound):
    if asymmetry > bound:
        raise ValueError(f"matrix is not symmetric: |H - H^+| {asymmetry:.3e} exceeds {bound:.3e}")


def _solve_blocks(diagonal, off):
    """Checks, then one eigvalsh per block.

    Returns the (index, block) pairs, their levels, |off-diagonal|^2,
    |H - H^+| and the bound.  A block's entries add up in list order.  Every
    off-diagonal entry lies in one block, so the blocks alone give both norms.
    """
    rows, cols, values = off
    index_sets = _blocks(diagonal, off)
    label = np.empty(diagonal.size, dtype=np.intp)
    position = np.empty(diagonal.size, dtype=np.intp)
    for b, index in enumerate(index_sets):
        label[index] = b
        position[index] = np.arange(index.size)
    owner = label[rows]
    dtype = np.result_type(values, diagonal, float)
    blocks, off_square = [], 0.0
    for b, index in enumerate(index_sets):
        part = owner == b
        block = np.zeros((index.size,) * 2, dtype)
        np.add.at(block, (position[rows[part]], position[cols[part]]), values[part])
        off_square += np.vdot(block, block).real
        np.fill_diagonal(block, diagonal[index])
        blocks.append((index, block))
    bound = _bound(off_square, diagonal)
    asymmetry = math.sqrt(sum(np.linalg.norm(block - block.conj().T) ** 2 for _, block in blocks))
    _check_symmetry(asymmetry, bound)
    try:
        levels = [np.linalg.eigvalsh(block) for _, block in blocks]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    return blocks, levels, off_square, asymmetry, bound


def eigvalsh(hamiltonian) -> np.ndarray:
    """Every eigenvalue of a Hermitian matrix, ascending, solved block by block.

    It takes a dense matrix or a list of Monomial terms.  The levels of all
    blocks are merged and sorted.  Bad input raises ValueError as in
    ground_eigenpair, with Hermitian in place of real symmetric.
    """
    return np.sort(np.concatenate(_solve_blocks(*_entries(hamiltonian))[1]))


def ground_eigenpairs(hamiltonians):
    """Yield ground_eigenpair of each Hamiltonian in turn, reusing one block solve across shifts.

    Each is a dense matrix or a list of Monomial terms (as from
    hamiltonian_terms), reduced to its entry list.  It is a shift of the last
    one solved (the reference) when it has the same size and off-diagonal
    entry list (rows, columns and values), and its diagonal differs by a
    constant on each reference block, as a change of field does on the XX
    ring.  Its levels are the reference levels plus each block's constant;
    each ground block gets one ``eigh``, kept with the reference.  Any other
    Hamiltonian is solved afresh and becomes the reference.  Every one gets
    the finiteness and symmetry checks against its own bound, and the
    residual check against its own entries.  No dense matrix is kept, and
    Hamiltonian k + 1 is pulled after result k is yielded.
    """
    ref_dim = 0  # no reference yet; every matrix has at least one row
    for hamiltonian in hamiltonians:
        diagonal, off = _entries(hamiltonian, real=True)
        dim, shifts = diagonal.size, None
        if dim == ref_dim and all(np.array_equal(new, ref) for new, ref in zip(off, ref_off)):
            bound = _bound(off_square, diagonal)  # the off-diagonal is the checked reference's
            delta = diagonal - ref_diagonal
            if np.array_equal(delta, delta[first]):  # constant on each block
                shifts = delta[starts]
        if shifts is None:
            blocks, levels, off_square, asymmetry, bound = _solve_blocks(diagonal, off)
            ref_dim, ref_off, ref_diagonal, eighs = dim, off, diagonal, {}
            starts = np.array([index[0] for index, _ in blocks])
            first = np.empty(dim, dtype=np.intp)
            for index, _ in blocks:
                first[index] = index[0]
            # The two lowest levels of each block, padded with inf.
            shifted = ref_low = np.array([np.append(lv[:2], np.inf)[:2] for lv in levels])
        else:
            _check_symmetry(asymmetry, bound)
            shifted = ref_low + shifts[:, None]
        ground = int(np.argmin(shifted[:, 0]))
        if ground not in eighs:
            try:
                eighs[ground] = np.linalg.eigh(blocks[ground][1])
            except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
                raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
        values, vectors = eighs[ground]
        energy = float(values[0] if shifts is None else values[0] + shifts[ground])
        vector = np.zeros(dim)
        vector[blocks[ground][0]] = vectors[:, 0]
        lowest = np.sort(shifted, axis=None)
        gap = float(lowest[1] - lowest[0]) if dim > 1 else math.inf
        rows, cols, couplings = off
        applied = diagonal * vector + np.bincount(rows, couplings * vector[cols], dim)
        residual = np.linalg.norm(applied - energy * vector)
        if residual > bound:
            raise NoConvergence(
                f"eigenpair residual {residual:.3e} exceeds {bound:.3e} "
                f"(dimension {dim}, energy {energy:.6g})"
            )
        yield GroundEigenpair(energy, vector, gap < DEGENERACY_GAP, gap)
        del hamiltonian


def ground_eigenpair(hamiltonian) -> GroundEigenpair:
    """Lowest eigenpair of a real symmetric matrix: ground_eigenpairs of one Hamiltonian.

    It takes a dense matrix or a list of Monomial terms.  The blocks are the
    connected components of the matrix's own off-diagonal pattern; each gets
    a ``numpy.linalg.eigvalsh``, and only the block holding the lowest level
    gets a ``numpy.linalg.eigh`` for the eigenpair (zero outside its block).
    The two lowest levels over all blocks give the gap behind the degeneracy
    flag (infinite for a 1 x 1 matrix).  Input that is not a non-empty
    square real matrix, has a non-finite entry, or is not symmetric within
    RESIDUAL_TOLERANCE times its Frobenius norm raises ValueError.  The
    eigenpair is rejected with NoConvergence when its residual against the
    whole matrix exceeds that same bound.
    """
    return next(ground_eigenpairs([hamiltonian]))


def sector_reassembly(n_sites: int, g: float) -> list[Monomial]:
    """The sum of the two parity-projected diagonal forms, as N^2 + 1 monomials.

    For each offset alpha, -2 sum_k (n_k - 1/2) w_k with w_k = g - cos_k is
    sum_ij T_ij c_i+ c_j + (sum_k w_k) I, where T_ij = -(2/N) sum_k w_k
    e^{2 pi i (k+alpha)(i-j)/N}, projected on its parity sector.  A hopping
    conserves the fermion number, so P c_i+ c_j P is c_i+ c_j with P on its
    columns: term (i, j) is c_i+ c_j with each column scaled by the T_ij of
    that column's sector, and the last term holds each sector's sum_k w_k on
    the diagonal.  Their sum must equal hamiltonian_terms' entrywise.
    """
    _validate_sites(n_sites, minimum=3, budget="sector reassembly audit")
    _validate_field(g)
    cs = [Monomial.annihilation(n_sites, j) for j in range(n_sites)]
    odd = (build_parity_operator(n_sites) < 0).astype(np.intp)  # 0: alpha = 0, 1: alpha = 1/2
    sites = np.arange(n_sites)
    separation = sites[:, None] - sites
    hopping, constant = [], []
    for alpha in (0.0, 0.5):
        weights = np.array([g - mode_cosine(n_sites, alpha, k) for k in range(n_sites)])
        phases = np.exp(2j * np.pi * np.multiply.outer(separation, sites + alpha) / n_sites)
        hopping.append(-(2.0 / n_sites) * (phases @ weights))
        constant.append(weights.sum())
    hopping, constant = np.array(hopping), np.array(constant)  # indexed by sector first
    terms = []
    for i, j in np.ndindex(n_sites, n_sites):
        hop = cs[i].T @ cs[j]
        terms.append(Monomial(hop.target, hop.coeff * hopping[odd, i, j]))
    terms.append(Monomial(np.arange(1 << n_sites), constant[odd]))
    return terms
