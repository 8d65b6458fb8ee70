import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xxring import analytic, entanglement, statevector
from xxring.entanglement import Bipartition
from xxring.errors import DimensionMismatch, SizeLimit


def plane_wave_purity(n_sites):
    """Schmidt-rank-2 value of any single-fermion state over a balanced cut."""
    size_a = n_sites // 2
    size_b = n_sites - size_a
    return (size_a**2 + size_b**2) / n_sites**2


def gathered_matrix(state, part):
    """The 2^|A| x 2^|B| amplitude matrix built by gathering index bits.

    Row bit i is the i-th site of A and column bit i the i-th site of B, in
    ascending site order.  This is the original construction of ``purity``,
    kept as the reference for its tensor view.
    """
    n_sites = state.sites
    a_sites = [j for j in range(n_sites) if (part.mask >> j) & 1]
    b_sites = [j for j in range(n_sites) if not (part.mask >> j) & 1]
    basis = np.arange(1 << n_sites)
    rows = np.zeros(basis.shape, dtype=np.int64)
    cols = np.zeros(basis.shape, dtype=np.int64)
    for i, site in enumerate(a_sites):
        rows |= ((basis >> site) & 1) << i
    for i, site in enumerate(b_sites):
        cols |= ((basis >> site) & 1) << i
    matrix = np.zeros((1 << len(a_sites), 1 << len(b_sites)), dtype=complex)
    matrix[rows, cols] = state.amplitudes
    return matrix


def gram_purity(matrix):
    """Squared Frobenius norm of the Gram matrix on the smaller side."""
    if matrix.shape[0] <= matrix.shape[1]:
        gram = matrix @ matrix.conj().T
    else:
        gram = matrix.conj().T @ matrix
    return float(np.sum(np.abs(gram) ** 2))


def rotated(part):
    """The cut moved by one site around the ring, j -> j + 1 mod N."""
    n_sites, mask = part.sites, part.mask
    full = (1 << n_sites) - 1
    return Bipartition(n_sites, ((mask << 1) | (mask >> (n_sites - 1))) & full)


def reflected(part):
    """The cut mirrored on the ring, j -> N - 1 - j."""
    n_sites = part.sites
    mask = sum(1 << (n_sites - 1 - j) for j in range(n_sites) if (part.mask >> j) & 1)
    return Bipartition(n_sites, mask)


def correlation_purity(n_sites, n, first, length):
    """Tr rho_A^2 of an arc of sites from the two-point correlation matrix.

    For the Slater determinant over ``occupied_modes(N, n)``, C_ij = <c_i+ c_j>
    is (1/N) sum_k exp(2 pi i (k + alpha)(i - j)/N), and a block A of the
    Gaussian state has Tr rho_A^2 = det(C_A^2 + (1 - C_A)^2) (Peschel, J. Phys.
    A 36, L205 (2003)).  The spin and fermion purities agree on an arc
    because the arc is contiguous, up to a translation of the ring.
    """
    modes = analytic.occupied_modes(n_sites, n)
    sites = np.array([(first + j) % n_sites for j in range(length)])
    phases = 2j * np.pi * (np.array(modes.modes) + modes.alpha) / n_sites
    diff = sites[:, None] - sites[None, :]
    corr = np.exp(phases[None, None, :] * diff[:, :, None]).sum(axis=2) / n_sites
    eye = np.eye(length)
    return float(np.linalg.det(corr @ corr + (eye - corr) @ (eye - corr)).real)


def sector_midpoints(n_sites):
    fields = [cp.g_c for cp in analytic.critical_points(n_sites)[:n_sites]]
    return [
        (lo + hi) / 2
        for lo, hi in zip(fields, fields[1:])
        if hi - lo > 1e-9
    ]


class TestBalancedBipartitions:
    def test_counts(self):
        assert len(entanglement.balanced_bipartitions(4)) == 3
        assert len(entanglement.balanced_bipartitions(5)) == 10
        assert len(entanglement.balanced_bipartitions(10)) == 126

    def test_even_masks_canonical(self):
        masks = [p.mask for p in entanglement.balanced_bipartitions(4)]
        assert masks == [0b0011, 0b0101, 0b1001]
        for part in entanglement.balanced_bipartitions(8):
            assert part.mask & 1
            assert part.size_a == 4

    def test_odd_masks_take_smaller_side(self):
        for part in entanglement.balanced_bipartitions(7):
            assert part.size_a == 3
        masks = [p.mask for p in entanglement.balanced_bipartitions(5)]
        assert masks == sorted(masks)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            entanglement.balanced_bipartitions(15)

    def test_unbalanced_mask_rejected(self):
        with pytest.raises(ValueError):
            Bipartition(sites=6, mask=0b1)

    def test_each_call_returns_a_fresh_list(self):
        first = entanglement.balanced_bipartitions(6)
        expected = [Bipartition(6, part.mask) for part in first]
        first.clear()
        first.append(Bipartition(6, 0b111000))
        assert entanglement.balanced_bipartitions(6) == expected

    def test_axes_move_a_before_b(self):
        # Axis k of the amplitude tensor is site N-1-k.
        assert Bipartition(5, 0b00110).axes == (2, 3, 0, 1, 4)
        for n_sites in (4, 7):
            for part in entanglement.balanced_bipartitions(n_sites):
                a_axes = part.axes[: part.size_a]
                assert sorted(a_axes) == list(a_axes)
                assert sorted(part.axes[part.size_a :]) == list(part.axes[part.size_a :])
                assert sum(1 << (n_sites - 1 - k) for k in a_axes) == part.mask


class TestPurity:
    def test_product_state(self):
        state = statevector.ground_state(8, -2.0)
        for part in entanglement.balanced_bipartitions(8):
            assert entanglement.purity(state, part) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_sites", [8, 9])
    def test_single_fermion_plateau(self, n_sites):
        state = statevector.ground_state(n_sites, -0.95)
        expected = plane_wave_purity(n_sites)
        for part in entanglement.balanced_bipartitions(n_sites):
            assert entanglement.purity(state, part) == pytest.approx(
                expected, abs=1e-10
            )

    def test_bounds(self):
        for n_sites, g in ((6, -0.5), (7, 0.3), (9, 0.05), (10, -0.2)):
            state = statevector.ground_state(n_sites, g)
            for part in entanglement.balanced_bipartitions(n_sites):
                value = entanglement.purity(state, part)
                assert 2.0 ** (-part.size_a) <= value <= 1.0 + 1e-12

    def test_complement_symmetry(self):
        for n_sites, g in ((6, -0.5), (8, 0.3)):
            state = statevector.ground_state(n_sites, g)
            full = (1 << n_sites) - 1
            for part in entanglement.balanced_bipartitions(n_sites):
                flipped = Bipartition(sites=n_sites, mask=part.mask ^ full)
                assert entanglement.purity(state, part) == pytest.approx(
                    entanglement.purity(state, flipped), abs=1e-12
                )

    def test_matches_schmidt_coefficients(self):
        # Independent route: purity = sum of fourth powers of the singular
        # values of the amplitude matrix.
        rng = np.random.default_rng(11)
        for n_sites, g in ((6, -0.5), (7, 0.3), (9, -0.1)):
            state = statevector.ground_state(n_sites, g)
            parts = entanglement.balanced_bipartitions(n_sites)
            for part in rng.choice(parts, size=5, replace=False):
                matrix = gathered_matrix(state, part)
                singular = np.linalg.svd(matrix, compute_uv=False)
                assert entanglement.purity(state, part) == pytest.approx(
                    float(np.sum(singular**4)), abs=1e-10
                )

    @pytest.mark.parametrize("n_sites", range(3, 11))
    def test_tensor_view_equals_gather_exactly(self, n_sites):
        for g in sector_midpoints(n_sites):
            state = statevector.ground_state(n_sites, g)
            for part in entanglement.balanced_bipartitions(n_sites):
                assert entanglement.purity(state, part) == gram_purity(
                    gathered_matrix(state, part)
                )

    @pytest.mark.parametrize("n_sites", range(4, 13))
    def test_contiguous_arcs_match_correlation_matrix(self, n_sites):
        length = n_sites // 2
        for g in sector_midpoints(n_sites):
            state = statevector.ground_state(n_sites, g)
            for first in range(n_sites):
                mask = sum(1 << ((first + j) % n_sites) for j in range(length))
                value = entanglement.purity(state, Bipartition(n_sites, mask))
                assert value == pytest.approx(
                    correlation_purity(n_sites, state.n, first, length), abs=1e-12
                )

    @pytest.mark.parametrize("n_sites", range(3, 13))
    def test_stats_are_the_bits_of_the_per_cut_reference(self, n_sites):
        # The per-cut body as it stood before the bipartitions carried their
        # own axis order; every purity must keep its exact bits.
        def reference(state, mask):
            a_axes = [k for k in range(n_sites) if (mask >> (n_sites - 1 - k)) & 1]
            b_axes = [k for k in range(n_sites) if k not in a_axes]
            tensor = state.amplitudes.reshape((2,) * n_sites)
            matrix = tensor.transpose(a_axes + b_axes).reshape(1 << len(a_axes), -1)
            gram = matrix @ matrix.conj().T
            return float(np.sum(np.abs(gram) ** 2))

        for g in [-1.5, *sector_midpoints(n_sites), 1.5]:
            state = statevector.ground_state(n_sites, g)
            stats = entanglement.purity_stats(n_sites, g)
            assert stats.purities == tuple(
                (part.mask, reference(state, part.mask))
                for part in entanglement.balanced_bipartitions(n_sites)
            )

    def test_dimension_mismatch(self):
        state = statevector.ground_state(6, -0.5)
        with pytest.raises(DimensionMismatch):
            entanglement.purity(state, Bipartition(sites=8, mask=0b00001111))


class TestPurityProperties:
    @settings(max_examples=80, deadline=None)
    @given(n_sites=st.integers(4, 10), g=st.floats(-1.5, 1.5), data=st.data())
    def test_bounds_complement_and_ring_symmetries(self, n_sites, g, data):
        crossings = [cp.g_c for cp in analytic.critical_points(n_sites)]
        assume(min(abs(g - gc) for gc in crossings) > 1e-6)
        state = statevector.ground_state(n_sites, g)
        part = data.draw(st.sampled_from(entanglement.balanced_bipartitions(n_sites)))
        value = entanglement.purity(state, part)
        assert 2.0 ** (-part.size_a) <= value <= 1.0 + 1e-12
        full = (1 << n_sites) - 1
        for image in (Bipartition(n_sites, part.mask ^ full), rotated(part), reflected(part)):
            assert entanglement.purity(state, image) == pytest.approx(value, abs=1e-12)


class TestPurityStats:
    def test_factorized_region(self):
        stats = entanglement.purity_stats(8, 1.5)
        assert stats.n == 8
        assert stats.mu == pytest.approx(1.0, abs=1e-12)
        assert stats.sigma == pytest.approx(0.0, abs=1e-12)

    def test_single_fermion_plateau(self):
        stats = entanglement.purity_stats(8, -0.95)
        assert stats.mu == pytest.approx(0.5, abs=1e-12)
        assert stats.sigma == pytest.approx(0.0, abs=1e-12)
        mirrored = entanglement.purity_stats(8, 0.95)
        assert mirrored.mu == pytest.approx(0.5, abs=1e-12)

    def test_field_reflection_symmetry(self):
        for n_sites in (6, 7, 8):
            for g in (0.3, 0.55, 1.2):
                forward = entanglement.purity_stats(n_sites, g)
                backward = entanglement.purity_stats(n_sites, -g)
                assert forward.mu == pytest.approx(backward.mu, abs=1e-10)
                assert forward.sigma == pytest.approx(backward.sigma, abs=1e-10)

    def test_constant_inside_sector(self):
        for n_sites in (5, 8):
            fields = [cp.g_c for cp in analytic.critical_points(n_sites)[:n_sites]]
            lo, hi = fields[1], fields[2]
            probes = np.linspace(lo + 1e-6, hi - 1e-6, 5)
            references = entanglement.purity_stats(n_sites, probes[0])
            for g in probes[1:]:
                stats = entanglement.purity_stats(n_sites, g)
                assert stats.mu == pytest.approx(references.mu, abs=1e-12)
                assert stats.sigma == pytest.approx(references.sigma, abs=1e-12)

    def test_mu_shrinks_with_system_size(self):
        values = []
        for n_sites in range(4, 11):
            g = 0.0
            fields = [cp.g_c for cp in analytic.critical_points(n_sites)]
            if min(abs(g - gc) for gc in fields) <= 1e-9:
                g += 1e-6
            values.append(entanglement.purity_stats(n_sites, g).mu)
        assert all(a > b + 1e-12 for a, b in zip(values, values[1:]))

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            entanglement.purity_stats(13, 0.4)


class TestSweep:
    def test_factorized_outside_unit_interval(self):
        results = entanglement.entanglement_sweep(6, -1.5, 1.5, 61)
        for stats in results:
            if abs(stats.g) > 1.0:
                assert stats.mu == pytest.approx(1.0, abs=1e-12)
                assert stats.sigma == pytest.approx(0.0, abs=1e-12)

    def test_constant_within_sector_subgrid(self):
        # (g_c(1), g_c(2)) for N = 6 contains no crossing.
        fields = [cp.g_c for cp in analytic.critical_points(6)]
        results = entanglement.entanglement_sweep(
            6, fields[1] + 0.01, fields[2] - 0.01, 7
        )
        first = results[0].mu
        for stats in results[1:]:
            assert stats.mu == pytest.approx(first, abs=1e-12)

    def test_plateau_count_matches_interior_crossings(self):
        # Plateaus merge across g = 0 for odd N because the spin flip maps
        # the two central sectors onto each other with equal purity.
        results = entanglement.entanglement_sweep(7, -1.5, 1.5, 121)
        inside = [s for s in results if -1.0 < s.g < 1.0]
        plateaus = 1
        for previous, current in zip(inside, inside[1:]):
            if abs(previous.mu - current.mu) > 1e-9:
                plateaus += 1
        interior = [
            cp.g_c
            for cp in analytic.critical_points(7)[:7]
            if -1.0 < cp.g_c < 1.0
        ]
        assert plateaus == len(interior) == 5

    def test_nudges_grid_points_off_crossings(self):
        # A 3-point grid over [-1, 1] hits g = -1, 0, 1; every one of them
        # is a crossing for N = 5.
        results = entanglement.entanglement_sweep(5, -1.0, 1.0, 3)
        assert [stats.g for stats in results] == pytest.approx(
            [-1.0 + 1e-6, 1e-6, 1.0 + 1e-6]
        )

    @pytest.mark.parametrize("n_sites", range(4, 11))
    def test_sector_reuse_matches_per_point_stats(self, n_sites):
        # The README grid crosses every sector; reused entries must be
        # exactly what a fresh per-point evaluation gives.
        results = entanglement.entanglement_sweep(n_sites, -1.5, 1.5, 121)
        grid = [
            entanglement._nudge_off_crossings(n_sites, g)
            for g in np.linspace(-1.5, 1.5, 121)
        ]
        expected = [entanglement.purity_stats(n_sites, g) for g in grid]
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            assert got.g == want.g
            assert got.n == want.n
            assert got.purities == want.purities
            assert got.mu == want.mu
            assert got.sigma == want.sigma

    def test_builds_one_state_per_sector(self, monkeypatch):
        calls = []
        real = entanglement.ground_state

        def counting(n_sites, g):
            calls.append(g)
            return real(n_sites, g)

        monkeypatch.setattr(entanglement, "ground_state", counting)
        entanglement.entanglement_sweep(10, -1.5, 1.5, 121)
        assert len(calls) == 11

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_field(self, g):
        with pytest.raises(ValueError, match="finite"):
            entanglement.purity_stats(6, g)
        with pytest.raises(ValueError, match="finite"):
            statevector.ground_state(6, g)

    def test_sweep_rejects_nonfinite_bounds(self):
        with pytest.raises(ValueError, match="finite"):
            entanglement.entanglement_sweep(6, -1.5, math.inf, 4)
        with pytest.raises(ValueError, match="finite"):
            entanglement.entanglement_sweep(6, -math.inf, 1.5, 4)
        # Finite ends whose span g_max - g_min overflows.
        with pytest.raises(ValueError, match="span"):
            entanglement.entanglement_sweep(6, -1e308, 1e308, 4)

    def test_accepts_numpy_integer_sites(self):
        assert entanglement.purity_stats(np.int64(6), 0.3) == entanglement.purity_stats(6, 0.3)
        sweep = entanglement.entanglement_sweep(np.int64(6), -1.2, 1.2, 13)
        assert sweep == entanglement.entanglement_sweep(6, -1.2, 1.2, 13)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            entanglement.entanglement_sweep(6, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            entanglement.entanglement_sweep(6, 1.0, 0.0, 5)
