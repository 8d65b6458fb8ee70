import cmath
import math
import tracemalloc

import numpy as np
import pytest

from xxring import analytic, oracle, statevector
from xxring.analytic import ModeSet
from xxring.errors import DegenerateAtCrossing, SizeLimit


def off_crossing_grid(n_sites, points=15, span=1.4, margin=1e-3):
    fields = [cp.g_c for cp in analytic.critical_points(n_sites)]
    return [
        float(g)
        for g in np.linspace(-span, span, points)
        if min(abs(g - gc) for gc in fields) > margin
    ]


def sector_midfields():
    """One field per sector n = 1..N-1 of every N in 3..14, the middle of its interval."""
    cases = []
    for n_sites in range(3, 15):
        fields = [cp.g_c for cp in analytic.critical_points(n_sites)]
        for n in range(1, n_sites):
            g = (fields[n - 1] + fields[n]) / 2
            assert analytic.ground_sector(n_sites, g) == n
            cases.append(pytest.param(n_sites, g, id=f"{n_sites}-sector{n}"))
    return cases


def loop_reference(n_sites, g):
    """The ground state as it was assembled with Python loops over the 2^N indices:
    all C(N, n) determinants in one call, then the norm over all 2^N entries."""
    n = analytic.ground_sector(n_sites, g)
    masks = [m for m in range(1 << n_sites) if m.bit_count() == n]
    positions = np.array(
        [[j for j in range(n_sites) if (m >> j) & 1] for m in masks], dtype=float
    )
    expected = np.zeros(1 << n_sites, dtype=complex)
    expected[masks] = statevector._slater_amplitudes(
        n_sites, analytic.occupied_modes(n_sites, n), positions
    )
    return expected / np.linalg.norm(expected)


def slater(n_sites, modes, positions):
    """The unnormalized amplitude of one placement, through the determinant kernel."""
    rows = np.array([positions], dtype=float).reshape(1, len(positions))
    return complex(statevector._slater_amplitudes(n_sites, modes, rows)[0])


class TestSlaterAmplitude:
    def test_single_fermion_phase(self):
        # One fermion in mode k = 4 on 8 sites: e^{2 pi i k j / N} (-1)^j.
        modes = ModeSet(n=1, alpha=0.0, modes=(4,))
        value = slater(8, modes, (3,))
        assert value == pytest.approx(1.0, abs=1e-14)
        magnitudes = [abs(slater(8, modes, (j,))) for j in range(8)]
        assert magnitudes == pytest.approx([1.0] * 8, abs=1e-14)

    def test_empty_configuration(self):
        modes = ModeSet(n=0, alpha=0.5, modes=())
        assert slater(6, modes, ()) == 1.0

    def test_mode_swap_flips_sign(self):
        forward = slater(4, ModeSet(n=2, alpha=0.5, modes=(1, 2)), (0, 3))
        swapped = slater(4, ModeSet(n=2, alpha=0.5, modes=(2, 1)), (0, 3))
        assert swapped == pytest.approx(-forward, abs=1e-14)


class TestGroundState:
    def test_polarized_down(self):
        state = statevector.ground_state(8, -2.0)
        expected = np.zeros(256)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=0)

    def test_polarized_up(self):
        state = statevector.ground_state(8, 2.0)
        assert abs(state.amplitudes[255]) == pytest.approx(1.0, abs=1e-15)
        assert np.count_nonzero(state.amplitudes) == 1

    def test_single_fermion_plane_wave(self):
        state = statevector.ground_state(8, -0.95)
        support = np.flatnonzero(state.amplitudes)
        assert len(support) == 8
        np.testing.assert_allclose(
            np.abs(state.amplitudes[support]), np.full(8, 1 / np.sqrt(8)), atol=1e-14
        )

    @pytest.mark.parametrize("n_sites,g", [(5, -0.2), (6, 0.4), (9, 0.85), (10, -0.6)])
    def test_unit_norm_and_sector_sharpness(self, n_sites, g):
        state = statevector.ground_state(n_sites, g)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
        n = analytic.ground_sector(n_sites, g)
        support = np.flatnonzero(np.abs(state.amplitudes) > 1e-15)
        assert all(int(index).bit_count() == n for index in support)

    def test_oracle_overlap(self):
        # The dense eigenvector and the determinant build must agree up to
        # a global phase away from crossings.
        for n_sites in range(3, 9):
            for g in off_crossing_grid(n_sites):
                pair = oracle.ground_eigenpair(
                    oracle.build_spin_hamiltonian(n_sites, g)
                )
                assert not pair.degenerate
                state = statevector.ground_state(n_sites, g)
                overlap = abs(np.vdot(state.amplitudes, pair.vector))
                assert overlap == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n_sites,g", [(4, 0.3), (7, -0.5), (8, 0.9)])
    def test_energy_expectation(self, n_sites, g):
        state = statevector.ground_state(n_sites, g)
        ham = oracle.build_spin_hamiltonian(n_sites, g)
        energy = np.vdot(state.amplitudes, ham @ state.amplitudes).real / n_sites
        assert energy == pytest.approx(
            analytic.ground_energy_density(n_sites, g), abs=1e-9
        )

    @pytest.mark.parametrize("n_sites,g", [(5, -0.2), (6, 0.33), (8, 0.9), (9, 0.1)])
    def test_translation_covariance(self, n_sites, g):
        # Shifting every site by one multiplies the state by a unit phase.
        state = statevector.ground_state(n_sites, g)
        basis = np.arange(1 << n_sites)
        rotated = ((basis << 1) | (basis >> (n_sites - 1))) & ((1 << n_sites) - 1)
        shifted = np.zeros_like(state.amplitudes)
        shifted[rotated] = state.amplitudes
        anchor = int(np.argmax(np.abs(state.amplitudes)))
        scale = shifted[anchor] / state.amplitudes[anchor]
        assert abs(abs(scale) - 1.0) < 1e-10
        np.testing.assert_allclose(shifted, scale * state.amplitudes, atol=1e-10)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            statevector.ground_state(15, 0.3)

    @pytest.mark.parametrize("g", [-1.3, -0.4, 0.05, 0.7, 1.2])
    def test_carries_its_sector(self, g):
        state = statevector.ground_state(7, g)
        assert state.n == analytic.ground_sector(7, g)
        support = np.flatnonzero(np.abs(state.amplitudes) > 0)
        assert {int(b).bit_count() for b in support} == {state.n}

    def test_crossing_propagates(self):
        g_c = analytic.critical_points(6)[2].g_c
        with pytest.raises(DegenerateAtCrossing):
            statevector.ground_state(6, g_c)

    @pytest.mark.parametrize("n_sites", range(3, 15))
    def test_sector_enumeration_is_the_bit_count_scan(self, n_sites):
        for n in range(n_sites + 1):
            indices = statevector._sector_indices(n_sites, n)
            assert indices.tolist() == [m for m in range(1 << n_sites) if m.bit_count() == n]

    @pytest.mark.parametrize(
        "n_sites,g",
        [(4, 0.3), (9, -0.1), (12, 0.05), (13, 0.2), (14, -0.003), *sector_midfields()],
    )
    def test_vector_enumeration_keeps_the_loop_bits(self, n_sites, g):
        assert np.array_equal(
            statevector.ground_state(n_sites, g).amplitudes, loop_reference(n_sites, g)
        )

    @pytest.mark.parametrize("rows", ["one", "all but one", "all", "partial last"])
    def test_chunk_size_moves_no_bit(self, rows, monkeypatch):
        # Each determinant is factored on its own, so the rows per chunk
        # change only how the sector is cut, never an amplitude.
        n_sites, g = 12, 0.05
        n = analytic.ground_sector(n_sites, g)
        count = math.comb(n_sites, n)
        size = {"one": 1, "all but one": count - 1, "all": count, "partial last": 100}[rows]
        expected = loop_reference(n_sites, g)
        chunks = []
        true_slater = statevector._slater_amplitudes

        def recording(n_sites, modes, positions):
            chunks.append(len(positions))
            return true_slater(n_sites, modes, positions)

        monkeypatch.setattr(statevector, "_slater_amplitudes", recording)
        monkeypatch.setattr(statevector, "_CHUNK_ENTRIES", size * n * n)
        assert np.array_equal(statevector.ground_state(n_sites, g).amplitudes, expected)
        full, last = divmod(count, size)
        assert chunks == [size] * full + ([last] if last else [])

    def test_every_sector_up_to_ten_sites_is_one_chunk(self):
        # The README sweeps and verify stop at N = 10, so they keep the one-call path.
        for n_sites in range(3, 11):
            for n in range(1, n_sites):
                assert statevector._CHUNK_ENTRIES // (n * n) >= math.comb(n_sites, n)

    @pytest.mark.parametrize(("n_sites", "g"), [(13, 0.2), (14, -0.003)])
    def test_traced_peak_stays_bounded(self, n_sites, g):
        # numpy reports its buffers to tracemalloc.  The peak holds the 2^N
        # amplitudes, the sector's positions and one chunk of matrices: 648
        # and 910 KiB, a margin of 37% and 11% under the bound, against
        # 2.8 and 5.6 MiB when all C(N, n) matrices were stacked at once.
        statevector.ground_state(n_sites, g)  # fill the per-N caches first
        tracemalloc.start()
        try:
            statevector.ground_state(n_sites, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
