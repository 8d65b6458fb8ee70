import cmath

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


class TestSlaterAmplitude:
    def test_single_fermion_phase(self):
        # One fermion in mode k = 4 on 8 sites: e^{2 pi i k j / N} (-1)^j.
        modes = ModeSet(n=1, alpha=0.0, modes=(4,))
        value = statevector.slater_amplitude(8, modes, (3,))
        assert value == pytest.approx(1.0, abs=1e-14)
        magnitudes = [
            abs(statevector.slater_amplitude(8, modes, (j,))) for j in range(8)
        ]
        assert magnitudes == pytest.approx([1.0] * 8, abs=1e-14)

    def test_empty_configuration(self):
        modes = ModeSet(n=0, alpha=0.5, modes=())
        assert statevector.slater_amplitude(6, modes, ()) == 1.0

    def test_mode_swap_flips_sign(self):
        forward = statevector.slater_amplitude(
            4, ModeSet(n=2, alpha=0.5, modes=(1, 2)), (0, 3)
        )
        swapped = statevector.slater_amplitude(
            4, ModeSet(n=2, alpha=0.5, modes=(2, 1)), (0, 3)
        )
        assert swapped == pytest.approx(-forward, abs=1e-14)

    def test_rejects_bad_positions(self):
        modes = ModeSet(n=2, alpha=0.0, modes=(1, 2))
        with pytest.raises(ValueError):
            statevector.slater_amplitude(5, modes, (3, 1))
        with pytest.raises(ValueError):
            statevector.slater_amplitude(5, modes, (1,))

    @pytest.mark.parametrize(
        "n_sites,modes,positions",
        [
            (4, ModeSet(n=1, alpha=0.0, modes=(7,)), (0,)),  # mode off the ring
            (4, ModeSet(n=1, alpha=0.0, modes=(-1,)), (0,)),
            (4, ModeSet(n=1, alpha=0.3, modes=(1,)), (0,)),  # not a sector offset
            (5, ModeSet(n=2, alpha=0.5, modes=(1, 2)), (0, 3)),  # other sector's offset
            (5, ModeSet(n=2, alpha=0.0, modes=(1, 1)), (0, 3)),  # repeated mode
            (5, ModeSet(n=2, alpha=0.0, modes=(1,)), (0, 3)),  # too few modes
            (5, ModeSet(n=1, alpha=0.5, modes=(1, 2)), (0,)),  # too many modes
            (2, ModeSet(n=1, alpha=0.5, modes=(0,)), (0,)),  # ring too small
        ],
    )
    def test_rejects_mode_sets_foreign_to_the_ring(self, n_sites, modes, positions):
        with pytest.raises(ValueError):
            statevector.slater_amplitude(n_sites, modes, positions)

    def test_rejects_non_integer_ring_and_modes(self):
        with pytest.raises(TypeError):
            statevector.slater_amplitude(True, ModeSet(n=1, alpha=0.0, modes=(0,)), (0,))
        with pytest.raises(TypeError):
            statevector.slater_amplitude(4, ModeSet(n=1, alpha=0.0, modes=(1.5,)), (0,))


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
