import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from xxring import analytic
from xxring.errors import DegenerateAtCrossing, SingularPoint


def sector_minimum(n_sites, n, g):
    """Raw sector-minimum line, usable past n = N for intersection solving."""
    return g * (1 - 2 * n / n_sites) - (2 / n_sites) * math.sin(
        n * math.pi / n_sites
    ) / math.sin(math.pi / n_sites)


class TestFiniteSizeParameter:
    def test_large_n_limit(self):
        assert analytic.finite_size_parameter(10**6) == pytest.approx(1.0, abs=1e-11)

    def test_two_sites(self):
        # sin(pi/2)/(pi/2) = 2/pi
        assert analytic.finite_size_parameter(2) == pytest.approx(
            0.6366197723675814, abs=1e-15
        )

    def test_strictly_increasing(self):
        values = [analytic.finite_size_parameter(n) for n in range(1, 51)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            analytic.finite_size_parameter(0)


class TestSectorOffset:
    @pytest.mark.parametrize(
        "n_sites,n,expected",
        [(8, 1, 0.0), (9, 1, 0.5), (8, 2, 0.5), (7, 0, 0.0), (6, 6, 0.5)],
    )
    def test_values(self, n_sites, n, expected):
        assert analytic.alpha_for_sector(n_sites, n) == expected

    def test_rejects_bad_fermion_count(self):
        with pytest.raises(ValueError):
            analytic.alpha_for_sector(6, 7)


class TestOccupiedModes:
    @pytest.mark.parametrize(
        "n_sites,n,expected",
        [(8, 1, (4,)), (8, 2, (3, 4)), (9, 2, (4, 5)), (9, 1, (4,)), (5, 0, ())],
    )
    def test_examples(self, n_sites, n, expected):
        assert analytic.occupied_modes(n_sites, n).modes == expected

    def test_minimality_sum(self):
        # Occupied cosines must sum to -sin(n pi/N)/sin(pi/N) for every sector.
        for n_sites in range(3, 51):
            for n in range(n_sites + 1):
                mode_set = analytic.occupied_modes(n_sites, n)
                total = sum(
                    analytic.mode_cosine(n_sites, mode_set.alpha, k)
                    for k in mode_set.modes
                )
                closed = -math.sin(n * math.pi / n_sites) / math.sin(math.pi / n_sites)
                assert total == pytest.approx(closed, abs=1e-10)


class TestVacuumEnergy:
    def test_returns_field(self):
        # The empty sector's energy density is exactly g.
        assert analytic.min_energy_density(8, 0, 0.3) == 0.3
        assert analytic.min_energy_density(9, 0, 0.0) == 0.0

    def test_summed_form_matches(self):
        # (1/N) sum_k [g - cos(2*pi*(alpha + k)/N)] collapses to g for either
        # offset, because the cosines sum to zero over a full period.
        for alpha in (0.0, 0.5):
            summed = sum(
                -0.4 - math.cos(2 * math.pi * (k + alpha) / 7) for k in range(7)
            ) / 7
            assert summed == pytest.approx(-0.4, abs=1e-12)
            assert analytic.min_energy_density(7, 0, -0.4) == pytest.approx(
                summed, abs=1e-12
            )


class TestMinEnergyDensity:
    @pytest.mark.parametrize("n_sites,g", [(5, 0.3), (8, -1.2), (12, 0.0)])
    def test_edge_sectors(self, n_sites, g):
        assert analytic.min_energy_density(n_sites, 0, g) == pytest.approx(g, abs=1e-15)
        assert analytic.min_energy_density(n_sites, n_sites, g) == pytest.approx(
            -g, abs=1e-15
        )

    def test_half_filling_at_zero_field(self):
        # -(1/4)/sin(pi/8); the dense-oracle cross-check lives in test_oracle.
        assert analytic.min_energy_density(8, 4, 0.0) == pytest.approx(
            -0.6532814824381883, abs=1e-15
        )

    def test_particle_hole_antisymmetry(self):
        for n_sites in (4, 7, 10):
            for n in range(n_sites + 1):
                for g in (-1.3, -0.2, 0.8):
                    assert analytic.min_energy_density(
                        n_sites, n, g
                    ) == pytest.approx(
                        analytic.min_energy_density(n_sites, n_sites - n, -g), abs=1e-12
                    )


class TestPublicTypes:
    def test_mode_set(self):
        modes = analytic.ModeSet(n=2, alpha=0.5, modes=(1, 2))
        assert (modes.n, modes.alpha, modes.modes) == (2, 0.5, (1, 2))
        assert repr(modes) == "ModeSet(n=2, alpha=0.5, modes=(1, 2))"
        assert modes == analytic.occupied_modes(4, 2)
        assert hash(modes) == hash(analytic.ModeSet(n=2, alpha=0.5, modes=(1, 2)))
        assert len({modes, analytic.occupied_modes(4, 2)}) == 1
        # Named tuples: equal to the plain tuple of their fields.
        assert modes == (2, 0.5, (1, 2))
        with pytest.raises(AttributeError):
            modes.n = 3
        with pytest.raises(AttributeError):
            modes.extra = 1

    def test_critical_point(self):
        point = analytic.CriticalPoint(n=0, g_c=-1.0)
        assert (point.n, point.g_c) == (0, -1.0)
        assert repr(point) == "CriticalPoint(n=0, g_c=-1.0)"
        assert point == analytic.critical_points(8)[0]
        assert hash(point) == hash(analytic.CriticalPoint(n=0, g_c=-1.0))
        assert tuple(point) == (0, -1.0)
        with pytest.raises(AttributeError):
            point.g_c = 1.0
        with pytest.raises(AttributeError):
            point.extra = 1

    def test_crossing_table_is_shared_and_immutable(self):
        assert analytic._crossing_fields(8) is analytic._crossing_fields(8)
        assert isinstance(analytic._crossing_fields(8), tuple)


class TestCriticalPoints:
    def test_endpoints(self):
        for n_sites in range(3, 51):
            points = analytic.critical_points(n_sites)
            assert points[0].g_c == pytest.approx(-1.0, abs=1e-14)
            assert points[n_sites].g_c == pytest.approx(1.0, abs=1e-14)

    def test_example_against_intersection(self):
        # g_c(3) for N = 8, cross-checked by solving the line intersection.
        value = analytic.critical_points(8)[3].g_c
        assert value == pytest.approx(-0.19891236737965806, abs=1e-15)
        solved = brentq(
            lambda g: sector_minimum(8, 3, g) - sector_minimum(8, 4, g), -2, 2,
            xtol=1e-15,
        )
        assert value == pytest.approx(solved, abs=1e-10)

    def test_monotone_and_antisymmetric(self):
        for n_sites in (4, 7, 12, 33):
            fields = [cp.g_c for cp in analytic.critical_points(n_sites)]
            # Strict growth over the physical crossings n = 0..N-1; the
            # formula's n = N extrapolation repeats the +1 endpoint.
            physical = fields[:n_sites]
            assert all(a < b for a, b in zip(physical, physical[1:]))
            assert fields[n_sites - 1] == pytest.approx(1.0, abs=1e-14)
            assert fields[n_sites] == pytest.approx(fields[n_sites - 1], abs=1e-14)
            for n in range(n_sites):
                assert fields[n] == pytest.approx(
                    -fields[n_sites - 1 - n], abs=1e-12
                )


class TestGroundSector:
    @pytest.mark.parametrize("g,expected", [(-2.0, 0), (2.0, 8), (0.0, 4)])
    def test_examples(self, g, expected):
        assert analytic.ground_sector(8, g) == expected

    def test_half_filling_bracket(self):
        fields = [cp.g_c for cp in analytic.critical_points(8)]
        assert fields[3] < 0.0 < fields[4]

    def test_raises_on_crossing(self):
        for n_sites in (4, 8, 9):
            for cp in analytic.critical_points(n_sites)[:n_sites]:
                with pytest.raises(DegenerateAtCrossing):
                    analytic.ground_sector(n_sites, cp.g_c)

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_field(self, g):
        with pytest.raises(ValueError, match="finite"):
            analytic.ground_sector(8, g)

    def test_accepts_numpy_integer_sites(self):
        for g in (-2.0, 0.3, 2.0):
            assert analytic.ground_sector(np.int64(8), g) == analytic.ground_sector(8, g)
        assert analytic.finite_size_parameter(np.int32(8)) == analytic.finite_size_parameter(8)

    def test_rejects_bool_sites(self):
        with pytest.raises(TypeError):
            analytic.ground_sector(True, 0.3)


class TestGroundEnergy:
    def test_polarized_region(self):
        assert analytic.ground_energy_density(8, -1.5) == pytest.approx(-1.5, abs=1e-15)

    def test_half_filling(self):
        assert analytic.ground_energy_density(8, 0.0) == pytest.approx(
            -0.6532814824381883, abs=1e-15
        )

    def test_continuous_at_crossings(self):
        # Both adjacent sector lines give the same value at the crossing.
        for n_sites in (5, 8, 11):
            for m, cp in enumerate(analytic.critical_points(n_sites)[:n_sites]):
                left = analytic.min_energy_density(n_sites, m, cp.g_c)
                right = analytic.min_energy_density(n_sites, m + 1, cp.g_c)
                at = analytic.ground_energy_density(n_sites, cp.g_c)
                assert left == pytest.approx(right, abs=1e-12)
                assert at == pytest.approx(left, abs=1e-12)
        assert analytic.ground_energy_density(6, -1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_concavity(self):
        rng = np.random.default_rng(7)
        for n_sites in (4, 7, 10):
            for _ in range(200):
                a, b, c = np.sort(rng.uniform(-2.0, 2.0, size=3))
                if c - a < 1e-9:
                    continue
                t = (b - a) / (c - a)
                chord = (1 - t) * analytic.ground_energy_density(n_sites, a) + (
                    t
                ) * analytic.ground_energy_density(n_sites, c)
                assert analytic.ground_energy_density(n_sites, b) >= chord - 1e-12


class TestEnvelope:
    def test_zero_field_value(self):
        chi = analytic.finite_size_parameter(9)
        assert analytic.envelope_energy(9, 0.0) == pytest.approx(
            -2.0 / (math.pi * chi), abs=1e-15
        )

    def test_linear_branch(self):
        chi = analytic.finite_size_parameter(9)
        for sign in (1.0, -1.0):
            g = sign * 1.2 / chi
            assert analytic.envelope_energy(9, g) == pytest.approx(
                -abs(g), abs=1e-15
            )

    def test_continuity_at_matching_point(self):
        chi = analytic.finite_size_parameter(45)
        g_star = 1.0 / chi
        below = analytic.envelope_energy(45, g_star - 1e-10)
        above = analytic.envelope_energy(45, g_star + 1e-10)
        assert below == pytest.approx(above, abs=1e-9)

    def test_first_derivative_continuity(self):
        # The inside slope approaches the matching point like sqrt(h), so a
        # two-term Richardson step in sqrt(h) is needed to hit 1e-6.
        for n_sites in (5, 9, 45):
            chi = analytic.finite_size_parameter(n_sites)
            g_star = 1.0 / chi
            f = lambda g: analytic.envelope_energy(n_sites, g)
            h = 1e-4

            def inside(step):
                return (f(g_star) - f(g_star - step)) / step

            left = 2.0 * inside(h / 4) - inside(h)
            right = (f(g_star + h) - f(g_star)) / h
            assert left == pytest.approx(right, abs=1e-6)

    def test_lower_bounds_ground_energy(self):
        for n_sites in (5, 8, 12):
            for g in np.linspace(-2.0, 2.0, 101):
                assert (
                    analytic.envelope_energy(n_sites, g)
                    <= analytic.ground_energy_density(n_sites, g) + 1e-12
                )

    def test_tangency_points(self):
        # The envelope touches the sector line n at g = -cos(n pi/N)/chi.
        for n_sites in (5, 8, 12):
            chi = analytic.finite_size_parameter(n_sites)
            for n in range(1, n_sites):
                g = -math.cos(n * math.pi / n_sites) / chi
                assert analytic.envelope_energy(n_sites, g) == pytest.approx(
                    analytic.min_energy_density(n_sites, n, g), abs=1e-12
                )

    def test_approaches_thermodynamic_limit(self):
        for g in (0.0, 0.5, -0.5):
            gaps = [
                abs(analytic.envelope_energy(n, g) - analytic.thermodynamic_energy(g))
                for n in (5, 9, 45)
            ]
            assert gaps[0] > gaps[1] > gaps[2]


class TestEnvelopeSecondDerivative:
    def test_zero_field_value_and_finite_differences(self):
        chi = analytic.finite_size_parameter(9)
        value = analytic.envelope_second_derivative(9, 0.0)
        assert value == pytest.approx(-(2.0 / math.pi) * chi, abs=1e-15)
        h = 1e-5
        numeric = (
            analytic.envelope_energy(9, h)
            - 2.0 * analytic.envelope_energy(9, 0.0)
            + analytic.envelope_energy(9, -h)
        ) / h**2
        assert value == pytest.approx(numeric, abs=1e-4)

    def test_outside_region_is_flat(self):
        assert analytic.envelope_second_derivative(9, 2.0) == 0.0

    def test_divergence_trend(self):
        chi = analytic.finite_size_parameter(9)
        near = analytic.envelope_second_derivative(9, 0.999 / chi)
        at_zero = analytic.envelope_second_derivative(9, 0.0)
        assert near < 0
        assert abs(near) > 10 * abs(at_zero)

    def test_singular_point_raises(self):
        chi = analytic.finite_size_parameter(9)
        for sign in (1.0, -1.0):
            with pytest.raises(SingularPoint):
                analytic.envelope_second_derivative(9, sign / chi)


class TestThermodynamicEnergy:
    def test_values(self):
        assert analytic.thermodynamic_energy(0.0) == pytest.approx(
            -0.6366197723675814, abs=1e-15
        )
        assert analytic.thermodynamic_energy(-3.0) == -3.0

    def test_branch_continuity(self):
        smooth = 1.0 * (1 - 2 / math.pi * math.acos(-1.0)) - (
            2 / math.pi
        ) * math.sqrt(0.0)
        assert analytic.thermodynamic_energy(1.0) == pytest.approx(smooth, abs=1e-12)
        assert analytic.thermodynamic_energy(1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_envelope_with_unit_chi(self):
        for g in np.linspace(-1.5, 1.5, 31):
            big_n = analytic.envelope_energy(10**6, g)
            assert analytic.thermodynamic_energy(g) == pytest.approx(big_n, abs=1e-10)


class TestRelativeError:
    def test_asymptotic_coefficient(self):
        value = analytic.relative_error(50)
        assert value == pytest.approx(-math.pi**2 / (6 * 50**2), rel=0.01)

    def test_vanishes_at_large_n(self):
        assert analytic.relative_error(10**6) == pytest.approx(0.0, abs=1e-11)

    def test_monotone_decay(self):
        small, large = analytic.relative_error(5), analytic.relative_error(10)
        assert small < 0 and large < 0
        assert abs(small) > abs(large)



class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        n_sites=st.integers(3, 60),
        g_low=st.floats(-5.0, 5.0),
        g_high=st.floats(-5.0, 5.0),
    )
    def test_ground_sector_is_monotone_in_field(self, n_sites, g_low, g_high):
        g_low, g_high = sorted((g_low, g_high))
        crossings = [cp.g_c for cp in analytic.critical_points(n_sites)]
        for g in (g_low, g_high):
            assume(min(abs(g - gc) for gc in crossings) > analytic.CROSSING_TOLERANCE)
        assert analytic.ground_sector(n_sites, g_low) <= analytic.ground_sector(
            n_sites, g_high
        )

    @settings(max_examples=200, deadline=None)
    @given(n_sites=st.integers(3, 60), g=st.floats(-5.0, 5.0))
    def test_envelope_below_ground_below_every_sector(self, n_sites, g):
        ground = analytic.ground_energy_density(n_sites, g)
        assert analytic.envelope_energy(n_sites, g) <= ground + 1e-12
        for n in range(n_sites + 1):
            assert ground <= analytic.min_energy_density(n_sites, n, g) + 1e-12


class TestFieldGrid:
    """field_grid must give the very doubles of numpy.linspace, its reference."""

    @pytest.mark.parametrize(
        "g_min,g_max,steps",
        [
            (-1.5, 1.5, 121),  # the README grid
            (-1.5, 1.5, 61),  # the CLI default grid
            (0.0, 1e-320, 7),  # a denormal span
            (0.0, 1e-323, 7),  # the step rounds to 0: i*step would be 0 inside
            (-0.3, 0.7, 2),  # the two ends alone
            (0, 1, 5),  # integer ends
        ],
    )
    def test_fixed_grids_match_linspace(self, g_min, g_max, steps):
        assert analytic.field_grid(g_min, g_max, steps) == np.linspace(g_min, g_max, steps).tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        g_min=st.floats(allow_nan=False, allow_infinity=False),
        g_max=st.floats(allow_nan=False, allow_infinity=False),
        steps=st.integers(2, 300),
    )
    def test_matches_linspace(self, g_min, g_max, steps):
        assume(math.isfinite(g_max - g_min))
        grid = analytic.field_grid(g_min, g_max, steps)
        # Near the largest double, (steps - 1)*step can round past it; the
        # last point is replaced by g_max on both sides.
        with np.errstate(over="ignore"):
            assert grid == np.linspace(g_min, g_max, steps).tolist()
        assert len(grid) == steps and grid[0] == g_min and grid[-1] == g_max

    @pytest.mark.parametrize("g_min,g_max", [(-1e308, 1e308), (1e308, -1e308)])
    def test_rejects_overflowing_span(self, g_min, g_max):
        with pytest.raises(ValueError, match="not finite"):
            analytic.field_grid(g_min, g_max, 3)

    @pytest.mark.parametrize(
        "g_min,g_max",
        [(0, 10**400), (-(10**400), 0), (0, 10**5000), (math.nan, 1.0), (0.0, math.inf)],
        ids=["int-1e400", "int-minus-1e400", "int-1e5000", "nan", "inf"],
    )
    def test_rejects_ends_that_are_not_finite_doubles(self, g_min, g_max):
        # An int past the double range used to escape as OverflowError from
        # float(); 10**5000 has too many digits to print in the message.
        with pytest.raises(ValueError, match="finite"):
            analytic.field_grid(g_min, g_max, 3)

    @pytest.mark.parametrize("steps", [1, 0, -4])
    def test_rejects_fewer_than_two_steps(self, steps):
        with pytest.raises(ValueError, match="at least 2 steps"):
            analytic.field_grid(-1.0, 1.0, steps)

    @pytest.mark.parametrize("steps", [True, 3.0, 2.5])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(TypeError, match="grid steps"):
            analytic.field_grid(-1.0, 1.0, steps)
