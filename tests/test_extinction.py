import math

import numpy as np
import pytest

from fsolink.extinction import (
    ATMOSPHERE_TOP_M,
    ExtinctionParams,
    beer_lambert,
    exact_slant_transmittance,
    slant_transmittance,
    zenith_transmittance,
)
from fsolink.geometry import LinkGeometry


class TestBeerLambert:
    def test_lossless_medium(self):
        assert beer_lambert(0.0, 1e7) == 1.0

    def test_zero_path(self):
        assert beer_lambert(5e-6, 0.0) == 1.0

    def test_one_scale_height_of_sea_level_air(self):
        # exp(-0.033)
        assert beer_lambert(5e-6, 6600.0) == pytest.approx(0.9675385595890320, rel=1e-12)
        assert beer_lambert(5e-6, 6600.0) == pytest.approx(0.9675, abs=5e-5)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            beer_lambert(-1e-6, 100.0)
        with pytest.raises(ValueError):
            beer_lambert(1e-6, -100.0)


class TestZenithTransmittance:
    def test_leo_matches_canonical_value(self):
        eta = zenith_transmittance(ExtinctionParams(), 420e3)
        assert eta == pytest.approx(0.9675, abs=1e-4)
        assert -10.0 * math.log10(eta) == pytest.approx(0.143, abs=2e-3)

    def test_no_atmosphere_limit(self):
        assert zenith_transmittance(ExtinctionParams(), 1e-6) == pytest.approx(1.0, abs=1e-9)

    def test_30_km_against_fine_grid_quadrature(self):
        """Quadrature oracle for the optical depth integral, plus the bound gap."""
        params = ExtinctionParams()
        hs = np.linspace(0.0, 30e3, 2_000_001)
        depth = np.trapezoid(params.alpha0_per_m * np.exp(-hs / params.h0_m), hs)
        assert zenith_transmittance(params, 30e3) == pytest.approx(math.exp(-depth), rel=1e-10)
        bound = math.exp(-params.alpha0_per_m * params.h0_m)
        assert abs(zenith_transmittance(params, 30e3) - bound) < 1e-3

    def test_lower_bound_holds_for_all_altitudes(self):
        params = ExtinctionParams()
        bound = math.exp(-params.alpha0_per_m * params.h0_m)
        for alt in (1e3, 10e3, 30e3, 420e3, 20200e3):
            assert zenith_transmittance(params, alt) >= bound


class TestSlantTransmittance:
    def test_zenith_case(self):
        params = ExtinctionParams()
        assert slant_transmittance(params, 420e3, 0.0) == zenith_transmittance(params, 420e3)

    def test_sixty_degrees_squares_the_zenith_value(self):
        params = ExtinctionParams()
        eta_zen = zenith_transmittance(params, 420e3)
        assert slant_transmittance(params, 420e3, math.radians(60.0)) == pytest.approx(eta_zen**2, rel=1e-12)

    def test_eighty_degrees_frozen(self):
        assert slant_transmittance(ExtinctionParams(), 420e3, math.radians(80.0)) == pytest.approx(
            0.8269265309417785, rel=1e-12
        )

    def test_decreasing_in_zenith_and_altitude(self):
        params = ExtinctionParams()
        grid = np.radians(np.linspace(0.0, 85.0, 40))
        values = [slant_transmittance(params, 420e3, float(z)) for z in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert slant_transmittance(params, 500e3, 0.3) <= slant_transmittance(params, 400e3, 0.3)

    def test_rejects_horizon(self):
        with pytest.raises(ValueError):
            slant_transmittance(ExtinctionParams(), 420e3, math.pi / 2)


def simpson_path_oracle(params, geom, panels=1_000_000):
    """Brute-force fixed-grid Simpson of gamma along the slant path."""
    from fsolink.geometry import slant_range

    r0 = geom.earth_radius_m + geom.ogs_altitude_m
    cos_z = math.cos(geom.zenith_angle_rad)
    s = np.linspace(0.0, slant_range(geom), 2 * panels + 1)
    h = np.sqrt(r0 * r0 + s * s + 2.0 * r0 * s * cos_z) - geom.earth_radius_m
    gamma = params.alpha0_per_m * np.exp(-h / params.h0_m)
    width = s[2] - s[0]
    depth = (width / 6.0) * np.sum(gamma[0:-1:2] + 4.0 * gamma[1::2] + gamma[2::2])
    return math.exp(-depth)


class TestExactSlantTransmittance:
    def test_vertical_path_matches_zenith_form(self):
        params = ExtinctionParams()
        geom = LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=0.0)
        exact = exact_slant_transmittance(params, geom)
        # Closed form integrates to the satellite; the path integral stops at
        # the top of the sensible atmosphere, which costs < 1e-8 in depth.
        assert exact == pytest.approx(zenith_transmittance(params, 420e3), rel=1e-7)

    def test_against_brute_force_simpson_at_60_degrees(self):
        params = ExtinctionParams()
        geom = LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=math.radians(60.0))
        assert exact_slant_transmittance(params, geom) == pytest.approx(
            simpson_path_oracle(params, geom), rel=1e-7
        )

    def test_within_one_percent_of_secant_model_to_70_degrees(self):
        params = ExtinctionParams()
        for zen_deg in (0.0, 20.0, 40.0, 60.0, 70.0):
            geom = LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=math.radians(zen_deg))
            exact = exact_slant_transmittance(params, geom)
            secant = slant_transmittance(params, 420e3, math.radians(zen_deg))
            assert abs(exact - secant) / secant < 0.01

    def test_within_five_percent_at_80_degrees(self):
        for altitude in (400e3, 420e3, 20200e3):
            params = ExtinctionParams()
            geom = LinkGeometry(satellite_altitude_m=altitude, zenith_angle_rad=math.radians(80.0))
            exact = exact_slant_transmittance(params, geom)
            secant = slant_transmittance(params, altitude, math.radians(80.0))
            assert abs(exact - secant) / secant < 0.05

    @pytest.mark.parametrize("ogs_m", [ATMOSPHERE_TOP_M, 150e3])
    def test_station_above_the_atmosphere_sees_no_extinction(self, ogs_m):
        geom = LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=0.5, ogs_altitude_m=ogs_m)
        assert exact_slant_transmittance(ExtinctionParams(), geom) == 1.0

    def test_degenerate_altitude_limit(self):
        geom = LinkGeometry(satellite_altitude_m=0.5, zenith_angle_rad=0.7)
        assert exact_slant_transmittance(ExtinctionParams(), geom) == pytest.approx(1.0, abs=1e-5)
