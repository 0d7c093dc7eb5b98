import math

import numpy as np
import pytest

from fsolink.geometry import (
    EARTH_MU_M3_S2,
    EARTH_RADIUS_M,
    LinkGeometry,
    PassTimes,
    ground_half_angle,
    pass_times,
    slant_range,
)


def bisect_ray_sphere(altitude_m, zenith_rad, earth_radius_m, ogs_altitude_m=0.0):
    """Independent slant-range oracle: bisection on the line-of-sight parameter.

    A point at distance s along the ray sits at radius
    sqrt(r0^2 + s^2 + 2 r0 s cos(zenith)); find s where that radius hits the
    satellite shell.
    """
    r0 = earth_radius_m + ogs_altitude_m
    r_sat = earth_radius_m + altitude_m

    def radius_error(s):
        return math.sqrt(r0 * r0 + s * s + 2.0 * r0 * s * math.cos(zenith_rad)) - r_sat

    lo, hi = 0.0, 10.0 * (altitude_m + earth_radius_m)
    assert radius_error(lo) < 0 < radius_error(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if radius_error(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSlantRange:
    def test_zenith_equals_altitude(self):
        geom = LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=0.0)
        assert slant_range(geom) == pytest.approx(420e3, rel=1e-12)

    def test_zenith_measured_from_station_shell(self):
        geom = LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=0.0, ogs_altitude_m=65.0)
        assert slant_range(geom) == pytest.approx(420e3 - 65.0, rel=1e-12)

    def test_degenerate_low_orbit_limit(self):
        for zen in (0.0, 0.5, 1.2):
            geom = LinkGeometry(satellite_altitude_m=1e-3, zenith_angle_rad=zen)
            assert slant_range(geom) < 1.0

    def test_matches_ray_sphere_bisection_at_80_degrees(self):
        zen = math.radians(80.0)
        geom = LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=zen)
        z = slant_range(geom)
        assert z == pytest.approx(bisect_ray_sphere(420e3, zen, EARTH_RADIUS_M), rel=1e-9)
        assert z == pytest.approx(1.492e6, rel=1e-3)

    @pytest.mark.parametrize("altitude_m", [420e3, 2000e3, 20200e3])
    @pytest.mark.parametrize("zenith_deg", [10, 35, 55, 72, 79.5])
    def test_matches_ray_sphere_bisection_on_grid(self, altitude_m, zenith_deg):
        zen = math.radians(zenith_deg)
        geom = LinkGeometry(satellite_altitude_m=altitude_m, zenith_angle_rad=zen, ogs_altitude_m=65.0)
        expected = bisect_ray_sphere(altitude_m, zen, EARTH_RADIUS_M, ogs_altitude_m=65.0) + 0.0
        # Oracle measures from the station shell to the satellite shell, minus
        # nothing: both shells already include the respective altitudes.
        assert slant_range(geom) == pytest.approx(expected, rel=1e-9)

    def test_strictly_increasing_in_zenith(self):
        grid = np.radians(np.linspace(0.0, 85.0, 60))
        ranges = [
            slant_range(LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=float(z)))
            for z in grid
        ]
        assert all(b > a for a, b in zip(ranges, ranges[1:]))

    def test_even_in_zenith_sign(self):
        plus = slant_range(LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=0.9))
        minus = slant_range(LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=-0.9))
        assert plus == minus

    def test_rejects_horizon_and_bad_geometry(self):
        with pytest.raises(ValueError):
            LinkGeometry(satellite_altitude_m=420e3, zenith_angle_rad=math.pi / 2)
        with pytest.raises(ValueError):
            LinkGeometry(satellite_altitude_m=50.0, ogs_altitude_m=65.0)
        with pytest.raises(ValueError):
            LinkGeometry(satellite_altitude_m=420e3, earth_radius_m=0.0)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("satellite_altitude_m", "must exceed ogs_altitude_m"),
            ("zenith_angle_rad", "must be < pi/2"),
            ("ogs_altitude_m", "must be >= 0"),
            ("earth_radius_m", "must be > 0"),
        ],
    )
    def test_rejects_nan_in_each_field(self, field, message):
        values = {"satellite_altitude_m": 420e3, "zenith_angle_rad": 0.3, "ogs_altitude_m": 65.0, field: math.nan}
        with pytest.raises(ValueError, match=f"{field}.*{message}"):
            LinkGeometry(**values)

    # Unchecked, an infinite Earth radius gave a NaN slant range and an infinite altitude an infinite one.
    @pytest.mark.parametrize("field", ["satellite_altitude_m", "earth_radius_m"])
    def test_rejects_infinite_lengths(self, field):
        with pytest.raises(ValueError, match=f"{field} must .* and finite"):
            LinkGeometry(**{"satellite_altitude_m": 5e5, "zenith_angle_rad": 0.3, field: math.inf})


def propagate_pass_oracle(altitude_m, zenith_limit_rad):
    """Time-step the circular orbit and timestamp the zenith-angle crossings.

    The satellite advances at the constant angular rate omega; at each step
    the zenith angle follows from the station/satellite position vectors, and
    each target crossing is bracketed then refined inside one step. Returns
    (total, effective) durations for the symmetric pass.
    """
    r_e = EARTH_RADIUS_M
    r_s = r_e + altitude_m
    omega = math.sqrt(EARTH_MU_M3_S2 / r_s**3)
    dt = 0.005 / omega  # 5 mrad of track per step

    def zenith_at(t):
        phi = omega * t
        los_x = r_s * math.cos(phi) - r_e
        los_y = r_s * math.sin(phi)
        return math.atan2(los_y, los_x)

    def crossing_time(target_zenith):
        t = 0.0
        while zenith_at(t + dt) <= target_zenith:
            t += dt
        lo, hi = t, t + dt
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if zenith_at(mid) > target_zenith:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return 2.0 * crossing_time(math.pi / 2), 2.0 * crossing_time(zenith_limit_rad)


class TestPassTimes:
    def test_500_km_matches_quoted_durations(self):
        times = pass_times(500e3)
        assert times.total_s == pytest.approx(700.0, rel=0.10)
        assert times.effective_s == pytest.approx(450.0, rel=0.10)

    def test_frozen_values(self):
        times = pass_times(500e3)
        assert times.total_s == pytest.approx(692.5490433081095, rel=1e-12)
        assert times.effective_s == pytest.approx(442.63594956608778, rel=1e-12)

    @pytest.mark.parametrize("altitude_m", [420e3, 500e3, 20200e3])
    def test_matches_orbit_propagation_oracle(self, altitude_m):
        times = pass_times(altitude_m)
        total, effective = propagate_pass_oracle(altitude_m, math.radians(80.0))
        assert times.total_s == pytest.approx(total, rel=1e-9)
        assert times.effective_s == pytest.approx(effective, rel=1e-9)

    def test_effective_below_total_everywhere(self):
        for altitude_m in (300e3, 800e3, 5000e3, 20200e3):
            times = pass_times(altitude_m)
            assert 0.0 < times.effective_s < times.total_s

    def test_ratio_increases_toward_horizon_limit(self):
        limits = np.radians(np.linspace(10.0, 89.0, 25))
        ratios = [pass_times(500e3, float(l)).effective_s / pass_times(500e3, float(l)).total_s for l in limits]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < 1.0 for r in ratios)

    def test_grazing_limit_vanishes(self):
        assert pass_times(1.0).total_s < 1.0
        assert ground_half_angle(math.pi / 2, 1.0) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            pass_times(-1.0)
        with pytest.raises(ValueError, match="altitude_m must be > 0"):
            pass_times(math.nan)
        with pytest.raises(ValueError):
            pass_times(500e3, zenith_limit_rad=math.pi / 2)
        with pytest.raises(ValueError):
            PassTimes(total_s=10.0, effective_s=11.0, zenith_limit_rad=1.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize(
        "func, name",
        [
            (pass_times, "earth_radius_m"),
            (pass_times, "mu_m3_s2"),
            (ground_half_angle, "altitude_m"),
            (ground_half_angle, "earth_radius_m"),
        ],
    )
    def test_rejects_non_positive_lengths_and_mu(self, func, name, value):
        zenith = {"zenith_rad": 0.5} if func is ground_half_angle else {}
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            func(**zenith, **{"altitude_m": 500e3, name: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "func, name",
        [
            (pass_times, "altitude_m"),
            (pass_times, "earth_radius_m"),
            (pass_times, "mu_m3_s2"),
            (ground_half_angle, "altitude_m"),
            (ground_half_angle, "earth_radius_m"),
        ],
    )
    def test_rejects_non_finite_lengths_and_mu(self, func, name, value):
        zenith = {"zenith_rad": 0.5} if func is ground_half_angle else {}
        with pytest.raises(ValueError, match=f"{name} must be > 0 and finite"):
            func(**zenith, **{"altitude_m": 500e3, name: value})
