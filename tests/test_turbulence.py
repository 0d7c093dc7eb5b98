import math

import numpy as np
import pytest

from fsolink.turbulence import (
    ApertureModel,
    ApertureModelKind,
    Regime,
    ScintillationVariant,
    TurbulenceProfile,
    av_andrews,
    av_giggenbach,
    av_yura,
    cn2,
    giggenbach_layer_distance,
    psi,
    rytov_downlink,
    rytov_horizontal,
    scintillation_index,
    turbulence_scale_height,
)

DEFAULTS = TurbulenceProfile()  # c0=1.7e-14, v_rms=26.25, h_ogs=65 m
WAVELENGTH = 1550e-9


def cn2_oracle(profile, h):
    """Vectorized profile evaluation, independent of the library routine."""
    h = np.asarray(h, dtype=float)
    return (
        8.148e-56 * profile.v_rms**2 * h**10 * np.exp(-h / 1000.0)
        + 2.7e-16 * np.exp(-h / 1500.0)
        + profile.c0 * np.exp(-profile.h_ogs_m / 700.0) * np.exp((profile.h_ogs_m - h) / 100.0)
    )


def rytov_moment_oracle(profile, top_m, exponent, panels=1_000_000):
    """Brute-force trapezoid of Cn^2(z) (z - h_ogs)^exponent on a uniform grid."""
    zs = np.linspace(profile.h_ogs_m, min(top_m, 100e3), panels + 1)
    return np.trapezoid(cn2_oracle(profile, zs) * (zs - profile.h_ogs_m) ** exponent, zs)


class TestCn2:
    def test_sea_level_station_ground_value(self):
        profile = TurbulenceProfile(h_ogs_m=0.0)
        assert cn2(profile, 0.0) == pytest.approx(profile.c0 + 2.7e-16, rel=1e-12)
        assert cn2(profile, 0.0) == pytest.approx(1.727e-14, rel=1e-3)

    def test_collapses_at_100_km(self):
        assert cn2(DEFAULTS, 100e3) < 1e-20

    def test_ten_km_term_by_term(self):
        # Summands evaluated independently at 40-digit precision and frozen.
        value = cn2(DEFAULTS, 10e3)
        wind = 2.548970544027881523556122717737946e-17
        background = 3.436111263617482472996772243698682e-19
        ground = 1.103989135693330973526559557008445e-57
        assert value == pytest.approx(wind + background + ground, rel=1e-12)

    def test_positive_and_vanishing_aloft(self):
        hs = np.geomspace(65.0, 90e3, 200)
        values = np.array([cn2(DEFAULTS, float(h)) for h in hs])
        assert np.all(values > 0)
        assert values[-1] < 1e-18
        assert cn2(DEFAULTS, 200e3) < 1e-40

    def test_rejects_below_station(self):
        with pytest.raises(ValueError):
            cn2(DEFAULTS, 10.0)


class TestRytovHorizontal:
    def test_no_turbulence(self):
        assert rytov_horizontal(0.0, WAVELENGTH, 1000.0) == 0.0

    def test_path_power_law(self):
        base = rytov_horizontal(1e-14, WAVELENGTH, 1000.0)
        doubled = rytov_horizontal(1e-14, WAVELENGTH, 2000.0)
        assert doubled / base == pytest.approx(2.0 ** (11.0 / 6.0), rel=1e-12)

    def test_frozen_value(self):
        # 1.23 * 1e-14 * (2 pi / 1550nm)^(7/6) * 1000^(11/6), 40-digit oracle
        assert rytov_horizontal(1e-14, WAVELENGTH, 1000.0) == pytest.approx(
            0.19909543851127026, rel=1e-12
        )


class TestRytovDownlink:
    def test_secant_scaling_is_exact(self):
        base = rytov_downlink(DEFAULTS, WAVELENGTH, 420e3, 0.0)
        tilted = rytov_downlink(DEFAULTS, WAVELENGTH, 420e3, math.radians(60.0))
        sec = 1.0 / math.cos(math.radians(60.0))
        assert tilted / base == pytest.approx(sec ** (11.0 / 6.0), rel=1e-12)

    def test_altitude_above_turbulence_is_immaterial(self):
        leo = rytov_downlink(DEFAULTS, WAVELENGTH, 420e3, 0.0)
        meo = rytov_downlink(DEFAULTS, WAVELENGTH, 20200e3, 0.0)
        assert abs(meo - leo) / leo < 1e-3

    def test_monotone_in_zenith(self):
        values = [
            rytov_downlink(DEFAULTS, WAVELENGTH, 420e3, math.radians(z))
            for z in (0.0, 20.0, 40.0, 60.0, 75.0, 80.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_table1_zenith_against_brute_force(self):
        expected = 2.25 * (2 * math.pi / WAVELENGTH) ** (7.0 / 6.0) * rytov_moment_oracle(
            DEFAULTS, 420e3, 5.0 / 6.0
        )
        assert rytov_downlink(DEFAULTS, WAVELENGTH, 420e3, 0.0) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_configurations_against_brute_force(self, seed):
        rng = np.random.default_rng(1000 + seed)
        profile = TurbulenceProfile(
            c0=float(rng.uniform(5e-15, 5e-14)),
            v_rms=float(rng.uniform(10.0, 40.0)),
            h_ogs_m=float(rng.uniform(0.0, 2000.0)),
        )
        wavelength = float(rng.uniform(800e-9, 1600e-9))
        altitude = float(rng.uniform(300e3, 21000e3))
        zenith = math.radians(float(rng.uniform(0.0, 78.0)))
        sec = 1.0 / math.cos(zenith)
        expected = (
            2.25
            * (2 * math.pi / wavelength) ** (7.0 / 6.0)
            * sec ** (11.0 / 6.0)
            * rytov_moment_oracle(profile, altitude, 5.0 / 6.0)
        )
        assert rytov_downlink(profile, wavelength, altitude, zenith) == pytest.approx(expected, rel=1e-6)

    def test_truncation_error_is_negligible(self):
        # Extending the brute-force domain beyond the 100 km cutoff moves the
        # integral by well under 1e-8 relative.
        inside = rytov_moment_oracle(DEFAULTS, 100e3, 5.0 / 6.0)
        zs = np.linspace(100e3, 420e3, 200_001)
        tail = np.trapezoid(cn2_oracle(DEFAULTS, zs) * (zs - DEFAULTS.h_ogs_m) ** (5.0 / 6.0), zs)
        assert tail / inside < 1e-8

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            rytov_downlink(DEFAULTS, WAVELENGTH, 420e3, math.pi / 2)
        with pytest.raises(ValueError):
            rytov_downlink(DEFAULTS, WAVELENGTH, 10.0, 0.0)


class TestScintillationIndex:
    def test_zero_rytov(self):
        result = scintillation_index(0.0)
        assert result.sigma_I2 == 0.0
        assert result.regime is Regime.WEAK

    @pytest.mark.parametrize("variant", list(ScintillationVariant))
    def test_weak_limit_linearizes(self, variant):
        s = 1e-3
        result = scintillation_index(s, variant)
        assert result.sigma_I2 == pytest.approx(s, rel=1e-2)

    def test_variants_agree_in_weak_regime(self):
        for s in (0.001, 0.01, 0.1):
            a = scintillation_index(s, ScintillationVariant.SEVEN_SIXTHS).sigma_I2
            b = scintillation_index(s, ScintillationVariant.FIVE_SIXTHS).sigma_I2
            assert abs(a - b) / b < 0.01

    def test_five_sixths_saturates_near_one(self):
        limit = math.exp(0.51 / 0.69 ** (5.0 / 6.0)) - 1.0
        value = scintillation_index(1e6, ScintillationVariant.FIVE_SIXTHS).sigma_I2
        assert limit == pytest.approx(1.0033173163699299, rel=1e-12)
        assert value == pytest.approx(limit, abs=5e-3)
        assert value == pytest.approx(1.0, abs=1e-2)

    def test_regime_classification(self):
        assert scintillation_index(0.1).regime is Regime.WEAK
        moderate = scintillation_index(2.0, ScintillationVariant.FIVE_SIXTHS)
        assert 0.9 <= moderate.sigma_I2 <= 1.1
        assert moderate.regime is Regime.MODERATE
        strong = scintillation_index(5.0, ScintillationVariant.FIVE_SIXTHS)
        assert strong.sigma_I2 > 1.1
        assert strong.regime is Regime.STRONG

    def test_non_negative_everywhere(self):
        for s in np.geomspace(1e-6, 1e5, 45):
            for variant in ScintillationVariant:
                assert scintillation_index(float(s), variant).sigma_I2 >= 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scintillation_index(-0.1)


class TestApertureAveraging:
    def test_point_aperture_limits(self):
        model = ApertureModel()
        assert av_andrews(1e-9, WAVELENGTH, 420e3) == pytest.approx(1.0, abs=1e-6)
        assert av_giggenbach(1e-9, WAVELENGTH, 45.0, model) == pytest.approx(1.0, abs=1e-6)
        h_s = turbulence_scale_height(DEFAULTS, 420e3)
        assert av_yura(1e-9, WAVELENGTH, h_s, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_andrews_frozen_value(self):
        assert av_andrews(1.0, WAVELENGTH, 420e3) == pytest.approx(0.22713621003931579, rel=1e-12)
        assert av_andrews(0.5, WAVELENGTH, 420e3) == pytest.approx(0.56124954378109873, rel=1e-12)

    def test_giggenbach_layer_distance_at_zenith(self):
        model = ApertureModel()
        layer = giggenbach_layer_distance(90.0, model)
        assert layer == pytest.approx(12e3 / (1.0 + (1.0 / 9.0) ** 2), rel=1e-12)
        assert layer == pytest.approx(11853.66, abs=0.01)

    def test_giggenbach_low_elevation_grows_then_shrinks(self):
        model = ApertureModel()
        peak = giggenbach_layer_distance(10.0, model)
        assert giggenbach_layer_distance(5.0, model) < peak
        assert giggenbach_layer_distance(45.0, model) < peak

    def test_yura_scale_height_against_brute_force(self):
        num = rytov_moment_oracle(DEFAULTS, 420e3, 2.0)
        den = rytov_moment_oracle(DEFAULTS, 420e3, 5.0 / 6.0)
        expected = (num / den) ** (6.0 / 7.0)
        assert turbulence_scale_height(DEFAULTS, 420e3) == pytest.approx(expected, rel=1e-6)
        assert 0.0 < expected < math.inf

    @pytest.mark.parametrize("seed", range(5))
    def test_yura_integrals_random_profiles(self, seed):
        rng = np.random.default_rng(2000 + seed)
        profile = TurbulenceProfile(
            c0=float(rng.uniform(5e-15, 5e-14)),
            v_rms=float(rng.uniform(10.0, 40.0)),
            h_ogs_m=float(rng.uniform(0.0, 2000.0)),
        )
        altitude = float(rng.uniform(300e3, 21000e3))
        num = rytov_moment_oracle(profile, altitude, 2.0)
        den = rytov_moment_oracle(profile, altitude, 5.0 / 6.0)
        assert turbulence_scale_height(profile, altitude) == pytest.approx(
            (num / den) ** (6.0 / 7.0), rel=1e-6
        )

    @pytest.mark.parametrize("kind", list(ApertureModelKind))
    def test_strictly_decreasing_in_diameter(self, kind):
        model = ApertureModel(kind=kind)
        h_s = turbulence_scale_height(DEFAULTS, 420e3)
        formula = {
            ApertureModelKind.ANDREWS: lambda d: av_andrews(d, WAVELENGTH, 420e3),
            ApertureModelKind.GIGGENBACH: lambda d: av_giggenbach(d, WAVELENGTH, 45.0, model),
            ApertureModelKind.YURA: lambda d: av_yura(d, WAVELENGTH, h_s, math.radians(45.0)),
        }[kind]
        values = [formula(d) for d in np.linspace(0.05, 2.0, 25).tolist()]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_andrews_weaker_averaging_at_longer_range(self):
        short = av_andrews(0.5, WAVELENGTH, 420e3)
        long = av_andrews(0.5, WAVELENGTH, 20200e3)
        assert long > short

    def test_domain_errors(self):
        model = ApertureModel()
        with pytest.raises(ValueError):
            av_giggenbach(0.5, WAVELENGTH, 0.0, model)
        with pytest.raises(ValueError):
            av_giggenbach(0.5, WAVELENGTH, -5.0, model)
        with pytest.raises(ValueError):
            av_andrews(0.0, WAVELENGTH, 420e3)

    @pytest.mark.parametrize("h_ogs_m", [100e3, 150e3])
    def test_yura_scale_height_of_a_station_above_the_profile(self, h_ogs_m):
        profile = TurbulenceProfile(h_ogs_m=h_ogs_m)
        with pytest.raises(ValueError, match="no weight above the station"):
            turbulence_scale_height(profile, 200e3)
        # No turbulence above the station: the Rytov index is 0.
        assert rytov_downlink(profile, WAVELENGTH, 200e3, 0.0) == 0.0


class TestPsi:
    def test_no_averaging(self):
        assert psi(0.5, 1.0) == 0.5

    def test_zero_isi(self):
        assert psi(0.0, 0.3) == 0.0

    def test_product(self):
        assert psi(0.5, 0.227) == pytest.approx(0.1135, rel=1e-12)

    def test_never_exceeds_isi(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = float(rng.uniform(0.0, 3.0))
            av = float(rng.uniform(1e-6, 1.0))
            assert psi(s, av) <= s

    def test_domain(self):
        with pytest.raises(ValueError):
            psi(-1.0, 0.5)
        with pytest.raises(ValueError):
            psi(0.5, 0.0)
        with pytest.raises(ValueError):
            psi(0.5, 1.5)
        with pytest.raises(ValueError):
            psi(0.5, math.nan)

    def test_broadcast_arrays_equal_the_scalar_form(self):
        sigma_i2 = np.array([0.0, 0.3, 2.5])
        av = np.array([[1.0], [0.227], [1e-6]])
        got = psi(sigma_i2, av)
        assert got.shape == (3, 3)
        expected = [[psi(s, a) for s in sigma_i2.tolist()] for a in av.ravel().tolist()]
        assert got.tolist() == expected

    @pytest.mark.parametrize("bad", [0.0, math.nan, 1.5, -0.2])
    def test_any_av_outside_the_range_raises(self, bad):
        with pytest.raises(ValueError, match="av must lie"):
            psi(np.array([0.5, 0.5, 0.5]), np.array([0.3, bad, 1.0]))

    def test_any_negative_isi_raises(self):
        with pytest.raises(ValueError, match="sigma_I2"):
            psi(np.array([0.5, -1e-12]), 0.5)

    def test_nan_isi_passes(self):
        assert math.isnan(psi(math.nan, 0.5))
        got = psi(np.array([0.2, math.nan]), np.array([0.5, 0.5]))
        assert got[0] == 0.1 and math.isnan(got[1])
