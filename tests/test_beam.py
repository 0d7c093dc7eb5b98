import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from fsolink.beam import BeamParams, encircled_energy, spot_size


class TestSpotSize:
    def test_waist_at_origin(self):
        params = BeamParams(waist_m=0.01)
        assert spot_size(params, 0.0) == 0.01

    def test_sqrt_two_at_rayleigh_range(self):
        params = BeamParams(wavelength_m=1550e-9, waist_m=0.01)
        assert spot_size(params, params.rayleigh_range_m) == pytest.approx(0.01 * math.sqrt(2.0), rel=1e-12)

    def test_far_field_at_leo(self):
        params = BeamParams(wavelength_m=1550e-9, waist_m=0.01)
        w = spot_size(params, 420e3)
        assert w == pytest.approx(20.7, abs=0.05)
        # asymptotic form lambda z / (pi w0)
        assert w == pytest.approx(1550e-9 * 420e3 / (math.pi * 0.01), rel=1e-6)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            spot_size(BeamParams(), -1.0)

    # z_R underflows to 0; (z / z_R)^2 overflows; z / z_R is inf for a subnormal z_R.
    @pytest.mark.parametrize(("waist", "wavelength"), [(1e-200, 1550e-9), (1e-100, 1e12), (1e-160, 1550e-9)])
    def test_overflowing_spot_names_the_waist(self, waist, wavelength):
        with pytest.raises(ValueError, match="waist_m"):
            spot_size(BeamParams(wavelength_m=wavelength, waist_m=waist), 420e3)


def disc_integration_oracle(params: BeamParams, a: float, z_m: float) -> float:
    """2-D numerical integration of the normalized Gaussian irradiance over
    the aperture disc of radius ``a`` (Cartesian, y-limits tracing the circle)."""
    w = spot_size(params, z_m)

    def irradiance(y, x):
        return (2.0 / (math.pi * w * w)) * math.exp(-2.0 * (x * x + y * y) / (w * w))

    val, err = dblquad(
        irradiance,
        -a,
        a,
        lambda x: -math.sqrt(max(a * a - x * x, 0.0)),
        lambda x: math.sqrt(max(a * a - x * x, 0.0)),
        epsabs=1e-13,
        epsrel=1e-10,
    )
    return val


def collected(params: BeamParams, a: float, z_m: float) -> float:
    """Fraction of the beam's power that a centered disc of radius ``a`` collects at range ``z_m``."""
    return encircled_energy(a, spot_size(params, z_m))


class TestDiffractionTransmittance:
    def test_full_capture_near_waist(self):
        assert collected(BeamParams(waist_m=0.001), 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_aperture(self):
        assert collected(BeamParams(), 1e-12, 420e3) < 1e-20

    def test_leo_one_meter_telescope_frozen(self):
        params = BeamParams(wavelength_m=1550e-9, waist_m=0.01)
        eta = collected(params, 0.5, 420e3)
        assert eta == pytest.approx(1.1637370107079595e-3, rel=1e-12)
        assert -10.0 * math.log10(eta) == pytest.approx(29.3, abs=0.1)

    def test_matches_disc_integration_on_random_tuples(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            params = BeamParams(
                wavelength_m=float(rng.uniform(500e-9, 2000e-9)),
                waist_m=float(rng.uniform(0.002, 0.1)),
            )
            a = float(rng.uniform(0.05, 1.0))
            z = float(rng.uniform(1e3, 2e6))
            closed = collected(params, a, z)
            numeric = disc_integration_oracle(params, a, z)
            assert abs(closed - numeric) / numeric < 1e-6

    def test_monotone_in_aperture_and_range(self):
        z = 420e3
        etas = [collected(BeamParams(), a, z) for a in np.linspace(0.05, 2.0, 30)]
        assert all(b > a for a, b in zip(etas, etas[1:]))
        far = [collected(BeamParams(), 0.5, z) for z in np.linspace(1e4, 2e7, 30)]
        assert all(b < a for a, b in zip(far, far[1:]))

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            params = BeamParams(
                wavelength_m=float(rng.uniform(400e-9, 2000e-9)),
                waist_m=float(rng.uniform(1e-3, 0.5)),
            )
            a = float(rng.uniform(1e-3, 5.0))
            eta = collected(params, a, float(rng.uniform(0.0, 3e7)))
            assert 0.0 < eta < 1.0
