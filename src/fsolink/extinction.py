"""Atmospheric absorption/scattering transmittance.

The attenuation coefficient follows the single-exponential profile
gamma(h) = alpha0 * exp(-h/h0). The sea-level value alpha0 = 5e-6 1/m is the
standard quote for 800 nm; it is applied unchanged at the default 1550 nm
operating wavelength, consistent with the aggregate-profile simplification
used throughout this model. Note the scale height h0 is 6600 m (with
alpha0 * h0 = 0.033 this reproduces the canonical zenith transmittance
0.9675, i.e. 0.143 dB of zenith loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import LinkGeometry, slant_range
from .quadrature import adaptive_simpson

# Altitude above which gamma(h) is negligible (< 1e-12 1/m for the defaults).
ATMOSPHERE_TOP_M = 100_000.0


@dataclass(frozen=True)
class ExtinctionParams:
    alpha0_per_m: float = 5e-6
    h0_m: float = 6_600.0

    def __post_init__(self) -> None:
        if self.alpha0_per_m <= 0:
            raise ValueError("alpha0_per_m must be > 0")
        if self.h0_m <= 0:
            raise ValueError("h0_m must be > 0")


def beer_lambert(gamma_per_m: float, distance_m: float) -> float:
    """Transmittance exp(-gamma * d) through a uniform medium."""
    if gamma_per_m < 0:
        raise ValueError("gamma_per_m must be >= 0")
    if distance_m < 0:
        raise ValueError("distance_m must be >= 0")
    return math.exp(-gamma_per_m * distance_m)


def zenith_transmittance(params: ExtinctionParams, altitude_m: float) -> float:
    """Transmittance for a vertical path from sea level up to ``altitude_m``.

    Closed form of integrating gamma(h): exp(-alpha0 h0 (1 - exp(-H/h0))).
    For H >= 30 km this saturates at exp(-alpha0 h0) ~ 0.9675.
    """
    if altitude_m <= 0:
        raise ValueError("altitude_m must be > 0")
    a, h0 = params.alpha0_per_m, params.h0_m
    return math.exp(-a * h0 * (1.0 - math.exp(-altitude_m / h0)))


def slant_transmittance(params: ExtinctionParams, altitude_m: float, zenith_rad: float) -> float:
    """Plane-parallel (secant) slant-path transmittance.

    Raises the zenith transmittance to sec(zenith); diverges toward the
    horizon, so |zenith| must stay below pi/2.
    """
    if abs(zenith_rad) >= math.pi / 2:
        raise ValueError("|zenith_rad| must be < pi/2 (secant model diverges)")
    eta_zen = zenith_transmittance(params, altitude_m)
    return eta_zen ** (1.0 / math.cos(zenith_rad))


def exact_slant_transmittance(params: ExtinctionParams, geom: LinkGeometry) -> float:
    """Slant-path transmittance from the spherical-geometry path integral.

    Integrates gamma(h(s)) along the actual line of sight, where h(s) is the
    altitude of the signal at distance s from the station. Provided for
    validating the secant model; agreement is ~1% out to 70 deg at LEO.
    The path is truncated where it leaves the sensible atmosphere.
    """
    r0 = geom.earth_radius_m + geom.ogs_altitude_m
    cos_z = math.cos(geom.zenith_angle_rad)

    def altitude_at(s: float) -> float:
        return math.sqrt(r0 * r0 + s * s + 2.0 * r0 * s * cos_z) - geom.earth_radius_m

    total_path = slant_range(geom)
    # Find where the ray crosses ATMOSPHERE_TOP_M; beyond it gamma is dust.
    if altitude_at(total_path) > ATMOSPHERE_TOP_M:
        lo, hi = 0.0, total_path
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if altitude_at(mid) > ATMOSPHERE_TOP_M:
                hi = mid
            else:
                lo = mid
        total_path = hi

    def gamma_along(s: float) -> float:
        return params.alpha0_per_m * math.exp(-altitude_at(s) / params.h0_m)

    optical_depth = adaptive_simpson(gamma_along, 0.0, total_path)
    return math.exp(-optical_depth)
