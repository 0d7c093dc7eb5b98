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
from dataclasses import dataclass, field, replace

from ._bounds import check_fields
from .geometry import LinkGeometry, slant_range
from .quadrature import adaptive_simpson

# Altitude above which gamma(h) is negligible (< 1e-12 1/m for the defaults).
ATMOSPHERE_TOP_M = 100_000.0


@dataclass(frozen=True)
class ExtinctionParams:
    """Extinction profile gamma(h) = alpha0 exp(-h/h0): sea-level ``alpha0_per_m`` in 1/m, scale ``h0_m`` in m."""

    alpha0_per_m: float = field(default=5e-6, metadata={"gt": 0.0})
    h0_m: float = field(default=6_600.0, metadata={"gt": 0.0})

    __post_init__ = check_fields


def beer_lambert(gamma_per_m: float, distance_m: float) -> float:
    """Transmittance exp(-gamma * d) through a uniform medium."""
    # Each check is written so that NaN fails it.
    if not gamma_per_m >= 0:
        raise ValueError("gamma_per_m must be >= 0")
    if not distance_m >= 0:
        raise ValueError("distance_m must be >= 0")
    return math.exp(-gamma_per_m * distance_m)


def zenith_transmittance(params: ExtinctionParams, altitude_m: float) -> float:
    """Transmittance for a vertical path from sea level up to ``altitude_m``.

    Closed form of integrating gamma(h): exp(-alpha0 h0 (1 - exp(-H/h0))).
    For H >= 30 km this saturates at exp(-alpha0 h0) ~ 0.9675.
    """
    if not altitude_m > 0:
        raise ValueError("altitude_m must be > 0")
    a, h0 = params.alpha0_per_m, params.h0_m
    return math.exp(-a * h0 * (1.0 - math.exp(-altitude_m / h0)))


def slant_transmittance(params: ExtinctionParams, altitude_m: float, zenith_rad: float) -> float:
    """Plane-parallel (secant) slant-path transmittance.

    Raises the zenith transmittance to sec(zenith); diverges toward the
    horizon, so |zenith| must stay below pi/2.
    """
    if not abs(zenith_rad) < math.pi / 2:
        raise ValueError("|zenith_rad| must be < pi/2 (secant model diverges)")
    eta_zen = zenith_transmittance(params, altitude_m)
    return eta_zen ** (1.0 / math.cos(zenith_rad))


def exact_slant_transmittance(params: ExtinctionParams, geom: LinkGeometry) -> float:
    """Slant-path transmittance from the spherical-geometry path integral.

    Integrates gamma(h(s)) along the actual line of sight, where h(s) is the
    altitude of the signal at distance s from the station. Provided for
    validating the secant model; agreement is ~1% out to 70 deg at LEO.
    The path is truncated where it leaves the sensible atmosphere, at the
    slant range to ``ATMOSPHERE_TOP_M``; a station at or above it sees 1.0.
    """
    if geom.satellite_altitude_m > ATMOSPHERE_TOP_M:
        if geom.ogs_altitude_m >= ATMOSPHERE_TOP_M:
            return 1.0
        geom = replace(geom, satellite_altitude_m=ATMOSPHERE_TOP_M)
    r0 = geom.earth_radius_m + geom.ogs_altitude_m
    cos_z = math.cos(geom.zenith_angle_rad)

    def gamma_along(s: float) -> float:
        altitude = math.sqrt(r0 * r0 + s * s + 2.0 * r0 * s * cos_z) - geom.earth_radius_m
        return params.alpha0_per_m * math.exp(-altitude / params.h0_m)

    return math.exp(-adaptive_simpson(gamma_along, 0.0, slant_range(geom)))
