"""Spherical-Earth slant-path geometry and satellite pass timing.

The model is a circular, zenithal pass over a non-rotating spherical Earth:
good to a few percent at LEO, which is all the downstream loss sweeps need.
Angles are radians everywhere inside the library; degrees appear only at the
CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_M = 6_371_000.0
EARTH_MU_M3_S2 = 3.986_004_418e14


@dataclass(frozen=True)
class LinkGeometry:
    """Satellite-to-ground line-of-sight for one instant of a pass.

    ``satellite_altitude_m`` and ``ogs_altitude_m`` are heights above sea
    level; ``zenith_angle_rad`` is measured at the ground station, 0 when the
    satellite is overhead.
    """

    satellite_altitude_m: float
    zenith_angle_rad: float = 0.0
    ogs_altitude_m: float = 0.0
    earth_radius_m: float = EARTH_RADIUS_M

    def __post_init__(self) -> None:
        # Each check is written so that NaN and +-inf fail it.
        if not 0 <= self.ogs_altitude_m < self.satellite_altitude_m < math.inf:
            raise ValueError(
                "ogs_altitude_m must be >= 0 and satellite_altitude_m must exceed ogs_altitude_m and finite"
            )
        if not abs(self.zenith_angle_rad) < math.pi / 2:
            raise ValueError("|zenith_angle_rad| must be < pi/2")
        if not 0 < self.earth_radius_m < math.inf:
            raise ValueError("earth_radius_m must be > 0 and finite")


@dataclass(frozen=True)
class PassTimes:
    """Visibility duration of one zenithal pass.

    ``total_s`` covers horizon to horizon; ``effective_s`` restricts the pass
    to |zenith| <= ``zenith_limit_rad``.
    """

    total_s: float
    effective_s: float
    zenith_limit_rad: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.effective_s <= self.total_s:
            raise ValueError("require 0 <= effective_s <= total_s")


def slant_range(geom: LinkGeometry) -> float:
    """Line-of-sight distance in meters from the ground station to the satellite.

    The ray is launched from the shell at radius ``earth_radius + ogs_altitude``
    so that the range at zenith equals the altitude difference exactly.
    """
    r = geom.earth_radius_m + geom.ogs_altitude_m
    h = geom.satellite_altitude_m - geom.ogs_altitude_m
    sin_z = math.sin(geom.zenith_angle_rad)
    return math.sqrt((r + h) ** 2 - (r * sin_z) ** 2) - r * math.cos(geom.zenith_angle_rad)


def ground_half_angle(zenith_rad: float, altitude_m: float, earth_radius_m: float = EARTH_RADIUS_M) -> float:
    """Earth-central angle between the station and the sub-satellite point.

    For a station looking at zenith angle ``zenith_rad`` toward a satellite at
    ``altitude_m``, the geocentric separation is zeta - arcsin(R sin zeta / (R+H)).
    """
    if not 0.0 <= zenith_rad <= math.pi / 2:
        raise ValueError("zenith_rad must lie in [0, pi/2]")
    if not 0 < altitude_m < math.inf:
        raise ValueError("altitude_m must be > 0 and finite")
    if not 0 < earth_radius_m < math.inf:
        raise ValueError("earth_radius_m must be > 0 and finite")
    r = earth_radius_m
    return zenith_rad - math.asin(r * math.sin(zenith_rad) / (r + altitude_m))


def pass_times(
    altitude_m: float,
    zenith_limit_rad: float = math.radians(80.0),
    earth_radius_m: float = EARTH_RADIUS_M,
    mu_m3_s2: float = EARTH_MU_M3_S2,
) -> PassTimes:
    """Total and effective visibility time for a circular zenithal pass.

    The satellite sweeps the geocentric angle at the constant circular-orbit
    rate sqrt(mu/(R+H)^3); timing follows from the ground half-angle at the
    horizon (total) and at ``zenith_limit_rad`` (effective).
    """
    if not 0 < altitude_m < math.inf:
        raise ValueError("altitude_m must be > 0 and finite")
    if not 0.0 < zenith_limit_rad < math.pi / 2:
        raise ValueError("zenith_limit_rad must lie in (0, pi/2)")
    if not 0 < earth_radius_m < math.inf:
        raise ValueError("earth_radius_m must be > 0 and finite")
    if not 0 < mu_m3_s2 < math.inf:
        raise ValueError("mu_m3_s2 must be > 0 and finite")
    omega = math.sqrt(mu_m3_s2 / (earth_radius_m + altitude_m) ** 3)
    if not omega > 0:
        raise ValueError("the orbital rate sqrt(mu / (R + H)^3) underflows to 0: mu is too small for this orbit")
    total = 2.0 * ground_half_angle(math.pi / 2, altitude_m, earth_radius_m) / omega
    effective = 2.0 * ground_half_angle(zenith_limit_rad, altitude_m, earth_radius_m) / omega
    return PassTimes(total_s=total, effective_s=effective, zenith_limit_rad=zenith_limit_rad)
