"""Optical turbulence: Hufnagel-Valley profile, scintillation indices, and
aperture averaging.

The altitude profile Cn^2(h) feeds a downlink Rytov integral; an empirical
strong-fluctuation formula maps the Rytov index to the intensity
scintillation index (ISI), and one of three aperture-averaging factors
(Andrews, Giggenbach, or Yura) reduces the ISI to the power scintillation
index (PSI) seen by a finite receiver.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._bounds import check_fields
from .quadrature import adaptive_simpson

# Altitude above which Cn^2 is negligible (< 1e-20 m^-2/3 for any sane profile);
# profile integrals are truncated here.
TURBULENCE_TOP_M = 100_000.0


@dataclass(frozen=True)
class TurbulenceProfile:
    """Hufnagel-Valley profile parameters.

    ``c0`` is the ground-level refractive-index structure constant,
    ``v_rms`` the RMS wind speed along the path, and ``h_ogs_m`` the station
    altitude above sea level (the profile's ground-term reference).
    """

    c0: float = field(default=1.7e-14, metadata={"gt": 0.0})
    v_rms: float = field(default=26.25, metadata={"gt": 0.0})
    h_ogs_m: float = field(default=65.0, metadata={"ge": 0.0})

    __post_init__ = check_fields


class ScintillationVariant(enum.Enum):
    """Outer exponent of the second term in the strong-fluctuation formula.

    SEVEN_SIXTHS uses 7/6 on both terms; FIVE_SIXTHS uses 5/6 on the second,
    which makes the index saturate near 1 for very strong turbulence.
    """

    SEVEN_SIXTHS = "7/6"
    FIVE_SIXTHS = "5/6"


class ApertureModelKind(enum.Enum):
    ANDREWS = "andrews"
    GIGGENBACH = "giggenbach"
    YURA = "yura"


@dataclass(frozen=True)
class ApertureModel:
    """Aperture-averaging model selection plus the Giggenbach layer geometry.

    ``tropopause_m`` is the height of the dominant turbulent layer and
    ``theta_max_deg`` the elevation of peak turbulence structure size; both
    only matter for the Giggenbach form.
    """

    kind: ApertureModelKind = ApertureModelKind.ANDREWS
    tropopause_m: float = field(default=12_000.0, metadata={"gt": 0.0})
    theta_max_deg: float = field(default=10.0, metadata={"gt": 0.0, "lt": 90.0})

    __post_init__ = check_fields


def cn2(profile: TurbulenceProfile, h_m: float) -> float:
    """Hufnagel-Valley structure constant Cn^2 at altitude ``h_m`` (m^-2/3).

    Three summands: high-altitude wind-driven term, mid-altitude background,
    and the ground layer referenced to the station altitude.
    """
    if not h_m >= profile.h_ogs_m:
        raise ValueError("h_m must be >= the station altitude")
    wind = 8.148e-56 * profile.v_rms**2 * h_m**10 * math.exp(-h_m / 1000.0)
    background = 2.7e-16 * math.exp(-h_m / 1500.0)
    ground = profile.c0 * math.exp(-profile.h_ogs_m / 700.0) * math.exp((profile.h_ogs_m - h_m) / 100.0)
    return wind + background + ground


def _wavenumber_7_6(wavelength_m: float) -> float:
    """k^(7/6) for the wavenumber k = 2 pi / wavelength_m, a factor of both Rytov indices."""
    try:
        k_7_6 = (2.0 * math.pi / wavelength_m) ** (7.0 / 6.0)
    except OverflowError:
        k_7_6 = math.inf
    if k_7_6 == math.inf:
        raise ValueError(f"wavelength_m = {wavelength_m:g} m overflows the Rytov index's k**(7/6), k = 2 pi / wavelength_m")
    return k_7_6


def rytov_horizontal(cn2_const: float, wavelength_m: float, path_m: float) -> float:
    """Plane-wave Rytov variance 1.23 Cn^2 k^(7/6) L^(11/6) for a uniform path."""
    if not cn2_const >= 0:
        raise ValueError("cn2_const must be >= 0")
    if not (wavelength_m > 0 and path_m > 0):
        raise ValueError("wavelength_m and path_m must be > 0")
    return 1.23 * cn2_const * _wavenumber_7_6(wavelength_m) * path_m ** (11.0 / 6.0)


# A grid asks for the same one or two moments at every zenith angle and every
# cell; the profile is frozen and the result a float, so a small cache makes
# that one quadrature per distinct moment.
@lru_cache(maxsize=32)
def _profile_moment(profile: TurbulenceProfile, top_m: float, exponent: float) -> float:
    """integral of Cn^2(z) * (z - h_ogs)^exponent over [h_ogs, min(top, cutoff)].

    The moment is 0 for a station at or above the cutoff.
    """
    h0 = profile.h_ogs_m
    upper = max(h0, min(top_m, TURBULENCE_TOP_M))

    def integrand(z: float) -> float:
        u = z - h0
        if u <= 0.0:
            return 0.0
        return cn2(profile, z) * u**exponent

    try:
        return adaptive_simpson(integrand, h0, upper)
    except OverflowError as exc:  # cn2's v_rms**2 is the one operation here that can overflow
        raise ValueError(f"v_rms = {profile.v_rms:g} m/s overflows the Cn^2 wind term (v_rms**2)") from exc


def rytov_downlink(
    profile: TurbulenceProfile,
    wavelength_m: float,
    altitude_m: float,
    zenith_rad: float,
) -> float:
    """Downlink Rytov index for a plane wave through the altitude profile.

    2.25 k^(7/6) sec(zeta)^(11/6) * integral of Cn^2(z) (z - h_ogs)^(5/6) dz
    from the station altitude up to the satellite. The integrand dies off
    above ~40 km, so the integral is truncated at ``TURBULENCE_TOP_M``.
    """
    # Each check is written so that NaN fails it.
    if not abs(zenith_rad) < math.pi / 2:
        raise ValueError("|zenith_rad| must be < pi/2")
    if not wavelength_m > 0:
        raise ValueError("wavelength_m must be > 0")
    if not altitude_m > profile.h_ogs_m:
        raise ValueError("altitude_m must exceed the station altitude")
    k_7_6 = _wavenumber_7_6(wavelength_m)
    moment = _profile_moment(profile, altitude_m, 5.0 / 6.0)
    sec_z = 1.0 / math.cos(zenith_rad)
    return 2.25 * k_7_6 * sec_z ** (11.0 / 6.0) * moment


def scintillation_index(
    sigma_R2: float,
    variant: ScintillationVariant = ScintillationVariant.SEVEN_SIXTHS,
) -> float:
    """Intensity scintillation index sigma_I^2 from the Rytov index.

    Empirical formula valid beyond the weak-fluctuation limit:
    sigma_I^2 = exp[0.49 s / (1 + 1.11 s^(6/5))^(7/6)
                  + 0.51 s / (1 + 0.69 s^(6/5))^e2] - 1,  s = sigma_R^2,
    with e2 = 7/6 or 5/6 per ``variant``. Reduces to sigma_I^2 ~ sigma_R^2
    for small s.
    """
    if not 0 <= sigma_R2 < math.inf:
        raise ValueError("sigma_R2 must be >= 0 and finite")
    s = sigma_R2
    e2 = 7.0 / 6.0 if variant is ScintillationVariant.SEVEN_SIXTHS else 5.0 / 6.0
    try:
        first = 0.49 * s / (1.0 + 1.11 * s ** (6.0 / 5.0)) ** (7.0 / 6.0)
        second = 0.51 * s / (1.0 + 0.69 * s ** (6.0 / 5.0)) ** e2
    except OverflowError as exc:  # from about sigma_R2 = 1e222 in both variants
        raise ValueError(f"sigma_R2 = {s:g} overflows the scintillation index formula") from exc
    return math.expm1(first + second)


def av_andrews(diameter_m: float, wavelength_m: float, path_m: float) -> float:
    """Andrews aperture-averaging factor with the Fresnel-zone structure size.

    [1 + 1.062 k D^2 / (4 L)]^(-7/6), L being the total propagation distance.
    """
    if not diameter_m > 0:
        raise ValueError("diameter_m must be > 0")
    if not path_m > 0:
        raise ValueError("path_m must be > 0")
    if not wavelength_m > 0:
        raise ValueError("wavelength_m must be > 0")
    k = 2.0 * math.pi / wavelength_m
    return (1.0 + 1.062 * k * diameter_m**2 / (4.0 * path_m)) ** (-7.0 / 6.0)


def giggenbach_layer_distance(elevation_deg: float, model: ApertureModel) -> float:
    """Effective distance to the dominant turbulent layer, elevation in degrees.

    L' = H_d (theta/90) / ((theta/90)^2 + (theta_max/90)^2); approaches the
    tropopause height near zenith and grows toward low elevations until the
    theta_max knee takes over.
    """
    if not elevation_deg > 0:
        raise ValueError("elevation_deg must be > 0")
    t = elevation_deg / 90.0
    t_max = model.theta_max_deg / 90.0
    return model.tropopause_m * t / (t * t + t_max * t_max)


def av_giggenbach(diameter_m: float, wavelength_m: float, layer_m: float) -> float:
    """Giggenbach aperture-averaging factor [1 + 1.062 k D^2 / (9 L')]^(-7/6), L' from ``giggenbach_layer_distance``."""
    if not diameter_m > 0:
        raise ValueError("diameter_m must be > 0")
    if not layer_m > 0:
        raise ValueError("layer_m must be > 0")
    if not wavelength_m > 0:
        raise ValueError("wavelength_m must be > 0")
    k = 2.0 * math.pi / wavelength_m
    return (1.0 + 1.062 * k * diameter_m**2 / (9.0 * layer_m)) ** (-7.0 / 6.0)


def turbulence_scale_height(profile: TurbulenceProfile, altitude_m: float) -> float:
    """Yura's turbulence scale height h_s (m).

    Quotient of the second and 5/6-th profile moments, raised to 6/7; the
    reference height of both moments is the station altitude. A station at
    or above ``TURBULENCE_TOP_M`` has no profile weight above it, so h_s is
    undefined there.
    """
    if not altitude_m > profile.h_ogs_m:
        raise ValueError("altitude_m must exceed the station altitude")
    num = _profile_moment(profile, altitude_m, 2.0)
    den = _profile_moment(profile, altitude_m, 5.0 / 6.0)
    if den == 0.0:
        raise ValueError(
            f"the Cn^2 profile has no weight above the station at {profile.h_ogs_m!r} m "
            f"(profiles end at {TURBULENCE_TOP_M!r} m), so Yura's scale height is undefined"
        )
    return (num / den) ** (6.0 / 7.0)


def av_yura(diameter_m: float, wavelength_m: float, scale_height_m: float, zenith_rad: float) -> float:
    """Yura aperture-averaging factor [1 + 1.1 (D^2/(lambda h_s sec z))^(7/6)]^(-1).

    ``scale_height_m`` is h_s from :func:`turbulence_scale_height`, which
    depends on the profile and the satellite altitude but not on D or z.
    """
    if not diameter_m > 0:
        raise ValueError("diameter_m must be > 0")
    if not abs(zenith_rad) < math.pi / 2:
        raise ValueError("|zenith_rad| must be < pi/2")
    if not wavelength_m > 0:
        raise ValueError("wavelength_m must be > 0")
    if not scale_height_m > 0:
        raise ValueError("scale_height_m must be > 0")
    sec_z = 1.0 / math.cos(zenith_rad)
    x = diameter_m**2 / (wavelength_m * scale_height_m * sec_z)
    return 1.0 / (1.0 + 1.1 * x ** (7.0 / 6.0))


def psi(sigma_I2, av):
    """Power scintillation index: the ISI scaled down by the averaging factor.

    Takes floats or arrays that broadcast against each other. Every
    ``sigma_I2`` must be >= 0 and every ``av`` lie in (0, 1]; a NaN
    ``sigma_I2`` passes and a NaN ``av`` does not.
    """
    if np.any(sigma_I2 < 0):
        raise ValueError("sigma_I2 must be >= 0")
    if not (np.all(0.0 < av) and np.all(av <= 1.0)):
        raise ValueError("av must lie in (0, 1]")
    return av * sigma_I2
