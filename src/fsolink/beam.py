"""Diffraction-limited Gaussian beam propagation and aperture collection.

Paraxial TEM00 beam, perfectly pointed at the center of a circular receiver.
The collected fraction is the encircled energy of the Gaussian spot over the
aperture disc; pointing jitter and beam wander are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._bounds import check_fields


@dataclass(frozen=True)
class BeamParams:
    """Transmit beam. ``waist_m`` is the 1/e^2 radius."""

    wavelength_m: float = field(default=1550e-9, metadata={"gt": 0.0})
    waist_m: float = field(default=0.01, metadata={"gt": 0.0})

    __post_init__ = check_fields

    @property
    def rayleigh_range_m(self) -> float:
        return math.pi * self.waist_m**2 / self.wavelength_m


def spot_size(params: BeamParams, z_m: float) -> float:
    """1/e^2 beam radius after propagating ``z_m`` from the waist."""
    if not z_m >= 0:
        raise ValueError("z_m must be >= 0")
    return params.waist_m * math.sqrt(1.0 + (z_m / params.rayleigh_range_m) ** 2)


def encircled_energy(radius_m: float, spot_m: float) -> float:
    """Power of a centered Gaussian spot of 1/e^2 radius w inside a disc of radius a: 1 - exp(-2 a^2 / w^2)."""
    if not radius_m >= 0:
        raise ValueError("radius_m must be >= 0")
    if not spot_m > 0:
        raise ValueError("spot_m must be > 0")
    return 1.0 - math.exp(-2.0 * radius_m**2 / spot_m**2)

