"""Log-normal model of turbulence-induced relative intensity fluctuations.

The channel's intensity factor I is log-normal with unit mean: ln I is
Gaussian with variance sigma_j^2 and mean -sigma_j^2/2, so long-term average
power is untouched while short-term draws fluctuate. sigma_j^2 is the ISI or
the PSI depending on whether aperture averaging is applied; the weak-
turbulence identity sigma_chi^2 = sigma_j^2/4 is folded into this
parameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FadingModel:
    """Unit-mean log-normal intensity fluctuations with log-variance ``sigma_j2``."""

    sigma_j2: float

    def __post_init__(self) -> None:
        if self.sigma_j2 < 0:
            raise ValueError("sigma_j2 must be >= 0")


def pdf(model: FadingModel, intensity) -> np.ndarray | float:
    """Density of the relative intensity I at ``intensity`` (scalar or array).

    p(I) = exp(-(ln I + s2/2)^2 / (2 s2)) / (I sqrt(2 pi s2)). Undefined for
    s2 = 0, where the distribution degenerates to a point mass at 1.
    """
    s2 = model.sigma_j2
    if s2 == 0:
        raise ValueError("pdf undefined for sigma_j2 = 0 (point mass at I = 1)")
    arr = np.asarray(intensity, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("intensity must be > 0")
    out = np.exp(-((np.log(arr) + s2 / 2.0) ** 2) / (2.0 * s2)) / (arr * math.sqrt(2.0 * math.pi * s2))
    return out if out.ndim else float(out)


def sample(model: FadingModel, rng: np.random.Generator | int, n: int) -> np.ndarray:
    """Draw ``n`` intensity factors; deterministic for a fixed seed.

    Standard-normal variates are scaled and shifted so matched seeds with
    different sigma_j2 produce comonotone draws, the basis for comparing
    loss spread between the ISI and PSI channel modes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if model.sigma_j2 == 0:
        return np.ones(n)
    # In place, one buffer: exp(sigma * z - sigma_j2 / 2)
    z = gen.standard_normal(n)
    z *= math.sqrt(model.sigma_j2)
    z -= model.sigma_j2 / 2.0
    return np.exp(z, out=z)
