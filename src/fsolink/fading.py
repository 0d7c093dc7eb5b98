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

import numpy as np


def pdf(sigma_j2: float, intensity) -> np.ndarray | float:
    """Density of the relative intensity I at ``intensity`` (scalar or array).

    p(I) = exp(-(ln I + s2/2)^2 / (2 s2)) / (I sqrt(2 pi s2)) with s2 the
    log-variance ``sigma_j2``. Undefined for s2 = 0, where the distribution
    degenerates to a point mass at 1.
    """
    s2 = sigma_j2
    if not 0 < s2 < math.inf:
        raise ValueError("pdf needs sigma_j2 > 0 and finite (at sigma_j2 = 0, I = 1 is a point mass)")
    arr = np.asarray(intensity, dtype=float)
    if not np.all(arr > 0):
        raise ValueError("intensity must be > 0")
    out = np.exp(-((np.log(arr) + s2 / 2.0) ** 2) / (2.0 * s2)) / (arr * math.sqrt(2.0 * math.pi * s2))
    return out if out.ndim else float(out)


def sample(sigma_j2: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` intensity factors of log-variance ``sigma_j2`` from the caller's generator ``rng``.

    Standard-normal variates are scaled and shifted, so matched seeds with
    different sigma_j2 produce comonotone draws. The tomography sweep takes
    its per-trial and per-point fades from here; the loss sweep
    (``budget.sweep_pass``) maps the standard normals to dB loss itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= sigma_j2 < math.inf:
        raise ValueError("sigma_j2 must be >= 0 and finite")
    if not isinstance(rng, np.random.Generator):
        raise TypeError("rng must be a numpy.random.Generator")
    if sigma_j2 == 0:
        return np.ones(n)
    # In place, one buffer: exp(sigma * z - sigma_j2 / 2)
    z = rng.standard_normal(n)
    z *= math.sqrt(sigma_j2)
    z -= sigma_j2 / 2.0
    return np.exp(z, out=z)
