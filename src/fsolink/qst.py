"""Satellite-based qubit state tomography over the lossy optical channel.

A four-outcome SIC-POVM measures identically prepared photons; counts follow
independent Poisson statistics at the effective photon number that survives
the link. States are reconstructed by least squares in closed form: for the
tetrahedral SIC-POVM the fitted Bloch vector is r = 3 sum_k (m_k/n_eff) s_k,
projected radially onto the unit ball when it falls outside. Reconstructions
are compared to the input via the Uhlmann-Jozsa fidelity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .budget import ChannelParams, channel_grid
from .fading import FadingModel, sample
from .geometry import EARTH_RADIUS_M

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Bloch vectors of a regular tetrahedron; pairwise dot products are -1/3.
_TETRAHEDRON = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / math.sqrt(3.0)


class EnsembleKind(enum.Enum):
    HAAR_PURE = "haar_pure"
    BURES_MIXED = "bures_mixed"


class FadingResample(enum.Enum):
    """Whether the intensity factor is redrawn per tomography trial or held
    fixed per zenith grid point."""

    PER_TRIAL = "per_trial"
    PER_POINT = "per_point"


@dataclass(frozen=True)
class TomographyConfig:
    photons: int = 1_000_000
    transmittance: float = 1.0
    ensemble_size: int = 220
    seed: int = 0
    ensemble_kind: EnsembleKind = EnsembleKind.HAAR_PURE

    def __post_init__(self) -> None:
        if self.photons < 1:
            raise ValueError("photons must be >= 1")
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError("transmittance must lie in [0, 1]")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")


@dataclass(frozen=True)
class TomographyResult:
    fidelities: np.ndarray
    mean_fidelity: float
    sd_fidelity: float
    failures: int


@dataclass(frozen=True)
class Reconstruction:
    rho: np.ndarray
    cost: float
    degenerate: bool


@dataclass(frozen=True)
class FidelityTable:
    """Ensemble fidelity statistics per (diameter, zenith) cell."""

    zenith_deg: np.ndarray
    diameters_m: np.ndarray
    photons: int
    mean_fidelity: np.ndarray
    sd_fidelity: np.ndarray
    failures: np.ndarray


def round_half_away(x: float) -> int:
    """Nearest integer, ties away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def sic_povm_qubit() -> np.ndarray:
    """The four-element qubit SIC-POVM, shape (4, 2, 2).

    M_k = (I + s_k . sigma) / 4 with the tetrahedron Bloch vectors s_k; the
    effects sum to the identity and have pairwise overlaps tr(M_j M_k) = 1/12.
    """
    effects = np.empty((4, 2, 2), dtype=complex)
    for k, s in enumerate(_TETRAHEDRON):
        effects[k] = 0.25 * (np.eye(2) + s[0] * _PAULI_X + s[1] * _PAULI_Y + s[2] * _PAULI_Z)
    return effects


_SIC_POVM = sic_povm_qubit()


def born_probabilities(rho: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """Outcome probabilities tr(M_k rho) for every effect."""
    return np.einsum("kij,ji->k", povm, rho).real


def cholesky_to_rho(t) -> np.ndarray:
    """Density matrix T^dagger T / tr(T^dagger T) from four real parameters.

    T is lower triangular with diagonal (t1, t2) and off-diagonal t3 + i t4;
    any non-degenerate parameter vector maps to a valid state.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (4,):
        raise ValueError("t must have exactly four entries")
    norm2 = float(np.dot(t, t))
    if norm2 < 1e-30:
        raise ValueError("parameter vector is degenerate (norm below 1e-15)")
    tmat = np.array([[t[0], 0.0], [t[2] + 1.0j * t[3], t[1]]], dtype=complex)
    rho = tmat.conj().T @ tmat
    return rho / np.trace(rho).real


def expected_counts(rho: np.ndarray, povm: np.ndarray, n_photons: int) -> np.ndarray:
    """Noise-free counts: the Born-rule means rounded to integers."""
    if n_photons < 0:
        raise ValueError("n_photons must be >= 0")
    probs = born_probabilities(rho, povm)
    return np.array([round_half_away(n_photons * p) for p in probs], dtype=np.int64)


def simulate_counts(
    rho_in: np.ndarray,
    povm: np.ndarray,
    n_photons: int,
    eta: float,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Poisson-fluctuated counts at the effective photon number eta * N."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n_eff = round_half_away(eta * n_photons)
    means = np.array(
        [round_half_away(n_eff * p) for p in born_probabilities(rho_in, povm)], dtype=float
    )
    return gen.poisson(means)


def fit_state(counts, n_eff: int) -> Reconstruction:
    """Least-squares state fit to tetrahedral SIC-POVM counts, in closed form.

    With p_k(r) = (1 + s_k . r) / 4, sum_k s_k = 0 and sum_k s_k s_k^T =
    (4/3) I, the cost sum_k (p_k(r) - m_k/n_eff)^2 is isotropic in the Bloch
    vector r. The best physical state therefore has r = 3 sum_k (m_k/n_eff) s_k,
    scaled back onto the unit sphere when |r| > 1 (Rehacek, Englert &
    Kaszlikowski, PRA 70, 052321, 2004). ``cost`` is that sum times n_eff^2,
    i.e. on the counts scale.

    All-zero counts carry no information, so the maximally mixed state is
    returned with ``degenerate`` set.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (len(_TETRAHEDRON),):
        raise ValueError("counts must have one entry per SIC-POVM effect (four)")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if n_eff < 1:
        raise ValueError("n_eff must be >= 1")
    if not np.any(counts):
        return Reconstruction(rho=np.eye(2, dtype=complex) / 2.0, cost=float("nan"), degenerate=True)

    target = counts / n_eff
    r = 3.0 * target @ _TETRAHEDRON
    norm = float(np.linalg.norm(r))
    if norm > 1.0:
        r /= norm
    mismatch = (1.0 + _TETRAHEDRON @ r) / 4.0 - target
    x, y, z = r
    rho = 0.5 * np.array([[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]])
    return Reconstruction(rho=rho, cost=float(mismatch @ mismatch) * n_eff**2, degenerate=False)


def reconstruct(counts, n_eff: int) -> np.ndarray:
    """Density matrix minimizing the least-squares count mismatch."""
    return fit_state(counts, n_eff).rho


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann-Jozsa fidelity between two qubit states.

    Uses the closed form tr(rho sigma) + 2 sqrt(det rho det sigma), which
    equals (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in dimension two.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != (2, 2) or sigma.shape != (2, 2):
        raise ValueError("fidelity is implemented for single-qubit states")
    overlap = np.trace(rho @ sigma).real
    det_term = max(np.linalg.det(rho).real, 0.0) * max(np.linalg.det(sigma).real, 0.0)
    value = overlap + 2.0 * math.sqrt(det_term)
    return min(max(value, 0.0), 1.0)


def haar_random_pure(rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure qubit state as a density matrix."""
    v = rng.normal(size=2) + 1.0j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def bures_random_mixed(rng: np.random.Generator) -> np.ndarray:
    """Bures-distributed mixed qubit state."""
    g = (rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2)))
    u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    a = (np.eye(2) + u) @ g
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _draw_state(kind: EnsembleKind, rng: np.random.Generator) -> np.ndarray:
    if kind is EnsembleKind.HAAR_PURE:
        return haar_random_pure(rng)
    return bures_random_mixed(rng)


def _member_rng(seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(index)))


def _run_trial(rho_in: np.ndarray, photons: int, eta: float, rng: np.random.Generator) -> tuple[float, bool]:
    """One tomography trial; returns (fidelity, no-photons-or-degenerate flag)."""
    n_eff = round_half_away(eta * photons)
    if n_eff < 1:
        return fidelity(rho_in, np.eye(2, dtype=complex) / 2.0), True
    fit = fit_state(simulate_counts(rho_in, _SIC_POVM, photons, eta, rng), n_eff)
    return fidelity(rho_in, fit.rho), fit.degenerate


def run_ensemble(config: TomographyConfig) -> TomographyResult:
    """Tomography over an ensemble of random input states at fixed transmittance.

    Every member draws its own state and counts from a sub-seed of
    (seed, member index), so results do not depend on scheduling.
    """
    fidelities = np.empty(config.ensemble_size)
    failures = 0
    for i in range(config.ensemble_size):
        rng = _member_rng(config.seed, i)
        rho_in = _draw_state(config.ensemble_kind, rng)
        f, failed = _run_trial(rho_in, config.photons, config.transmittance, rng)
        fidelities[i] = f
        failures += int(failed)
    return TomographyResult(
        fidelities=fidelities,
        mean_fidelity=float(fidelities.mean()),
        sd_fidelity=float(fidelities.std(ddof=1)) if config.ensemble_size > 1 else 0.0,
        failures=failures,
    )


def fidelity_vs_zenith(
    channel: ChannelParams,
    altitude_m: float,
    diameters_m,
    zenith_grid_rad,
    photons: int,
    config: TomographyConfig,
    *,
    resample: FadingResample = FadingResample.PER_TRIAL,
    earth_radius_m: float = EARTH_RADIUS_M,
) -> FidelityTable:
    """Ensemble fidelity statistics across a (diameter, zenith) grid.

    The channel transmittance at each cell combines the deterministic factors
    with a log-normal fade; by default each tomography trial sees a fresh
    fade, alternatively one draw is shared per grid point.
    """
    grid = channel_grid(channel, altitude_m, diameters_m, zenith_grid_rad, earth_radius_m=earth_radius_m)
    fids = np.empty(grid.eta_det.shape + (config.ensemble_size,))
    failures = np.zeros(grid.eta_det.shape, dtype=np.int64)
    for (di, zi), sigma_j2 in np.ndenumerate(grid.sigma_j2):
        fading = FadingModel(float(sigma_j2)) if sigma_j2 > 0 else None
        point_fade = 1.0
        if fading is not None and resample is FadingResample.PER_POINT:
            point_fade = float(sample(fading, _member_rng(config.seed, di, zi), 1)[0])
        for i in range(config.ensemble_size):
            rng = _member_rng(config.seed, di, zi, i)
            fade = point_fade
            if fading is not None and resample is FadingResample.PER_TRIAL:
                fade = float(sample(fading, rng, 1)[0])
            eta = min(float(grid.eta_det[di, zi]) * fade, 1.0)
            rho_in = _draw_state(config.ensemble_kind, rng)
            fids[di, zi, i], failed = _run_trial(rho_in, photons, eta, rng)
            failures[di, zi] += failed

    return FidelityTable(
        zenith_deg=np.degrees(grid.zenith_rad),
        diameters_m=grid.diameters_m,
        photons=photons,
        mean_fidelity=fids.mean(axis=-1),
        sd_fidelity=fids.std(axis=-1, ddof=1) if config.ensemble_size > 1 else np.zeros(failures.shape),
        failures=failures,
    )
