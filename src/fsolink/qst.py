"""Satellite-based qubit state tomography over the lossy optical channel.

A four-outcome SIC-POVM measures identically prepared photons; counts follow
independent Poisson statistics at the effective photon number that survives
the link. States are reconstructed by least squares in closed form: for the
tetrahedral SIC-POVM the fitted Bloch vector is r = 3 sum_k (m_k/n_eff) s_k,
projected radially onto the unit ball when it falls outside. Reconstructions
are compared to the input via the Uhlmann-Jozsa fidelity.
``fidelity_vs_zenith`` runs that experiment on every cell of a
``budget.ChannelGrid``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .budget import ChannelGrid, stream_states
from .fading import FadingModel, sample

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Bloch vectors of a regular tetrahedron; pairwise dot products are -1/3.
_TETRAHEDRON = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / math.sqrt(3.0)

# eta * photons stays an exact integer in a float below 2**53, and the Poisson
# means stay far below numpy's limit of about 9.2e18.
MAX_PHOTONS = 10**15
MAX_ENSEMBLE_SIZE = 10**6
# Members evaluated per batch: bounds the generator states and the
# (members, 2, 2) arrays held at once, whatever the ensemble size.
_MEMBER_BLOCK = 4096


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
    photons: int = 200_000
    transmittance: float = 1.0
    ensemble_size: int = 220
    seed: int = 0
    ensemble_kind: EnsembleKind = EnsembleKind.HAAR_PURE

    def __post_init__(self) -> None:
        if not 1 <= self.photons <= MAX_PHOTONS:
            raise ValueError(f"photons must lie in [1, {MAX_PHOTONS:.0e}]")
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError("transmittance must lie in [0, 1]")
        if not 1 <= self.ensemble_size <= MAX_ENSEMBLE_SIZE:
            raise ValueError(f"ensemble_size must lie in [1, {MAX_ENSEMBLE_SIZE:.0e}]")


@dataclass(frozen=True)
class TomographyResult:
    fidelities: np.ndarray
    mean_fidelity: float
    sd_fidelity: float
    failures: int


@dataclass(frozen=True)
class Reconstruction:
    """Fitted states, shape (..., 2, 2), and which fits saw no counts, shape (...)."""

    rho: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class FidelityTable:
    """Ensemble fidelity statistics per (diameter, zenith) cell of a ChannelGrid; arrays are (nD, nZ)."""

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
    if n_photons > MAX_PHOTONS:
        raise ValueError(f"n_photons must be <= {MAX_PHOTONS:.0e}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n_eff = round_half_away(eta * n_photons)
    # One scalar draw per effect: the same draws as one call on the vector of
    # means, without its per-call array checks.
    return np.array(
        [gen.poisson(round_half_away(n_eff * p)) for p in born_probabilities(rho_in, povm).tolist()],
        dtype=np.int64,
    )


def fit_state(counts, n_eff) -> Reconstruction:
    """Least-squares state fits to tetrahedral SIC-POVM counts, in closed form.

    ``counts`` has shape (..., 4) and ``n_eff`` broadcasts over (...). With
    p_k(r) = (1 + s_k . r) / 4, sum_k s_k = 0 and sum_k s_k s_k^T = (4/3) I,
    the cost sum_k (p_k(r) - m_k/n_eff)^2 is isotropic in the Bloch vector r.
    The best physical state therefore has r = 3 sum_k (m_k/n_eff) s_k, scaled
    back onto the unit sphere when |r| > 1 (Rehacek, Englert & Kaszlikowski,
    PRA 70, 052321, 2004).

    All-zero counts carry no information: they give r = 0, the maximally
    mixed state, with ``degenerate`` set.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_eff = np.asarray(n_eff)
    if counts.shape[-1:] != (len(_TETRAHEDRON),):
        raise ValueError("counts must have one entry per SIC-POVM effect (four)")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if np.any(n_eff < 1):
        raise ValueError("n_eff must be >= 1")
    target = counts / n_eff[..., None]
    r = ((3.0 * target)[..., None, :] @ _TETRAHEDRON)[..., 0, :]
    r /= np.maximum(np.sqrt((r[..., None, :] @ r[..., :, None])[..., 0, 0]), 1.0)[..., None]
    x, y, z = np.moveaxis(r, -1, 0)
    rho = np.moveaxis(0.5 * np.array([[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]]), (0, 1), (-2, -1))
    return Reconstruction(rho=rho, degenerate=~counts.any(axis=-1))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Uhlmann-Jozsa fidelity between qubit states of shape (..., 2, 2).

    Uses the closed form tr(rho sigma) + 2 sqrt(det rho det sigma), which
    equals (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in dimension two. A pair of
    single states gives a float, stacks give an array over (...).
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape[-2:] != (2, 2) or sigma.shape[-2:] != (2, 2):
        raise ValueError("fidelity is implemented for single-qubit states")
    overlap = np.trace(rho @ sigma, axis1=-2, axis2=-1).real
    det_term = np.maximum(np.linalg.det(rho).real, 0.0) * np.maximum(np.linalg.det(sigma).real, 0.0)
    value = np.minimum(np.maximum(overlap + 2.0 * np.sqrt(det_term), 0.0), 1.0)
    return float(value) if value.ndim == 0 else value


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


def _member_fidelities(
    config: TomographyConfig, key: tuple[int, ...], eta: float, fading: FadingModel | None
) -> tuple[np.ndarray, int]:
    """Fidelity of every ensemble member (seed, *key, i), and how many failed.

    Member i is one scalar trial on its own stream: its fade (when ``fading``
    is given), its state, and its counts from ``simulate_counts`` at ``eta``
    times its fade, capped at 1. ``fit_state`` and ``fidelity`` then run once
    on each block's (members, ...) stacks. A member fails when it detects
    nothing, including when eta * photons rounds to zero.
    """
    fids = np.empty(config.ensemble_size)
    failures = 0
    # One generator, set to each member's stream in turn.
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    for start in range(0, config.ensemble_size, _MEMBER_BLOCK):
        stop = min(start + _MEMBER_BLOCK, config.ensemble_size)
        n_eff = np.empty(stop - start, dtype=np.int64)
        rho_in = np.empty((stop - start, 2, 2), dtype=complex)
        counts = np.empty((stop - start, len(_SIC_POVM)), dtype=np.int64)
        for j, state in enumerate(stream_states(config.seed, key, start, stop)):
            bit_generator.state = state
            fade = sample(fading, rng, 1)[0] if fading is not None else 1.0
            member_eta = min(eta * fade, 1.0)
            n_eff[j] = round_half_away(member_eta * config.photons)
            rho_in[j] = _draw_state(config.ensemble_kind, rng)
            counts[j] = simulate_counts(rho_in[j], _SIC_POVM, config.photons, member_eta, rng)
        # n_eff = 0 comes with zero counts, whose fit is degenerate whatever n_eff.
        fit = fit_state(counts, np.maximum(n_eff, 1))
        fids[start:stop] = fidelity(rho_in, fit.rho)
        failures += int(np.count_nonzero(fit.degenerate))
    return fids, failures


def run_ensemble(config: TomographyConfig) -> TomographyResult:
    """Tomography over an ensemble of random input states at fixed transmittance.

    Every member draws its own state and counts from a sub-seed of
    (seed, member index), so results do not depend on scheduling.
    """
    fidelities, failures = _member_fidelities(config, (), config.transmittance, None)
    return TomographyResult(
        fidelities=fidelities,
        mean_fidelity=float(fidelities.mean()),
        sd_fidelity=float(fidelities.std(ddof=1)) if config.ensemble_size > 1 else 0.0,
        failures=failures,
    )


def fidelity_vs_zenith(
    grid: ChannelGrid,
    config: TomographyConfig,
    *,
    resample: FadingResample = FadingResample.PER_TRIAL,
) -> FidelityTable:
    """Ensemble fidelity statistics of every cell of a channel grid.

    The channel transmittance at each cell combines the deterministic factors
    with a log-normal fade; by default each tomography trial sees a fresh
    fade, alternatively one draw is shared per grid point. Every cell sends
    ``config.photons`` photons per trial.
    """
    # eta_det before sigma_j2, so a failing transmittance is reported before
    # a failing profile integral.
    eta_det = grid.eta_det
    mean = np.empty(grid.shape)
    sd = np.zeros(grid.shape)
    failures = np.zeros(grid.shape, dtype=np.int64)
    # A per-point fade comes from the cell's stream (seed, di, zi), as in sweep_pass.
    point_rng = np.random.default_rng(0)
    for (di, zi), sigma_j2 in np.ndenumerate(grid.sigma_j2):
        fading = FadingModel(float(sigma_j2)) if sigma_j2 > 0 else None
        eta = float(eta_det[di, zi])
        if fading is not None and resample is FadingResample.PER_POINT:
            point_rng.bit_generator.state = stream_states(config.seed, (di,), zi, zi + 1)[0]
            eta *= float(sample(fading, point_rng, 1)[0])
            fading = None
        fids, failures[di, zi] = _member_fidelities(config, (di, zi), eta, fading)
        mean[di, zi] = fids.mean()
        if config.ensemble_size > 1:
            sd[di, zi] = fids.std(ddof=1)
    return FidelityTable(mean_fidelity=mean, sd_fidelity=sd, failures=failures)
