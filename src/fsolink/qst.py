"""Satellite-based qubit state tomography over the lossy optical channel.

A four-outcome SIC-POVM measures identically prepared photons; counts follow
independent Poisson statistics at the effective photon number that survives
the link. States are Bloch vectors, shape (..., 3), in real arithmetic. They
are reconstructed by least squares in closed form and compared to the input
via the Uhlmann-Jozsa fidelity. ``fidelity_vs_zenith`` runs that experiment
on every cell of a ``budget.ChannelGrid``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ._bounds import check_fields
from .budget import ChannelGrid, stream_states
from .fading import sample

# Bloch vectors of a regular tetrahedron; pairwise dot products are -1/3.
_TETRAHEDRON = tuple(
    tuple(sign / math.sqrt(3.0) for sign in row) for row in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
)

# eta * photons stays an exact integer in a float below 2**53, and the Poisson
# means stay far below numpy's limit of about 9.2e18.
MAX_PHOTONS = 10**15
MAX_ENSEMBLE_SIZE = 10**6
# Members evaluated per batch: bounds the generator states and the
# (members, 3) arrays held at once, whatever the ensemble size.
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
    """The experiment each cell runs: photons sent per trial, the ensemble of input states
    and whether a faded channel is redrawn per trial or held per grid point."""

    photons: int = field(default=200_000, metadata={"ge": 1, "le": MAX_PHOTONS})
    ensemble_size: int = field(default=220, metadata={"ge": 1, "le": MAX_ENSEMBLE_SIZE})
    ensemble_kind: EnsembleKind = EnsembleKind.HAAR_PURE
    fading_resample: FadingResample = FadingResample.PER_TRIAL

    __post_init__ = check_fields


@dataclass(frozen=True)
class TomographyResult:
    """Member fidelities (ensemble_size,), their mean and SD (ddof 1), and how many members detected nothing."""

    fidelities: np.ndarray
    mean_fidelity: float
    sd_fidelity: float
    failures: int


@dataclass(frozen=True)
class Reconstruction:
    """Fitted Bloch vectors (..., 3); which fits are pure and which saw no counts (...)."""

    r: np.ndarray
    pure: np.ndarray
    degenerate: np.ndarray


def round_half_away(x: float) -> int:
    """Nearest integer, ties away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def sic_povm_qubit() -> np.ndarray:
    """The four-element qubit SIC-POVM, shape (4, 2, 2).

    M_k = (I + s_k . sigma) / 4 with the tetrahedron Bloch vectors s_k; the
    effects sum to the identity and have pairwise overlaps tr(M_j M_k) = 1/12.
    """
    effects = np.empty((len(_TETRAHEDRON), 2, 2), dtype=complex)
    for k, (x, y, z) in enumerate(_TETRAHEDRON):
        effects[k] = 0.25 * np.array([[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]])
    return effects


def born_probabilities(r: np.ndarray) -> list[float]:
    """Probabilities (1 + s_k . r)/4 of the SIC-POVM outcomes for the Bloch vector ``r``."""
    x, y, z = np.asarray(r, dtype=float).tolist()
    return [(1.0 + (sx * x + sy * y + sz * z)) / 4.0 for sx, sy, sz in _TETRAHEDRON]


def simulate_counts(r_in: np.ndarray, n_eff: int, rng: np.random.Generator) -> np.ndarray:
    """Poisson-fluctuated SIC-POVM counts of ``r_in`` at the effective photon number ``n_eff``,
    drawn from the caller's generator ``rng``.

    ``n_eff`` is an integer in [0, MAX_PHOTONS]; the mean count of effect k
    is n_eff * p_k rounded half away from zero.
    """
    if not 0 <= n_eff <= MAX_PHOTONS:
        raise ValueError(f"n_eff must lie in [0, {MAX_PHOTONS:.0e}]")
    if not isinstance(rng, np.random.Generator):
        raise TypeError("rng must be a numpy.random.Generator")
    # One scalar draw per effect: the same draws as one call on the vector of
    # means, without its per-call array checks.
    return np.array(
        [rng.poisson(round_half_away(n_eff * p)) for p in born_probabilities(r_in)],
        dtype=np.int64,
    )


def _dot(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """r . s over the last axis, summed in a fixed order: no BLAS or SIMD reduction."""
    return r[..., 0] * s[..., 0] + r[..., 1] * s[..., 1] + r[..., 2] * s[..., 2]


def fit_state(counts, n_eff) -> Reconstruction:
    """Least-squares state fits to tetrahedral SIC-POVM counts, in closed form.

    ``counts`` has shape (..., 4) and ``n_eff`` broadcasts over (...). With
    p_k(r) = (1 + s_k . r) / 4, sum_k s_k = 0 and sum_k s_k s_k^T = (4/3) I,
    the cost sum_k (p_k(r) - m_k/n_eff)^2 is isotropic in the Bloch vector r.
    The best physical state therefore has r = 3 sum_k (m_k/n_eff) s_k, scaled
    back onto the unit sphere when |r| > 1 (Rehacek, Englert & Kaszlikowski,
    PRA 70, 052321, 2004); those fits are ``pure``. As s_k = (+-1, +-1, +-1)/sqrt(3),
    r is sqrt(3) times signed sums of the counts over n_eff.

    All-zero counts carry no information: they give r = 0, the maximally
    mixed state, with ``degenerate`` set.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_eff = np.asarray(n_eff)
    if counts.shape[-1:] != (len(_TETRAHEDRON),):
        raise ValueError("counts must have one entry per SIC-POVM effect (four)")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if not np.all((n_eff >= 1) & np.isfinite(n_eff)):
        raise ValueError("n_eff must be finite and >= 1")
    m0, m1, m2, m3 = np.moveaxis(counts, -1, 0)
    signed = np.stack([m0 + m1 - m2 - m3, m0 - m1 + m2 - m3, m0 - m1 - m2 + m3], axis=-1)
    r = math.sqrt(3.0) * signed / n_eff[..., None]
    norm = np.sqrt(_dot(r, r))
    r /= np.maximum(norm, 1.0)[..., None]
    return Reconstruction(r=r, pure=norm >= 1.0, degenerate=~counts.any(axis=-1))


def fidelity(r: np.ndarray, s: np.ndarray, pure: bool | np.ndarray = False) -> float | np.ndarray:
    """Uhlmann-Jozsa fidelity between qubit Bloch vectors of shape (..., 3).

    F = (1 + r . s + sqrt((1 - |r|^2)(1 - |s|^2))) / 2 (Jozsa, J. Mod. Opt.
    41, 2315, 1994). Where ``pure`` (broadcast over (...)) is set, either
    state is known to be pure and the root is exactly 0; taken from 1 - |r|^2,
    the root of a pure state paired with a mixed one is round-off of up to
    about 1e-8. A pair of single states gives a float, stacks give an array
    over (...).
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if r.shape[-1:] != (3,) or s.shape[-1:] != (3,):
        raise ValueError("fidelity takes single-qubit Bloch vectors, shape (..., 3)")
    mixedness = np.maximum(1.0 - _dot(r, r), 0.0) * np.maximum(1.0 - _dot(s, s), 0.0)
    root = np.where(pure, 0.0, np.sqrt(mixedness))
    value = np.minimum(np.maximum(0.5 * (1.0 + _dot(r, s) + root), 0.0), 1.0)
    return float(value) if value.ndim == 0 else value


def haar_random_pure(rng: np.random.Generator) -> np.ndarray:
    """Bloch vector, shape (3,), of the Haar-random pure qubit state (a + ic, b + id)
    from four standard normals (a, b, c, d): the Hopf map of a uniform point on S^3."""
    a, b, c, d = rng.standard_normal(4).tolist()
    s = a * a + b * b + c * c + d * d
    return np.array([2.0 * (a * b + c * d) / s, 2.0 * (a * d - c * b) / s, (a * a + c * c - b * b - d * d) / s])


def bures_random_mixed(rng: np.random.Generator) -> np.ndarray:
    """Bloch vector, shape (3,), of a Bures-distributed mixed qubit state from four
    standard normals (a, b, c, d): (a, b, c) / |(a, b, c, d)|.

    The first three coordinates of a uniform point on S^3 have the density
    1/sqrt(1 - |r|^2) on the Bloch ball, which is the Bures law of the qubit
    (Hall, Phys. Lett. A 242, 123, 1998).
    """
    a, b, c, d = rng.standard_normal(4).tolist()
    norm = math.sqrt(a * a + b * b + c * c + d * d)
    return np.array([a / norm, b / norm, c / norm])


def _ensemble(
    config: TomographyConfig, seed: int, key: tuple[int, ...], eta: float, sigma_j2: float
) -> TomographyResult:
    """Tomography over the members (seed, *key, i): each fidelity, their mean and SD, and the failures.

    Member i is one scalar trial on its own stream: its fade (where the
    log-variance ``sigma_j2`` is > 0), its state, and its counts from
    ``simulate_counts`` at n_eff, the photons times ``eta`` times its fade
    (capped at 1), rounded once.
    ``fit_state`` and ``fidelity`` then run once on each block's
    (members, ...) stacks. A member fails when it detects nothing, including
    when n_eff is zero.
    """
    haar = config.ensemble_kind is EnsembleKind.HAAR_PURE
    draw_state = haar_random_pure if haar else bures_random_mixed
    fids = np.empty(config.ensemble_size)
    failures = 0
    # One generator, set to each member's stream in turn.
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    for start in range(0, config.ensemble_size, _MEMBER_BLOCK):
        stop = min(start + _MEMBER_BLOCK, config.ensemble_size)
        n_eff = np.empty(stop - start, dtype=np.int64)
        r_in = np.empty((stop - start, 3))
        counts = np.empty((stop - start, len(_TETRAHEDRON)), dtype=np.int64)
        for j, state in enumerate(stream_states(seed, key, start, stop)):
            bit_generator.state = state
            fade = sample(sigma_j2, rng, 1)[0] if sigma_j2 > 0 else 1.0
            member_n_eff = round_half_away(min(eta * fade, 1.0) * config.photons)
            n_eff[j] = member_n_eff
            r_in[j] = draw_state(rng)
            counts[j] = simulate_counts(r_in[j], member_n_eff, rng)
        # n_eff = 0 comes with zero counts, whose fit is degenerate whatever n_eff.
        fit = fit_state(counts, np.maximum(n_eff, 1))
        fids[start:stop] = fidelity(r_in, fit.r, fit.pure | haar)
        failures += int(np.count_nonzero(fit.degenerate))
    return TomographyResult(
        fidelities=fids,
        mean_fidelity=float(fids.mean()),
        sd_fidelity=float(fids.std(ddof=1)) if config.ensemble_size > 1 else 0.0,
        failures=failures,
    )


def run_ensemble(config: TomographyConfig, transmittance: float = 1.0, seed: int = 0) -> TomographyResult:
    """Tomography over an ensemble of random input states at a fixed transmittance in [0, 1].

    Every member draws its own state and counts from a sub-seed of
    (seed, member index), so results do not depend on scheduling. The channel
    does not fade, so ``config.fading_resample`` does not apply.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance must lie in [0, 1]")
    return _ensemble(config, seed, (), transmittance, 0.0)


def fidelity_vs_zenith(grid: ChannelGrid, config: TomographyConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Ensemble fidelity statistics of every cell of a channel grid, keyed by their CSV column names.

    Returns ``mean_fidelity``, ``sd_fidelity`` and ``failures`` (int64) in
    that order, each an (nD, nZ) array of the cells' ``TomographyResult``
    fields of the same names. The channel transmittance at each cell
    combines the deterministic factors with a log-normal fade; with
    ``config.fading_resample`` PER_TRIAL each tomography trial sees a fresh
    fade, with PER_POINT one draw is shared per grid point. Every cell sends
    ``config.photons`` photons per trial, and member i of cell (di, zi)
    draws from the sub-seed (seed, di, zi, i).
    """
    # eta_det before sigma_j2, so a failing transmittance is reported before
    # a failing profile integral.
    eta_det = grid.eta_det
    mean, sd = np.empty(grid.shape), np.empty(grid.shape)
    failures = np.empty(grid.shape, dtype=np.int64)
    # A per-point fade comes from the cell's stream (seed, di, zi), one
    # stream_states call per diameter row, as in sweep_pass. A grid without
    # fading draws none.
    n_d, n_z = grid.shape
    per_point = config.fading_resample is FadingResample.PER_POINT and grid.sigma_j2.any()
    point_states = [state for di in range(n_d) for state in stream_states(seed, (di,), 0, n_z)] if per_point else []
    point_rng = np.random.default_rng(0)
    for (di, zi), sigma_j2 in np.ndenumerate(grid.sigma_j2):
        sigma_j2, eta = float(sigma_j2), float(eta_det[di, zi])
        if sigma_j2 > 0 and per_point:
            point_rng.bit_generator.state = point_states[di * n_z + zi]
            eta *= float(sample(sigma_j2, point_rng, 1)[0])
            sigma_j2 = 0.0
        result = _ensemble(config, seed, (di, zi), eta, sigma_j2)
        mean[di, zi], sd[di, zi], failures[di, zi] = result.mean_fidelity, result.sd_fidelity, result.failures
    return {"mean_fidelity": mean, "sd_fidelity": sd, "failures": failures}
