"""Channel composition and the loss-sweep experiments.

Total transmittance is the product of four independent factors: internal
detection efficiency, atmospheric extinction, diffraction collection loss,
and the turbulence-induced intensity factor. ``channel_grid`` sets that model
up over a (diameter, zenith) grid once per pass. Each experiment reads one
result of it: the aperture-averaging table is ``ChannelGrid.av``, and the
loss sweep (:func:`sweep_pass`) and the tomography sweep
(``qst.fidelity_vs_zenith``) reduce it cell by cell.
"""

from __future__ import annotations

import enum
import math
import operator
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .beam import BeamParams, diffraction_transmittance
from .extinction import ExtinctionParams, slant_transmittance
from .geometry import EARTH_RADIUS_M, LinkGeometry, slant_range
from .turbulence import (
    ApertureModel,
    ApertureModelKind,
    ScintillationVariant,
    TurbulenceProfile,
    av_andrews,
    av_giggenbach,
    av_yura,
    psi,
    rytov_downlink,
    scintillation_index,
    turbulence_scale_height,
)

LEO_ALTITUDE_M = 420e3
MEO_ALTITUDE_M = 20_200e3


class FluctuationMode(enum.Enum):
    """How the intensity factor I is modeled in sweeps.

    DETERMINISTIC pins I = 1; ISI draws log-normal fades at the point-receiver
    scintillation index; PSI first reduces the index by aperture averaging.
    """

    DETERMINISTIC = "deterministic"
    ISI = "isi"
    PSI = "psi"


@dataclass(frozen=True)
class ChannelParams:
    beam: BeamParams = field(default_factory=BeamParams)
    extinction: ExtinctionParams = field(default_factory=ExtinctionParams)
    turbulence: TurbulenceProfile = field(default_factory=TurbulenceProfile)
    eta_int: float = 0.4
    aperture_model: ApertureModel = field(default_factory=ApertureModel)
    fluctuation_mode: FluctuationMode = FluctuationMode.DETERMINISTIC
    scintillation_variant: ScintillationVariant = ScintillationVariant.SEVEN_SIXTHS

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_int <= 1.0:
            raise ValueError("eta_int must lie in (0, 1]")


@dataclass(frozen=True)
class TransmittanceBreakdown:
    """Per-factor transmittances together with their product and dB loss."""

    eta_int: float
    eta_atm: float
    eta_d: float
    intensity_factor: float
    eta_total: float
    loss_db: float


@dataclass(frozen=True)
class SweepResult:
    """Loss statistics per (diameter, zenith) cell of a ChannelGrid; arrays are (nD, nZ)."""

    mean_loss_db: np.ndarray
    sd_loss_db: np.ndarray
    p05_db: np.ndarray
    p50_db: np.ndarray
    p95_db: np.ndarray


@dataclass(frozen=True)
class ChannelGrid:
    """The slant-path channel over a (diameter, zenith) grid; 2-D arrays are (nD, nZ).

    ``beams`` holds the beam with each diameter's receiver and ``range_m`` the
    slant range per zenith angle. ``eta_det`` is the transmittance at unit
    intensity, eta_int * eta_atm * eta_d; ``av`` is the configured model's
    aperture-averaging factor and ``sigma_j2`` the log-variance of the
    intensity factor in the configured fluctuation mode. These three are
    evaluated on first access, so a reduction computes only what it reads:
    the aperture-averaging table never evaluates extinction or diffraction,
    and a deterministic sweep no Cn^2 profile integral.
    """

    params: ChannelParams
    altitude_m: float
    zenith_rad: np.ndarray
    diameters_m: np.ndarray
    beams: tuple[BeamParams, ...]
    range_m: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.diameters_m), len(self.zenith_rad)

    @cached_property
    def eta_det(self) -> np.ndarray:
        # Extinction once per zenith angle, diffraction once per cell, with the
        # same scalar arithmetic as compose.
        p = self.params
        eta_det = np.empty(self.shape)
        for zi, (zen, path) in enumerate(zip(self.zenith_rad.tolist(), self.range_m.tolist())):
            eta_atm = slant_transmittance(p.extinction, self.altitude_m, zen)
            for di, beam in enumerate(self.beams):
                eta_det[di, zi] = p.eta_int * eta_atm * diffraction_transmittance(beam, path)
        return eta_det

    @cached_property
    def av(self) -> np.ndarray:
        # The model's input once per zenith angle (slant range, elevation in
        # degrees or zenith angle) and Yura's scale height once per grid.
        p = self.params
        model, wavelength = p.aperture_model, p.beam.wavelength_m
        if model.kind is ApertureModelKind.ANDREWS:
            per_zenith = self.range_m.tolist()

            def cell(diameter: float, path: float) -> float:
                return av_andrews(diameter, wavelength, path)
        elif model.kind is ApertureModelKind.GIGGENBACH:
            per_zenith = [90.0 - abs(math.degrees(zen)) for zen in self.zenith_rad.tolist()]

            def cell(diameter: float, elevation: float) -> float:
                return av_giggenbach(diameter, wavelength, elevation, model)
        else:
            per_zenith = self.zenith_rad.tolist()
            h_s = turbulence_scale_height(p.turbulence, self.altitude_m)

            def cell(diameter: float, zen: float) -> float:
                return av_yura(diameter, wavelength, h_s, zen)
        av = [[cell(diameter, x) for x in per_zenith] for diameter in self.diameters_m.tolist()]
        return np.array(av, dtype=float).reshape(self.shape)

    @cached_property
    def sigma_j2(self) -> np.ndarray:
        p = self.params
        if p.fluctuation_mode is FluctuationMode.DETERMINISTIC:
            return np.zeros(self.shape)
        sigma_i2 = np.array([
            scintillation_index(rytov_downlink(p.turbulence, p.beam.wavelength_m, self.altitude_m, zen),
                                p.scintillation_variant).sigma_I2
            for zen in self.zenith_rad.tolist()
        ])
        if p.fluctuation_mode is FluctuationMode.ISI:
            return np.broadcast_to(sigma_i2, self.shape).copy()
        return psi(sigma_i2, self.av)


def channel_grid(
    params: ChannelParams,
    altitude_m: float,
    diameters_m,
    zenith_grid_rad,
    *,
    earth_radius_m: float = EARTH_RADIUS_M,
) -> ChannelGrid:
    """The channel over a (diameter, zenith) grid for one pass.

    The station sits at ``params.turbulence.h_ogs_m``. Only the beams and the
    slant range per zenith angle are computed here, so a receiver radius that
    is not positive is rejected whatever a reduction reads; ``eta_det``,
    ``av`` and ``sigma_j2`` follow on first access. The Cn^2 profile moments
    behind ``sigma_j2`` and ``av`` are memoized, so each is integrated once
    however large the grid, and Yura's scale height is computed once per grid.
    """
    diameters = np.asarray(list(diameters_m), dtype=float)
    zeniths = np.asarray(list(zenith_grid_rad), dtype=float)
    if np.any(np.abs(zeniths) > math.radians(80.0) + 1e-12):
        raise ValueError("zenith grid must lie within +/-80 degrees")
    beams = tuple(replace(params.beam, receiver_radius_m=diam / 2.0) for diam in diameters.tolist())
    ranges = np.array([
        slant_range(LinkGeometry(altitude_m, zen, params.turbulence.h_ogs_m, earth_radius_m))
        for zen in zeniths.tolist()
    ])
    return ChannelGrid(params, altitude_m, zeniths, diameters, beams, ranges)


def compose(params: ChannelParams, geom: LinkGeometry, intensity: float = 1.0) -> TransmittanceBreakdown:
    """Evaluate the four-factor transmittance for one geometry and one fade.

    ``intensity`` is the relative intensity factor for this instant (1 for a
    deterministic channel).
    """
    if intensity <= 0:
        raise ValueError("intensity must be > 0")
    eta_atm = slant_transmittance(params.extinction, geom.satellite_altitude_m, geom.zenith_angle_rad)
    eta_d = diffraction_transmittance(params.beam, slant_range(geom))
    eta_total = params.eta_int * eta_atm * eta_d * intensity
    return TransmittanceBreakdown(
        eta_int=params.eta_int,
        eta_atm=eta_atm,
        eta_d=eta_d,
        intensity_factor=intensity,
        eta_total=eta_total,
        loss_db=-10.0 * math.log10(eta_total),
    )


# numpy's SeedSequence constants (NEP 19 keeps its streams stable) and PCG64's
# 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence splits it."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("seed and stream keys must be non-negative integers")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, hash_const: int, mult: int):
    """One SeedSequence hash step on an int or a uint64 array of 32-bit words."""
    value = (value ^ hash_const) * (hash_const := hash_const * mult & _MASK32) & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def stream_states(seed: int, key: tuple[int, ...], start: int, stop: int) -> list[dict]:
    """PCG64 states of ``default_rng(SeedSequence(entropy=seed, spawn_key=key + (i,)))``.

    One state dict per i in [start, stop), ready to assign to a PCG64's
    ``state``. This is numpy's SeedSequence algorithm (hashmix/mix entropy
    pool, then ``generate_state(4, uint64)``) followed by PCG64's seeding
    step. Only the last entropy word, i, varies across the range, so
    everything before it is mixed once and the last word's mixing and the
    state generation run on uint64 arrays of 32-bit words.
    """
    if not 0 <= start <= stop <= 2**32:
        raise ValueError("stream indices must lie in [0, 2**32)")
    run = _uint32_words(seed)
    words = run + [0] * (4 - len(run)) + [w for k in key for w in _uint32_words(k)]
    words.append(np.arange(start, stop, dtype=np.uint64))
    hash_const = _HASH_INIT_A
    pool = []
    for word in words[:4]:
        value, hash_const = _hashmix(word, hash_const, _HASH_MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _HASH_MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        for dst in range(4):
            value, hash_const = _hashmix(word, hash_const, _HASH_MULT_A)
            pool[dst] = _mix(pool[dst], value)
    hash_const = _HASH_INIT_B
    out = []
    for k in range(8):
        value, hash_const = _hashmix(pool[k % 4], hash_const, _HASH_MULT_B)
        out.append(value)
    # Little-endian pairs of 32-bit words: (state high, state low, inc high, inc low).
    words64 = [(out[2 * j] | out[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*words64):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


# Doubles in one worker's batch of draw rows (1 MiB). A batch holds one row per
# cell, so its reductions are a few 2-D numpy calls instead of about ten short
# calls per cell, each of which hands the GIL to the other workers.
BATCH_DOUBLES = 2**17


def _linear_points(n: int) -> list[tuple[int, bool, float]]:
    """numpy's "linear" percentile rule at 5, 50 and 95 on n losses that fall as z rises.

    Per percentile: the z rank whose loss is the upper neighbour, whether the
    lower neighbour is another draw (the next z rank up) or the same one, and
    the interpolation weight t.
    """
    out = []
    for q in (0.05, 0.5, 0.95):
        v = (n - 1) * q
        # numpy pins both loss indices to the top (z rank 0) when v >= n - 1.
        lo = math.floor(v) if v < n - 1 else -1
        out.append((n - 2 - lo if lo >= 0 else 0, lo >= 0, v - lo))
    return out


def _percentile_neighbours(z: np.ndarray) -> np.ndarray:
    """The z behind the loss neighbours of the 5/50/95 percentiles of each row of z.

    ``z`` is (rows, n) and is partitioned in place along its rows: each
    percentile's upper loss neighbour is a z order statistic, and its lower
    one the min of the z ranked above it. Returns (3, 2, rows): per
    percentile, the z of the lower and of the upper loss neighbour.
    """
    points = _linear_points(z.shape[1])
    (r05, _, _), (r50, _, _), (r95, _, _) = points
    # z ranks r95 <= r50 <= r05. The median first, so that the other two
    # partitions each take about half a row.
    z.partition(r50, axis=1)
    if r95 < r50:
        z[:, :r50].partition(r95, axis=1)
    if r05 > r50:
        z[:, r50 + 1:].partition(r05 - r50 - 1, axis=1)
    out = np.empty((3, 2, len(z)))
    for k, (rank, split, _) in enumerate(points):
        out[k, 1] = z[:, rank]
        out[k, 0] = z[:, rank + 1:].min(axis=1) if split else z[:, rank]
    return out


def _loss_percentiles(neighbours: np.ndarray, n: int, offset, slope) -> np.ndarray:
    """The 5th, 50th and 95th percentiles of the loss ``offset - slope * z``.

    ``neighbours`` comes from :func:`_percentile_neighbours` on n draws per
    row; ``offset`` and ``slope > 0`` broadcast against its rows. Bit for bit
    what ``np.percentile(offset - slope * z, [5, 50, 95])`` returns for each
    row (its default "linear" method), without building the loss array or
    sorting: the loss falls as z rises, so its rank-k order statistic is the
    image of z's rank n-1-k, and the affine map keeps ties and order.
    """
    out = []
    for (a_z, b_z), (_, _, t) in zip(neighbours, _linear_points(n)):
        a, b = offset - slope * a_z, offset - slope * b_z
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return np.array(out)


def _worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_pass(grid: ChannelGrid, draws_per_point: int = 10_000, seed: int = 0) -> SweepResult:
    """Photon-loss statistics of every cell of a channel grid.

    Each cell draws ``draws_per_point`` unit-mean log-normal intensity fades
    around its deterministic transmittance and records mean/SD and the
    5/50/95 percentiles of the dB loss, reduced from the standard normal
    draws behind the fades; a cell without fading draws nothing. Cells are
    reduced concurrently on the CPUs the process may use, in batches of
    ``BATCH_DOUBLES // draws_per_point`` cells (at least one); each has its
    own sub-seed, so the result does not depend on the number of workers.
    """
    # Imported here: at module level it would add to every CLI start-up.
    from concurrent.futures import ThreadPoolExecutor

    n = draws_per_point
    if n < 1:
        raise ValueError("draws_per_point must be >= 1")
    # Read here, not in the workers: both are evaluated on first access.
    eta_det, sigma_j2 = grid.eta_det, grid.sigma_j2
    if not np.all(eta_det > 0):
        raise ValueError("the transmittance underflows to zero, so the dB loss is infinite")

    # Cell (di, zi) draws from the stream of sub-seed (seed, di, zi), so the
    # result does not depend on how the grid is scheduled. Cells are indexed
    # flat, diameter-major.
    n_d, n_z = eta_det.shape
    fading = sigma_j2 != 0
    states = []
    for di in range(n_d):
        states += stream_states(seed, (di,), 0, n_z) if fading[di].any() else [None] * n_z
    # Per fading cell, the workers keep only summaries of its draws z: their
    # mean, the sum of squares of z - mean and the percentile neighbours of
    # z - mean.
    z_mean, z_ss = np.zeros(n_d * n_z), np.zeros(n_d * n_z)
    z_pct = np.zeros((3, 2, n_d * n_z))

    def reduce_cells(cells: np.ndarray) -> None:
        # One batch buffer and one generator per worker, reused by every batch
        # of its block; numpy releases the GIL in the draws, reductions and
        # partitions.
        z = np.empty((max(1, BATCH_DOUBLES // n), n))
        rng = np.random.default_rng(0)
        for start in range(0, len(cells), len(z)):
            batch = cells[start:start + len(z)]
            rows = z[:len(batch)]
            for row, i in zip(rows, batch.tolist()):
                rng.bit_generator.state = states[i]
                rng.standard_normal(n, out=row)
            m = rows.mean(axis=1)
            z_mean[batch] = m
            # In place, so the rows hold the deviations z - m from here on.
            rows -= m[:, None]
            if n > 1:
                # One 1-D einsum per row: the stacked "ij,ij->i" sums rows
                # longer than nditer's 8192-element buffer in another order.
                # einsum, not np.dot: dot runs on BLAS threads that compete
                # with the workers.
                z_ss[batch] = [np.einsum("i,i->", row, row) for row in rows]
            z_pct[:, :, batch] = _percentile_neighbours(rows)

    # One contiguous block of fading cells per worker keeps dispatch off
    # small cells.
    cells = np.flatnonzero(fading)
    workers = min(_worker_count(), len(cells))
    if workers:
        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(reduce_cells, block) for block in np.array_split(cells, workers)]:
                future.result()

    # With unit-mean log-normal fading I = exp(sigma z - sigma^2/2), the dB
    # loss -10 log10(eta_det I) is affine and falling in the standard normal
    # z: loss0 + c sigma^2/2 - c sigma z, with c = 10/ln 10. It is applied
    # once to the whole grid with + - * / and sqrt, which round exactly as
    # the scalar arithmetic of one cell would.
    c = 10.0 / math.log(10.0)
    loss0 = -10.0 * np.log10(eta_det)
    slope = c * np.sqrt(sigma_j2)
    mean = loss0 + c * sigma_j2 / 2.0 - slope * z_mean.reshape(n_d, n_z)
    sd = slope * np.sqrt(z_ss.reshape(n_d, n_z) / (n - 1)) if n > 1 else np.zeros_like(mean)
    pct = _loss_percentiles(z_pct.reshape(3, 2, n_d, n_z), n, mean, slope)
    # A cell without fading has the deterministic loss in every statistic.
    return SweepResult(np.where(fading, mean, loss0), np.where(fading, sd, 0.0), *np.where(fading, pct, loss0))
