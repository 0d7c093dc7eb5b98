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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._bounds import check_fields
from .beam import BeamParams, encircled_energy, spot_size
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
    giggenbach_layer_distance,
    psi,
    rytov_downlink,
    scintillation_index,
    turbulence_scale_height,
)

LEO_ALTITUDE_M = 420e3
MEO_ALTITUDE_M = 20_200e3

# A grid may reach +/-80 degrees; the slack admits "80 deg" after rounding.
ZENITH_BOUND_RAD = math.radians(80.0) + 1e-12


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
    """Beam, extinction, Cn^2 and aperture models, internal efficiency ``eta_int`` in (0, 1], and fading mode."""

    beam: BeamParams = BeamParams()
    extinction: ExtinctionParams = ExtinctionParams()
    turbulence: TurbulenceProfile = TurbulenceProfile()
    eta_int: float = field(default=0.4, metadata={"gt": 0.0, "le": 1.0})
    aperture_model: ApertureModel = ApertureModel()
    fluctuation_mode: FluctuationMode = FluctuationMode.DETERMINISTIC
    scintillation_variant: ScintillationVariant = ScintillationVariant.SEVEN_SIXTHS

    __post_init__ = check_fields


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
class ChannelGrid:
    """The slant-path channel over a (diameter, zenith) grid; 2-D arrays are (nD, nZ).

    ``range_m`` is the slant range per zenith angle, ``eta_atm`` (nZ) the
    extinction and ``eta_d`` the diffraction into receivers of radius D/2.
    ``eta_det`` = eta_int * eta_atm * eta_d is the transmittance at unit
    intensity, ``av`` the configured aperture-averaging factor and ``sigma_j2``
    the log-variance of the intensity factor in the configured fluctuation
    mode. All but ``range_m`` are evaluated on first access, so a reduction
    computes only what it reads: the aperture-averaging table never evaluates
    extinction or diffraction, and a deterministic sweep no Cn^2 integral.
    """

    params: ChannelParams
    altitude_m: float
    zenith_rad: np.ndarray
    diameters_m: np.ndarray
    range_m: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.diameters_m), len(self.zenith_rad)

    # compose's scalar arithmetic per factor; the products round exactly, so each cell has compose's bits.
    @cached_property
    def eta_atm(self) -> np.ndarray:
        ext = self.params.extinction
        return np.array([slant_transmittance(ext, self.altitude_m, zen) for zen in self.zenith_rad.tolist()])

    @cached_property
    def eta_d(self) -> np.ndarray:
        spots = [spot_size(self.params.beam, path) for path in self.range_m.tolist()]
        eta_d = [[encircled_energy(d / 2.0, w) for w in spots] for d in self.diameters_m.tolist()]
        return np.array(eta_d, dtype=float).reshape(self.shape)

    @cached_property
    def eta_det(self) -> np.ndarray:
        return self.params.eta_int * self.eta_atm * self.eta_d

    @cached_property
    def av(self) -> np.ndarray:
        # The model's input once per zenith angle (slant range, Giggenbach's
        # layer distance or zenith angle) and Yura's scale height once per grid.
        p = self.params
        model, wavelength = p.aperture_model, p.beam.wavelength_m
        diameters, zeniths = self.diameters_m.tolist(), self.zenith_rad.tolist()
        if model.kind is ApertureModelKind.ANDREWS:
            paths = self.range_m.tolist()
            av = [[av_andrews(d, wavelength, path) for path in paths] for d in diameters]
        elif model.kind is ApertureModelKind.GIGGENBACH:
            layers = [giggenbach_layer_distance(90.0 - abs(math.degrees(zen)), model) for zen in zeniths]
            av = [[av_giggenbach(d, wavelength, layer) for layer in layers] for d in diameters]
        else:
            h_s = turbulence_scale_height(p.turbulence, self.altitude_m)
            av = [[av_yura(d, wavelength, h_s, zen) for zen in zeniths] for d in diameters]
        return np.array(av, dtype=float).reshape(self.shape)

    @cached_property
    def sigma_j2(self) -> np.ndarray:
        p = self.params
        if p.fluctuation_mode is FluctuationMode.DETERMINISTIC:
            return np.zeros(self.shape)
        sigma_i2 = np.array([
            scintillation_index(rytov_downlink(p.turbulence, p.beam.wavelength_m, self.altitude_m, zen),
                                p.scintillation_variant)
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

    The station sits at ``params.turbulence.h_ogs_m``. Only the slant range
    per zenith angle is computed here. A zenith angle beyond
    ``ZENITH_BOUND_RAD`` and a receiver radius (D/2) that is not positive are
    rejected, NaN included, whatever a reduction reads; the rest follows on
    first access. The Cn^2 profile moments behind ``sigma_j2`` and ``av`` are
    memoized, so each is integrated once however large the grid, and Yura's
    scale height is computed once per grid.
    """
    diameters = np.asarray(list(diameters_m), dtype=float)
    zeniths = np.asarray(list(zenith_grid_rad), dtype=float)
    if not np.all(np.abs(zeniths) <= ZENITH_BOUND_RAD):
        raise ValueError("zenith grid must lie within +/-80 degrees")
    if not all(diam / 2.0 > 0 for diam in diameters.tolist()):
        raise ValueError("every receiver radius (half the diameter) must be > 0")
    ranges = np.array([
        slant_range(LinkGeometry(altitude_m, zen, params.turbulence.h_ogs_m, earth_radius_m))
        for zen in zeniths.tolist()
    ])
    return ChannelGrid(params, altitude_m, zeniths, diameters, ranges)


def compose(
    params: ChannelParams, geom: LinkGeometry, diameter_m: float, intensity: float = 1.0
) -> TransmittanceBreakdown:
    """Evaluate the four-factor transmittance for one geometry, one receiver and one fade.

    ``diameter_m`` is the receiver diameter and ``intensity`` the relative
    intensity factor for this instant (1 for a deterministic channel). This is
    the scalar reference for one cell of :func:`channel_grid`.
    """
    if not diameter_m / 2.0 > 0:
        raise ValueError("the receiver radius (half the diameter) must be > 0")
    if not intensity > 0:
        raise ValueError("intensity must be > 0")
    eta_atm = slant_transmittance(params.extinction, geom.satellite_altitude_m, geom.zenith_angle_rad)
    eta_d = encircled_energy(diameter_m / 2.0, spot_size(params.beam, slant_range(geom)))
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
    ``state``. numpy's ``SeedSequence(seed, spawn_key=key)`` is built once and
    its pool holds every entropy word but the last, i, already mixed. Only i's
    mixing, ``generate_state(4, uint64)`` and PCG64's seeding step are done
    here, on uint64 arrays of 32-bit words.
    """
    if not 0 <= start <= stop <= 2**32:
        raise ValueError("stream indices must lie in [0, 2**32)")
    # operator.index: numpy would take None as OS entropy and a list as entropy words.
    pool = np.random.SeedSequence(operator.index(seed), spawn_key=key).pool.tolist()
    # The pool's mixing took 4 hash steps per 32-bit entropy word, with the
    # seed padded to the pool's 4 words; the hash constant resumes after them.
    seed_words, *key_words = [(max(operator.index(w).bit_length(), 1) + 31) // 32 for w in (seed, *key)]
    hash_const = _HASH_INIT_A * pow(_HASH_MULT_A, 4 * (max(4, seed_words) + sum(key_words)), 2**32) & _MASK32
    last = np.arange(start, stop, dtype=np.uint64)
    for dst in range(4):
        value, hash_const = _hashmix(last, hash_const, _HASH_MULT_A)
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


def _loss_stats(rows: np.ndarray, loss0: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Mean, SD and 5th, 50th and 95th percentiles of the dB loss per row of standard normal draws z, as (5, k).

    ``rows`` is (k, n) and is overwritten; ``loss0`` (the loss at unit
    intensity) and ``sigma2`` (the log-variance) hold one value per row. With
    unit-mean log-normal fading I = exp(sigma z - sigma^2/2), the dB loss
    -10 log10(eta_det I) is affine and falling in z: loss0 + c sigma^2/2 -
    c sigma z, with c = 10/ln 10. The rows become m - z for their mean m, so
    the loss, mean + c sigma (m - z), rises with the row: loss rank r is row
    rank r. Only + - * / and sqrt map the draws to the statistics, and the
    percentiles are bit for bit ``np.percentile(loss, [5, 50, 95])`` (its
    default "linear" method), without building the loss array or sorting.
    """
    c = 10.0 / math.log(10.0)
    n = rows.shape[1]
    m = rows.mean(axis=1)
    slope = c * np.sqrt(sigma2)
    mean = loss0 + c * sigma2 / 2.0 - slope * m
    np.subtract(m[:, None], rows, out=rows)
    sd = np.zeros_like(mean)
    if n > 1:
        # One 1-D einsum per row: the stacked "ij,ij->i" sums rows longer than
        # nditer's 8192-element buffer in another order. einsum, not np.dot:
        # dot runs on BLAS threads that compete with the workers.
        ss = np.array([np.einsum("i,i->", row, row) for row in rows])
        sd = slope * np.sqrt(ss / (n - 1))
    # Per percentile: the rank of its lower neighbour, whose upper neighbour is
    # the min of the values ranked above it (none when n = 1).
    v = [(n - 1) * q for q in (0.05, 0.5, 0.95)]
    ranks = r05, r50, r95 = [math.floor(vq) for vq in v]
    # The median first, so that the other two partitions each take about half a row.
    rows.partition(r50, axis=1)
    if r05 < r50:
        rows[:, :r50].partition(r05, axis=1)
    if r95 > r50:
        rows[:, r50 + 1:].partition(r95 - r50 - 1, axis=1)
    out = [mean, sd]
    for vq, rank in zip(v, ranks):
        a = mean + slope * rows[:, rank]
        b = mean + slope * rows[:, rank + 1:].min(axis=1) if rank < n - 1 else a
        t = vq - rank
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return np.array(out)


def _worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_pass(grid: ChannelGrid, draws_per_point: int = 10_000, seed: int = 0) -> dict[str, np.ndarray]:
    """Photon-loss statistics of every cell of a channel grid, keyed by their CSV column names.

    Returns ``mean_loss_db``, ``sd_loss_db``, ``p05_db``, ``p50_db`` and
    ``p95_db`` in that order, each an (nD, nZ) array. Each cell draws
    ``draws_per_point`` unit-mean log-normal intensity fades around its
    deterministic transmittance and records mean/SD and the 5/50/95
    percentiles of the dB loss, reduced from the standard normal draws
    behind the fades. A grid without fading draws nothing and keeps its
    deterministic loss; otherwise every cell is reduced concurrently on the
    CPUs the process may use, in batches of ``BATCH_DOUBLES // draws_per_point``
    cells (at least one), in one pass: a worker maps each batch's draws
    straight to the five dB statistics and writes them into the result table.
    Each cell has its own sub-seed, so the worker count does not matter.
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

    # loss0 takes math.log10 per cell, as compose does: numpy's AVX-512 log10
    # can differ in the last bit.
    loss0 = np.array([-10.0 * math.log10(eta) for eta in eta_det.ravel().tolist()])
    # Mean, SD and the 5/50/95 percentiles per cell: the deterministic loss
    # and an SD of 0 until the workers overwrite them. The returned columns
    # are views of its rows, so they hold what the workers write.
    stats = np.stack([loss0, np.zeros_like(loss0), loss0, loss0, loss0])
    n_d, n_z = eta_det.shape
    columns = dict(zip(("mean_loss_db", "sd_loss_db", "p05_db", "p50_db", "p95_db"), stats.reshape(5, n_d, n_z)))
    if not sigma_j2.any():
        return columns

    # Cell (di, zi) draws from the stream of sub-seed (seed, di, zi), so the
    # result does not depend on how the grid is scheduled. Cells are indexed
    # flat, diameter-major. A cell with sigma^2 = 0 in a grid with fading (a
    # PSI grid where av * sigma_I^2 underflows in some cells) draws with
    # slope 0, which keeps its mean and percentiles at loss0 and its SD at 0.
    states = [state for di in range(n_d) for state in stream_states(seed, (di,), 0, n_z)]
    s2 = sigma_j2.ravel()

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
            stats[:, batch] = _loss_stats(rows, loss0[batch], s2[batch])

    # One contiguous block of cells per worker keeps dispatch off small cells.
    workers = min(_worker_count(), len(states))
    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(reduce_cells, block) for block in np.array_split(np.arange(len(states)), workers)]:
            future.result()
    return columns
