"""Channel composition and the loss-sweep experiments.

Total transmittance is the product of four independent factors: internal
detection efficiency, atmospheric extinction, diffraction collection loss,
and the turbulence-induced intensity factor. ``channel_grid`` evaluates that
model over a (diameter, zenith) grid once; the loss sweep, the
aperture-averaging table and the tomography sweep are reductions over it.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .beam import BeamParams, diffraction_transmittance
from .extinction import ExtinctionParams, slant_transmittance
from .fading import FadingModel, sample
from .geometry import EARTH_RADIUS_M, LinkGeometry, slant_range
from .turbulence import (
    ApertureModel,
    ApertureModelKind,
    ScintillationVariant,
    TurbulenceProfile,
    aperture_averaging,
    psi,
    rytov_downlink,
    scintillation_index,
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
    """Loss statistics per (diameter, zenith) cell; arrays are (nD, nZ)."""

    zenith_deg: np.ndarray
    diameters_m: np.ndarray
    mean_loss_db: np.ndarray
    sd_loss_db: np.ndarray
    p05_db: np.ndarray
    p50_db: np.ndarray
    p95_db: np.ndarray


@dataclass(frozen=True)
class AvTable:
    """Aperture-averaging factors per (diameter, zenith) cell."""

    zenith_deg: np.ndarray
    diameters_m: np.ndarray
    av: np.ndarray


@dataclass(frozen=True)
class ChannelGrid:
    """The slant-path channel over a (diameter, zenith) grid; 2-D arrays are (nD, nZ).

    ``eta_det`` is the transmittance at unit intensity, eta_int * eta_atm *
    eta_d. ``av`` is the configured model's aperture-averaging factor and
    ``sigma_j2`` the log-variance of the intensity factor in the configured
    fluctuation mode. Both are evaluated on first access, so a scenario that
    never reads them evaluates no Cn^2 profile integral.
    """

    params: ChannelParams
    altitude_m: float
    zenith_rad: np.ndarray
    diameters_m: np.ndarray
    range_m: np.ndarray
    eta_det: np.ndarray

    @cached_property
    def av(self) -> np.ndarray:
        p = self.params
        av = np.empty(self.eta_det.shape)
        for di, zi in np.ndindex(av.shape):
            zen = float(self.zenith_rad[zi])
            av[di, zi] = aperture_averaging(
                p.aperture_model,
                float(self.diameters_m[di]),
                p.beam.wavelength_m,
                path_m=float(self.range_m[zi]),
                elevation_deg=90.0 - abs(math.degrees(zen)),
                profile=p.turbulence,
                altitude_m=self.altitude_m,
                zenith_rad=zen,
            )
        return av

    @cached_property
    def sigma_j2(self) -> np.ndarray:
        p = self.params
        if p.fluctuation_mode is FluctuationMode.DETERMINISTIC:
            return np.zeros(self.eta_det.shape)
        sigma_i2 = np.array([
            scintillation_index(rytov_downlink(p.turbulence, p.beam.wavelength_m, self.altitude_m, zen),
                                p.scintillation_variant).sigma_I2
            for zen in self.zenith_rad.tolist()
        ])
        if p.fluctuation_mode is FluctuationMode.ISI:
            return np.broadcast_to(sigma_i2, self.eta_det.shape).copy()
        return np.vectorize(psi, otypes=[float])(sigma_i2, self.av)


def channel_grid(
    params: ChannelParams,
    altitude_m: float,
    diameters_m,
    zenith_grid_rad,
    *,
    earth_radius_m: float = EARTH_RADIUS_M,
) -> ChannelGrid:
    """Evaluate the channel over a (diameter, zenith) grid for one pass.

    The station sits at ``params.turbulence.h_ogs_m``. Slant range and
    extinction are computed once per zenith angle and diffraction once per
    cell, with the same scalar arithmetic as :func:`compose`. The Cn^2 profile
    moments behind ``sigma_j2`` and ``av`` are memoized, so each is integrated
    once however large the grid.
    """
    diameters = np.asarray(list(diameters_m), dtype=float)
    zeniths = np.asarray(list(zenith_grid_rad), dtype=float)
    if np.any(np.abs(zeniths) > math.radians(80.0) + 1e-12):
        raise ValueError("zenith grid must lie within +/-80 degrees")

    beams = [replace(params.beam, receiver_radius_m=diam / 2.0) for diam in diameters.tolist()]
    ranges = np.empty(len(zeniths))
    eta_det = np.empty((len(diameters), len(zeniths)))
    for zi, zen in enumerate(zeniths.tolist()):
        path = slant_range(LinkGeometry(altitude_m, zen, params.turbulence.h_ogs_m, earth_radius_m))
        eta_atm = slant_transmittance(params.extinction, altitude_m, zen)
        ranges[zi] = path
        for di, beam in enumerate(beams):
            eta_det[di, zi] = params.eta_int * eta_atm * diffraction_transmittance(beam, path)
    return ChannelGrid(params, altitude_m, zeniths, diameters, ranges, eta_det)


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


def _cell_rng(seed: int, d_index: int, z_index: int) -> np.random.Generator:
    # Sub-seed per (diameter, zenith) cell: results are identical no matter
    # how the grid is scheduled.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(d_index, z_index)))


def _sorted_percentiles(x: np.ndarray) -> list[float]:
    """The 5th, 50th and 95th percentiles of the ascending array ``x``.

    Bit for bit what ``np.percentile(x, [5, 50, 95])`` returns (its default
    "linear" method), without the partial sorts numpy repeats per call.
    """
    n = len(x)
    out = []
    for q in (0.05, 0.5, 0.95):
        v = (n - 1) * q
        lo = hi = -1
        if v < n - 1:
            lo = math.floor(v)
            hi = lo + 1
        a, b, t = float(x[lo]), float(x[hi]), v - lo
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return out


def _worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_pass(
    params: ChannelParams,
    altitude_m: float,
    diameters_m,
    zenith_grid_rad,
    draws_per_point: int = 10_000,
    seed: int = 0,
    *,
    earth_radius_m: float = EARTH_RADIUS_M,
) -> SweepResult:
    """Photon-loss statistics over a (diameter, zenith) grid for one pass.

    Each cell draws ``draws_per_point`` intensity fades around its
    deterministic transmittance and records mean/SD and the 5/50/95
    percentiles of the dB loss. Cells are reduced concurrently on the CPUs
    the process may use; each has its own sub-seed, so the result does not
    depend on the number of workers.
    """
    # Imported here: at module level it would add to every CLI start-up.
    from concurrent.futures import ThreadPoolExecutor

    if draws_per_point < 1:
        raise ValueError("draws_per_point must be >= 1")
    grid = channel_grid(params, altitude_m, diameters_m, zenith_grid_rad, earth_radius_m=earth_radius_m)
    # Read here, not in the workers: sigma_j2 is evaluated on first access.
    eta_det, sigma_j2 = grid.eta_det, grid.sigma_j2

    # mean, SD, p05, p50, p95 per cell
    stats = np.empty((5,) + eta_det.shape)

    def reduce_cells(cells) -> None:
        # numpy releases the GIL in the draws, ufuncs, reductions and sort.
        for di, zi in cells:
            s2 = float(sigma_j2[di, zi])
            if s2 > 0:
                loss = sample(FadingModel(s2), _cell_rng(seed, di, zi), draws_per_point)
            else:
                loss = np.ones(draws_per_point)
            # In place: -10 * log10(eta_det * I)
            loss *= eta_det[di, zi]
            np.log10(loss, out=loss)
            loss *= -10.0
            # mean and SD before sorting: the pairwise sums depend on the order.
            stats[0, di, zi] = loss.mean()
            stats[1, di, zi] = loss.std(ddof=1) if draws_per_point > 1 else 0.0
            loss.sort()
            stats[2:, di, zi] = _sorted_percentiles(loss)

    # One contiguous block of cells per worker keeps dispatch off small cells.
    cells = list(np.ndindex(eta_det.shape))
    workers = min(_worker_count(), len(cells))
    blocks = [cells[i * len(cells) // workers:(i + 1) * len(cells) // workers] for i in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(reduce_cells, block) for block in blocks]:
            future.result()

    return SweepResult(np.degrees(grid.zenith_rad), grid.diameters_m, *stats)


def av_vs_zenith(
    model: ApertureModel,
    altitude_m: float,
    diameters_m,
    zenith_grid_rad,
    wavelength_m: float,
    *,
    profile: TurbulenceProfile | None = None,
    ogs_altitude_m: float = 0.0,
    earth_radius_m: float = EARTH_RADIUS_M,
) -> AvTable:
    """Aperture-averaging factor over a (diameter, zenith) grid.

    Path context per model: Andrews uses the full slant range from a station
    at ``ogs_altitude_m``, Giggenbach the elevation angle, Yura the turbulence
    profile (which must then be supplied).
    """
    if model.kind is ApertureModelKind.YURA and profile is None:
        raise ValueError("Yura model requires profile")
    # Only Yura reads the profile; the others read the path from the station.
    turbulence = profile if model.kind is ApertureModelKind.YURA else TurbulenceProfile(h_ogs_m=ogs_altitude_m)
    params = ChannelParams(
        beam=BeamParams(wavelength_m=wavelength_m), turbulence=turbulence, aperture_model=model
    )
    grid = channel_grid(params, altitude_m, diameters_m, zenith_grid_rad, earth_radius_m=earth_radius_m)
    return AvTable(zenith_deg=np.degrees(grid.zenith_rad), diameters_m=grid.diameters_m, av=grid.av)
