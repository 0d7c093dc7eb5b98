"""Batch front-end: JSON scenario configs in, CSV tables + a JSON manifest out.

Configs are nested key-value documents; lengths and angles may be given
either as SI numbers (meters; degrees for angles) or as strings with an
explicit unit ("50 cm", "1.4 rad"). Internally everything is SI with radians.
Identical config + seed reproduces byte-identical CSV output.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .beam import BeamParams
from .budget import (
    LEO_ALTITUDE_M,
    ChannelParams,
    FluctuationMode,
    av_vs_zenith,
    sweep_pass,
)
from .extinction import ExtinctionParams
from .geometry import EARTH_MU_M3_S2, EARTH_RADIUS_M, pass_times
from .qst import (
    EnsembleKind,
    FadingResample,
    TomographyConfig,
    fidelity_vs_zenith,
)
from .quadrature import QuadratureError
from .turbulence import ApertureModel, ApertureModelKind, ScintillationVariant, TurbulenceProfile

SCENARIOS = ("pass_time", "av_sweep", "link_budget", "qst")

# A zenith grid finer than this is a typo (a 1e-9 degree step asks for about
# 1.6e11 points and terabytes of memory), so it is a config error.
MAX_ZENITH_POINTS = 100_000

# Each cell in flight holds a few float64 buffers of this many draws (80 MB
# each at the cap), and one cell per CPU is in flight at once.
MAX_DRAWS_PER_POINT = 10_000_000

# Lengths beyond this (about seven astronomical units) are typos; squaring or
# cubing them in the geometry and beam formulas overflows a float.
MAX_LENGTH_M = 1e12

_LENGTH_UNITS = {
    "nm": 1e-9,
    "um": 1e-6,
    "mm": 1e-3,
    "cm": 1e-2,
    "m": 1.0,
    "km": 1e3,
}


class ConfigError(ValueError):
    """Configuration document is malformed or violates an invariant."""


def _is_finite(value: int | float) -> bool:
    """False for NaN, +/-Infinity and integers beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_count(value: Any) -> bool:
    """True for an integer >= 1; JSON booleans are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _bounded_length(length: float, key: str) -> float:
    if abs(length) > MAX_LENGTH_M:
        raise ConfigError(f"{key}: length {length:g} m exceeds {MAX_LENGTH_M:g} m in magnitude")
    return length


def _parse_length(value: Any, key: str) -> float:
    """Length from an SI number (meters) or a unit-suffixed string."""
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected a length, got a boolean")
    if isinstance(value, (int, float)):
        if not _is_finite(value):
            raise ConfigError(f"{key}: length must be finite")
        return _bounded_length(float(value), key)
    if isinstance(value, str):
        parts = value.split()
        if len(parts) == 2 and parts[1] in _LENGTH_UNITS:
            try:
                length = float(parts[0]) * _LENGTH_UNITS[parts[1]]
            except ValueError:
                pass
            else:
                if not _is_finite(length):
                    raise ConfigError(f"{key}: length {value!r} is not finite")
                return _bounded_length(length, key)
        raise ConfigError(f"{key}: cannot parse length {value!r} (units: {', '.join(_LENGTH_UNITS)})")
    raise ConfigError(f"{key}: expected a number or unit string, got {type(value).__name__}")


def _parse_angle(value: Any, key: str) -> float:
    """Angle in radians from a number in degrees or a 'deg'/'rad' string."""
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected an angle, got a boolean")
    if isinstance(value, (int, float)):
        if not _is_finite(value):
            raise ConfigError(f"{key}: angle must be finite")
        return math.radians(float(value))
    if isinstance(value, str):
        parts = value.split()
        if len(parts) == 2 and parts[1] in ("deg", "rad"):
            try:
                mag = float(parts[0])
            except ValueError:
                raise ConfigError(f"{key}: cannot parse angle {value!r}") from None
            if not _is_finite(mag):
                raise ConfigError(f"{key}: angle {value!r} is not finite")
            return math.radians(mag) if parts[1] == "deg" else mag
        raise ConfigError(f"{key}: cannot parse angle {value!r} (use degrees or 'X deg'/'X rad')")
    raise ConfigError(f"{key}: expected a number or unit string, got {type(value).__name__}")


def _take(section: dict, key: str, default: Any) -> Any:
    return section.pop(key, default)


def _take_number(section: dict, key: str, default: float, context: str, problems: list[str]) -> float:
    """Pop a JSON number; anything else is recorded as a problem and replaced by the default."""
    value = section.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{context}.{key} must be a number, got {type(value).__name__}")
        return default
    if not _is_finite(value):
        problems.append(f"{context}.{key} must be a finite number")
        return default
    return value


def _reject_unknown(section: dict, context: str) -> None:
    if section:
        name = next(iter(section))
        raise ConfigError(f"unknown key {context}.{name}")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    seed: int
    output_dir: str
    satellite_altitude_m: float
    ogs_altitude_m: float
    earth_radius_m: float
    mu_m3_s2: float
    zenith_limit_rad: float
    altitudes_m: tuple[float, ...]
    channel: ChannelParams
    diameters_m: tuple[float, ...]
    zenith_min_rad: float
    zenith_max_rad: float
    zenith_step_rad: float
    draws_per_point: int
    photons: int
    ensemble_size: int
    ensemble_kind: EnsembleKind
    fading_resample: FadingResample

    def zenith_grid_rad(self) -> np.ndarray:
        # Floor, not round, so a step that does not divide the span stops short
        # of zenith_max instead of overshooting it.
        n = math.floor((self.zenith_max_rad - self.zenith_min_rad) / self.zenith_step_rad + 1e-9)
        return self.zenith_min_rad + self.zenith_step_rad * np.arange(n + 1)


def parse_config(document: str | dict) -> ScenarioConfig:
    """Validate a config document and apply defaults.

    Accepts raw JSON text or an already-decoded mapping. Unknown keys are
    rejected by name; all invariant violations are reported together.
    """
    if isinstance(document, str):
        try:
            raw = json.loads(document) if document.strip() else {}
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except ValueError as exc:  # an integer longer than Python's int-string limit
            raise ConfigError(f"config cannot be decoded: {exc}") from exc
    else:
        raw = dict(document)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    raw = json.loads(json.dumps(raw))  # deep copy; sections are mutated below

    scenario = _take(raw, "scenario", "link_budget")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    seed = _take(raw, "seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    output_dir = _take(raw, "output_dir", ".")
    problems: list[str] = []

    geo = _take(raw, "geometry", {})
    if not isinstance(geo, dict):
        raise ConfigError("geometry must be an object")
    satellite_altitude = _parse_length(_take(geo, "satellite_altitude", LEO_ALTITUDE_M), "geometry.satellite_altitude")
    ogs_altitude = _parse_length(_take(geo, "ogs_altitude", 65.0), "geometry.ogs_altitude")
    earth_radius = _parse_length(_take(geo, "earth_radius", EARTH_RADIUS_M), "geometry.earth_radius")
    mu = _take_number(geo, "mu", EARTH_MU_M3_S2, "geometry", problems)
    zenith_limit = _parse_angle(_take(geo, "zenith_limit", 80.0), "geometry.zenith_limit")
    raw_alts = _take(geo, "altitudes", None)
    _reject_unknown(geo, "geometry")
    if raw_alts is None:
        altitudes = (satellite_altitude,)
    else:
        if not isinstance(raw_alts, list) or not raw_alts:
            raise ConfigError("geometry.altitudes must be a non-empty list")
        altitudes = tuple(_parse_length(a, "geometry.altitudes") for a in raw_alts)

    ch = _take(raw, "channel", {})
    if not isinstance(ch, dict):
        raise ConfigError("channel must be an object")
    wavelength = _parse_length(_take(ch, "wavelength", 1550e-9), "channel.wavelength")
    waist = _parse_length(_take(ch, "beam_waist", 0.01), "channel.beam_waist")
    eta_int = _take_number(ch, "eta_int", 0.4, "channel", problems)
    alpha0 = _take_number(ch, "alpha0", 5e-6, "channel", problems)
    h0 = _parse_length(_take(ch, "h0", 6600.0), "channel.h0")
    c0 = _take_number(ch, "c0", 1.7e-14, "channel", problems)
    v_rms = _take_number(ch, "v_rms", 26.25, "channel", problems)
    mode_name = _take(ch, "fluctuation_mode", "deterministic")
    model_name = _take(ch, "aperture_model", "andrews")
    tropopause = _parse_length(_take(ch, "tropopause_height", 12_000.0), "channel.tropopause_height")
    theta_max = _take_number(ch, "theta_max_deg", 10.0, "channel", problems)
    variant_name = _take(ch, "scintillation_variant", "7/6")
    _reject_unknown(ch, "channel")

    sweep = _take(raw, "sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError("sweep must be an object")
    raw_diams = _take(sweep, "diameters", ["25 cm", "50 cm", "75 cm", "100 cm"])
    if not isinstance(raw_diams, list) or not raw_diams:
        raise ConfigError("sweep.diameters must be a non-empty list")
    diameters = tuple(_parse_length(d, "sweep.diameters") for d in raw_diams)
    zen_min = _parse_angle(_take(sweep, "zenith_min", -80.0), "sweep.zenith_min")
    zen_max = _parse_angle(_take(sweep, "zenith_max", 80.0), "sweep.zenith_max")
    zen_step = _parse_angle(_take(sweep, "zenith_step", 1.0), "sweep.zenith_step")
    draws = _take(sweep, "draws_per_point", 10_000)
    _reject_unknown(sweep, "sweep")

    tomo = _take(raw, "tomography", {})
    if not isinstance(tomo, dict):
        raise ConfigError("tomography must be an object")
    photons = _take(tomo, "photons", 200_000)
    ensemble_size = _take(tomo, "ensemble_size", 220)
    kind_name = _take(tomo, "ensemble_kind", "haar_pure")
    resample_name = _take(tomo, "fading_resample", "per_trial")
    _reject_unknown(tomo, "tomography")
    _reject_unknown(raw, "config")

    if satellite_altitude <= ogs_altitude:
        problems.append("geometry.satellite_altitude must exceed geometry.ogs_altitude")
    if ogs_altitude < 0:
        problems.append("geometry.ogs_altitude must be >= 0")
    if not 0.0 < zenith_limit < math.pi / 2:
        problems.append("geometry.zenith_limit must lie in (0, 90) degrees")
    if not earth_radius > 0:
        problems.append("geometry.earth_radius must be > 0")
    if not mu > 0:
        problems.append("geometry.mu must be > 0")
    if any(a <= ogs_altitude for a in altitudes):
        problems.append("geometry.altitudes must all exceed geometry.ogs_altitude")
    if not 0.0 < eta_int <= 1.0:
        problems.append("channel.eta_int must lie in (0, 1]")
    if alpha0 <= 0 or h0 <= 0:
        problems.append("channel.alpha0 and channel.h0 must be > 0")
    if c0 <= 0 or v_rms <= 0:
        problems.append("channel.c0 and channel.v_rms must be > 0")
    if wavelength <= 0 or waist <= 0:
        problems.append("channel.wavelength and channel.beam_waist must be > 0")
    if not 0.0 < theta_max < 90.0:
        problems.append("channel.theta_max_deg must lie in (0, 90)")
    if any(d <= 0 for d in diameters):
        problems.append("sweep.diameters must all be > 0")
    if abs(zen_min) > math.radians(80.0) + 1e-12 or abs(zen_max) > math.radians(80.0) + 1e-12:
        problems.append("sweep zenith bounds must lie within [-80, 80] degrees")
    if zen_max < zen_min:
        problems.append("sweep.zenith_max must be >= sweep.zenith_min")
    if zen_step <= 0:
        problems.append("sweep.zenith_step must be > 0")
    elif (zen_max - zen_min) / zen_step + 1e-9 >= MAX_ZENITH_POINTS:
        problems.append(
            f"sweep zenith grid would have {(zen_max - zen_min) / zen_step + 1:.6g} points;"
            f" at most {MAX_ZENITH_POINTS} are allowed"
        )
    if not _is_count(draws):
        problems.append("sweep.draws_per_point must be an integer >= 1")
    elif draws > MAX_DRAWS_PER_POINT:
        problems.append(f"sweep.draws_per_point must be at most {MAX_DRAWS_PER_POINT}")
    if not _is_count(photons):
        problems.append("tomography.photons must be an integer >= 1")
    if not _is_count(ensemble_size):
        problems.append("tomography.ensemble_size must be an integer >= 1")

    try:
        mode = FluctuationMode(mode_name)
    except ValueError:
        problems.append(f"channel.fluctuation_mode must be one of {[m.value for m in FluctuationMode]}")
        mode = FluctuationMode.DETERMINISTIC
    try:
        model_kind = ApertureModelKind(model_name)
    except ValueError:
        problems.append(f"channel.aperture_model must be one of {[m.value for m in ApertureModelKind]}")
        model_kind = ApertureModelKind.ANDREWS
    try:
        variant = ScintillationVariant(variant_name)
    except ValueError:
        problems.append(f"channel.scintillation_variant must be one of {[v.value for v in ScintillationVariant]}")
        variant = ScintillationVariant.SEVEN_SIXTHS
    try:
        kind = EnsembleKind(kind_name)
    except ValueError:
        problems.append(f"tomography.ensemble_kind must be one of {[k.value for k in EnsembleKind]}")
        kind = EnsembleKind.HAAR_PURE
    try:
        resample = FadingResample(resample_name)
    except ValueError:
        problems.append(f"tomography.fading_resample must be one of {[r.value for r in FadingResample]}")
        resample = FadingResample.PER_TRIAL

    if problems:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems))

    channel = ChannelParams(
        beam=BeamParams(wavelength_m=wavelength, waist_m=waist, receiver_radius_m=diameters[0] / 2.0),
        extinction=ExtinctionParams(alpha0_per_m=alpha0, h0_m=h0),
        turbulence=TurbulenceProfile(c0=c0, v_rms=v_rms, h_ogs_m=ogs_altitude),
        eta_int=eta_int,
        aperture_model=ApertureModel(kind=model_kind, tropopause_m=tropopause, theta_max_deg=theta_max),
        fluctuation_mode=mode,
        scintillation_variant=variant,
    )
    return ScenarioConfig(
        scenario=scenario,
        seed=seed,
        output_dir=output_dir,
        satellite_altitude_m=satellite_altitude,
        ogs_altitude_m=ogs_altitude,
        earth_radius_m=earth_radius,
        mu_m3_s2=float(mu),
        zenith_limit_rad=zenith_limit,
        altitudes_m=altitudes,
        channel=channel,
        diameters_m=diameters,
        zenith_min_rad=zen_min,
        zenith_max_rad=zen_max,
        zenith_step_rad=zen_step,
        draws_per_point=draws,
        photons=photons,
        ensemble_size=ensemble_size,
        ensemble_kind=kind,
        fading_resample=resample,
    )


def effective_config(cfg: ScenarioConfig) -> dict:
    """Normalized configuration document; parsing it again is a fixed point.

    Angles are emitted as exact-'rad' strings because a degrees round trip is
    not bit-exact for every float.
    """
    ch = cfg.channel
    return {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
        "geometry": {
            "satellite_altitude": cfg.satellite_altitude_m,
            "ogs_altitude": cfg.ogs_altitude_m,
            "earth_radius": cfg.earth_radius_m,
            "mu": cfg.mu_m3_s2,
            "zenith_limit": f"{cfg.zenith_limit_rad!r} rad",
            "altitudes": list(cfg.altitudes_m),
        },
        "channel": {
            "wavelength": ch.beam.wavelength_m,
            "beam_waist": ch.beam.waist_m,
            "eta_int": ch.eta_int,
            "alpha0": ch.extinction.alpha0_per_m,
            "h0": ch.extinction.h0_m,
            "c0": ch.turbulence.c0,
            "v_rms": ch.turbulence.v_rms,
            "fluctuation_mode": ch.fluctuation_mode.value,
            "aperture_model": ch.aperture_model.kind.value,
            "tropopause_height": ch.aperture_model.tropopause_m,
            "theta_max_deg": ch.aperture_model.theta_max_deg,
            "scintillation_variant": ch.scintillation_variant.value,
        },
        "sweep": {
            "diameters": list(cfg.diameters_m),
            "zenith_min": f"{cfg.zenith_min_rad!r} rad",
            "zenith_max": f"{cfg.zenith_max_rad!r} rad",
            "zenith_step": f"{cfg.zenith_step_rad!r} rad",
            "draws_per_point": cfg.draws_per_point,
        },
        "tomography": {
            "photons": cfg.photons,
            "ensemble_size": cfg.ensemble_size,
            "ensemble_kind": cfg.ensemble_kind.value,
            "fading_resample": cfg.fading_resample.value,
        },
    }


def emit_csv(header: list[str], rows: list[tuple], path: Path) -> None:
    """Write a result table with 9-significant-digit decimals, UTF-8, LF rows."""
    if not rows:
        raise ValueError(f"refusing to write empty table to {path}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(cell) for cell in row])
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _format_cell(cell) -> str:
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return format(float(cell), ".9g")
    return str(cell)


def _run_pass_time(cfg: ScenarioConfig, outdir: Path) -> list[Path]:
    rows = []
    for alt in cfg.altitudes_m:
        times = pass_times(alt, cfg.zenith_limit_rad, cfg.earth_radius_m, cfg.mu_m3_s2)
        rows.append((alt, math.degrees(cfg.zenith_limit_rad), times.total_s, times.effective_s))
    path = outdir / "pass_time.csv"
    emit_csv(["altitude_m", "zenith_limit_deg", "total_s", "effective_s"], rows, path)
    return [path]


def _run_av_sweep(cfg: ScenarioConfig, outdir: Path) -> list[Path]:
    table = av_vs_zenith(
        cfg.channel.aperture_model,
        cfg.satellite_altitude_m,
        cfg.diameters_m,
        cfg.zenith_grid_rad(),
        cfg.channel.beam.wavelength_m,
        profile=cfg.channel.turbulence,
        ogs_altitude_m=cfg.ogs_altitude_m,
        earth_radius_m=cfg.earth_radius_m,
    )
    rows = []
    for di, diam in enumerate(table.diameters_m):
        for zi, zen in enumerate(table.zenith_deg):
            rows.append((zen, diam, table.av[di, zi]))
    path = outdir / "av_sweep.csv"
    emit_csv(["zenith_deg", "diameter_m", "av_factor"], rows, path)
    return [path]


def _run_link_budget(cfg: ScenarioConfig, outdir: Path) -> list[Path]:
    result = sweep_pass(
        cfg.channel,
        cfg.satellite_altitude_m,
        cfg.diameters_m,
        cfg.zenith_grid_rad(),
        cfg.draws_per_point,
        cfg.seed,
        earth_radius_m=cfg.earth_radius_m,
    )
    rows = []
    for di, diam in enumerate(result.diameters_m):
        for zi, zen in enumerate(result.zenith_deg):
            rows.append(
                (
                    zen,
                    diam,
                    result.mean_loss_db[di, zi],
                    result.sd_loss_db[di, zi],
                    result.p05_db[di, zi],
                    result.p50_db[di, zi],
                    result.p95_db[di, zi],
                )
            )
    path = outdir / "link_budget.csv"
    emit_csv(
        ["zenith_deg", "diameter_m", "mean_loss_db", "sd_loss_db", "p05_db", "p50_db", "p95_db"],
        rows,
        path,
    )
    return [path]


def _run_qst(cfg: ScenarioConfig, outdir: Path) -> list[Path]:
    tomo = TomographyConfig(
        photons=cfg.photons,
        transmittance=1.0,
        ensemble_size=cfg.ensemble_size,
        seed=cfg.seed,
        ensemble_kind=cfg.ensemble_kind,
    )
    table = fidelity_vs_zenith(
        cfg.channel,
        cfg.satellite_altitude_m,
        cfg.diameters_m,
        cfg.zenith_grid_rad(),
        cfg.photons,
        tomo,
        resample=cfg.fading_resample,
        earth_radius_m=cfg.earth_radius_m,
    )
    rows = []
    for di, diam in enumerate(table.diameters_m):
        for zi, zen in enumerate(table.zenith_deg):
            rows.append(
                (
                    zen,
                    diam,
                    table.photons,
                    table.mean_fidelity[di, zi],
                    table.sd_fidelity[di, zi],
                    table.failures[di, zi],
                )
            )
    path = outdir / "qst_fidelity.csv"
    emit_csv(
        ["zenith_deg", "diameter_m", "photons", "mean_fidelity", "sd_fidelity", "failures"],
        rows,
        path,
    )
    return [path]


_RUNNERS = {
    "pass_time": _run_pass_time,
    "av_sweep": _run_av_sweep,
    "link_budget": _run_link_budget,
    "qst": _run_qst,
}


def run(cfg: ScenarioConfig) -> list[Path]:
    """Execute a scenario; returns the paths written (manifest last)."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    written = _RUNNERS[cfg.scenario](cfg, outdir)
    manifest = {
        "config": effective_config(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "wall_time_s": time.time() - started,
        "outputs": [p.name for p in written],
    }
    manifest_path = outdir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written + [manifest_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fsolink",
        description="Optical satellite downlink budget and tomography experiments.",
    )
    parser.add_argument("--config", type=str, default=None, help="path to a JSON scenario config")
    parser.add_argument("--scenario", type=str, choices=SCENARIOS, default=None, help="override the config's scenario")
    parser.add_argument("--seed", type=int, default=None, help="override the config's seed")
    parser.add_argument("--out", type=str, default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                print(json.dumps({"error": "io", "detail": f"cannot read {args.config}: {exc}"}), file=sys.stderr)
                return 4
        else:
            text = "{}"
        cfg = parse_config(text)
        if args.scenario is not None:
            cfg = replace(cfg, scenario=args.scenario)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be a non-negative integer")
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, output_dir=args.out)
        written = run(cfg)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return 2
    except (QuadratureError, ArithmeticError, ValueError) as exc:
        print(json.dumps({"error": "numeric", "detail": str(exc)}), file=sys.stderr)
        return 3
    except OSError as exc:
        print(json.dumps({"error": "io", "detail": str(exc)}), file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
