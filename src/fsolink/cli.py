"""Batch front-end: JSON scenario configs in, CSV tables + a JSON manifest out.

Configs are nested key-value documents; lengths and angles may be given
either as SI numbers (meters; degrees for angles) or as strings with an
explicit unit ("50 cm", "1.4 rad"). Internally everything is SI with radians.
Every key, with its kind, default, bounds and ScenarioConfig field, is one
entry of ``_TABLE``; parsing and the normalized echo both walk it.
Identical config + seed reproduces byte-identical CSV output.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.

The ``fsolink`` command and ``python -m fsolink.cli`` run :func:`entry`: it
freezes the import-time heap out of the garbage collector and, once the
outputs are in place, exits without interpreter teardown. :func:`main` does
neither, so in-process callers are unaffected.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from . import __version__
from .beam import BeamParams
from .budget import LEO_ALTITUDE_M, ChannelGrid, ChannelParams, FluctuationMode, channel_grid, sweep_pass
from .extinction import ExtinctionParams
from .geometry import EARTH_MU_M3_S2, EARTH_RADIUS_M, pass_times
from .qst import (
    MAX_ENSEMBLE_SIZE,
    MAX_PHOTONS,
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

# Each sweep worker holds one float64 buffer of this many draws (80 MB at the
# cap), and there is one worker per CPU.
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

# Bare angles are degrees; math.radians(x) is exactly x * (pi / 180).
_ANGLE_UNITS = {"deg": math.pi / 180.0, "rad": 1.0}

# The sweep may reach +/-80 degrees; the slack admits "80 deg" after rounding.
_ZENITH_BOUND = math.radians(80.0) + 1e-12


class ConfigError(ValueError):
    """Configuration document is malformed or violates an invariant."""


@dataclass(frozen=True)
class _Key:
    """One config key: dotted name, kind, JSON default, bounds and ScenarioConfig field.

    Kinds: "integer" (booleans excluded), "number" (finite), "length" (meters
    or a unit string), "angle" (degrees or a 'deg'/'rad' string, radians
    inside), "lengths" (a non-empty list of lengths, bounds per item), "enum"
    (a string among ``choices``, mapped to its value) and "string". Bounds are
    in SI units; a None default makes the key optional.
    """

    key: str
    kind: str
    default: Any
    field: str
    gt: float | None = None
    ge: float | None = None
    lt: float | None = None
    le: float | None = None
    choices: dict | None = None


def _choices(options) -> dict:
    return {getattr(o, "value", o): o for o in options}


_TABLE = (
    _Key("scenario", "enum", "link_budget", "scenario", choices=_choices(SCENARIOS)),
    _Key("seed", "integer", 0, "seed", ge=0),
    _Key("output_dir", "string", ".", "output_dir"),
    _Key("geometry.satellite_altitude", "length", LEO_ALTITUDE_M, "satellite_altitude_m"),
    _Key("geometry.ogs_altitude", "length", 65.0, "ogs_altitude_m", ge=0.0),
    _Key("geometry.earth_radius", "length", EARTH_RADIUS_M, "earth_radius_m", gt=0.0),
    _Key("geometry.mu", "number", EARTH_MU_M3_S2, "mu_m3_s2", gt=0.0),
    _Key("geometry.zenith_limit", "angle", 80.0, "zenith_limit_rad", gt=0.0, lt=math.pi / 2),
    _Key("geometry.altitudes", "lengths", None, "altitudes_m"),
    _Key("channel.wavelength", "length", 1550e-9, "channel.beam.wavelength_m", gt=0.0),
    _Key("channel.beam_waist", "length", 0.01, "channel.beam.waist_m", gt=0.0),
    _Key("channel.eta_int", "number", 0.4, "channel.eta_int", gt=0.0, le=1.0),
    _Key("channel.alpha0", "number", 5e-6, "channel.extinction.alpha0_per_m", gt=0.0),
    _Key("channel.h0", "length", 6600.0, "channel.extinction.h0_m", gt=0.0),
    _Key("channel.c0", "number", 1.7e-14, "channel.turbulence.c0", gt=0.0),
    _Key("channel.v_rms", "number", 26.25, "channel.turbulence.v_rms", gt=0.0),
    _Key("channel.fluctuation_mode", "enum", "deterministic", "channel.fluctuation_mode",
         choices=_choices(FluctuationMode)),
    _Key("channel.aperture_model", "enum", "andrews", "channel.aperture_model.kind",
         choices=_choices(ApertureModelKind)),
    _Key("channel.tropopause_height", "length", 12_000.0, "channel.aperture_model.tropopause_m", gt=0.0),
    _Key("channel.theta_max_deg", "number", 10.0, "channel.aperture_model.theta_max_deg", gt=0.0, lt=90.0),
    _Key("channel.scintillation_variant", "enum", "7/6", "channel.scintillation_variant",
         choices=_choices(ScintillationVariant)),
    _Key("sweep.diameters", "lengths", ["25 cm", "50 cm", "75 cm", "100 cm"], "diameters_m", gt=0.0),
    _Key("sweep.zenith_min", "angle", -80.0, "zenith_min_rad", ge=-_ZENITH_BOUND, le=_ZENITH_BOUND),
    _Key("sweep.zenith_max", "angle", 80.0, "zenith_max_rad", ge=-_ZENITH_BOUND, le=_ZENITH_BOUND),
    _Key("sweep.zenith_step", "angle", 1.0, "zenith_step_rad", gt=0.0),
    _Key("sweep.draws_per_point", "integer", 10_000, "draws_per_point", ge=1, le=MAX_DRAWS_PER_POINT),
    _Key("tomography.photons", "integer", 200_000, "photons", ge=1, le=MAX_PHOTONS),
    _Key("tomography.ensemble_size", "integer", 220, "ensemble_size", ge=1, le=MAX_ENSEMBLE_SIZE),
    _Key("tomography.ensemble_kind", "enum", "haar_pure", "ensemble_kind", choices=_choices(EnsembleKind)),
    _Key("tomography.fading_resample", "enum", "per_trial", "fading_resample", choices=_choices(FadingResample)),
)

_BOUND_TESTS = (
    ("gt", "greater than", lambda value, bound: value > bound),
    ("ge", "at least", lambda value, bound: value >= bound),
    ("lt", "less than", lambda value, bound: value < bound),
    ("le", "at most", lambda value, bound: value <= bound),
)


def _is_finite(value: int | float) -> bool:
    """False for NaN, +/-Infinity and integers beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _quantity(value: Any, key: str, units: dict[str, float], bare_scale: float, problems: list[str]) -> float | None:
    """SI value of a bare number (times ``bare_scale``) or a '<number> <unit>' string."""
    if isinstance(value, str):
        parts = value.split()
        magnitude = None
        if len(parts) == 2 and parts[1] in units:
            scale = units[parts[1]]
            try:
                magnitude = float(parts[0])
            except ValueError:
                pass
        if magnitude is None:
            problems.append(f"{key}: cannot parse {value!r} (units: {', '.join(units)})")
            return None
    elif _is_number(value):
        magnitude, scale = value, bare_scale
    else:
        problems.append(f"{key} must be a number or a unit string, got {type(value).__name__}")
        return None
    if not _is_finite(magnitude) or not math.isfinite(si := float(magnitude) * scale):
        problems.append(f"{key} must be finite, got {value!r}")
        return None
    return si


def _convert(spec: _Key, kind: str, value: Any, key: str, problems: list[str]) -> Any:
    """The ScenarioConfig value of one JSON value, or None after recording each problem."""
    if kind == "lengths":
        if not isinstance(value, list) or not value:
            problems.append(f"{key} must be a non-empty list")
            return None
        items = [_convert(spec, "length", item, f"{key}[{i}]", problems) for i, item in enumerate(value)]
        return None if None in items else tuple(items)
    if kind == "enum":
        if isinstance(value, str) and value in spec.choices:
            return spec.choices[value]
        problems.append(f"{key} must be one of {list(spec.choices)}, got {value!r}")
        return None
    if kind == "string":
        if isinstance(value, str):
            return value
        problems.append(f"{key} must be a string, got {type(value).__name__}")
        return None
    if kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            problems.append(f"{key} must be an integer, got {type(value).__name__}")
            return None
    elif kind == "number":
        if not _is_number(value):
            problems.append(f"{key} must be a number, got {type(value).__name__}")
            return None
        if not _is_finite(value):
            problems.append(f"{key} must be a finite number")
            return None
    elif kind == "length":
        value = _quantity(value, key, _LENGTH_UNITS, 1.0, problems)
        if value is None:
            return None
        if abs(value) > MAX_LENGTH_M:
            problems.append(f"{key}: length {value:g} m exceeds {MAX_LENGTH_M:g} m in magnitude")
            return None
    else:  # angle
        value = _quantity(value, key, _ANGLE_UNITS, _ANGLE_UNITS["deg"], problems)
        if value is None:
            return None
    for name, words, within in _BOUND_TESTS:
        bound = getattr(spec, name)
        if bound is not None and not within(value, bound):
            shown = {"length": f"{bound:g} m", "angle": f"{math.degrees(bound):g} deg"}.get(kind, bound)
            problems.append(f"{key} must be {words} {shown}")
            return None
    return value


def _nest(pairs) -> dict:
    """Nested dicts from (dotted name, value) pairs: ("a.b", 1) -> {"a": {"b": 1}}."""
    tree: dict = {}
    for dotted, value in pairs:
        *parents, leaf = dotted.split(".")
        node = tree
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
    return tree


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
        # of zenith_max. The 1e-9 tolerance can put the last point just past
        # zenith_max, so points beyond it are set to it (np.minimum would also
        # turn a 0.0 point into a -0.0 zenith_max).
        n = math.floor((self.zenith_max_rad - self.zenith_min_rad) / self.zenith_step_rad + 1e-9)
        grid = self.zenith_min_rad + self.zenith_step_rad * np.arange(n + 1)
        return np.where(grid > self.zenith_max_rad, self.zenith_max_rad, grid)


def _decode(document: str | dict) -> dict:
    try:
        text = document if isinstance(document, str) else json.dumps(document)
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer longer than Python's int-string limit
        raise ConfigError(f"config cannot be decoded: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return raw


def parse_config(document: str | dict) -> ScenarioConfig:
    """Validate a config document against the key table and apply defaults.

    Accepts raw JSON text or an already-decoded mapping. Every problem is
    collected (unknown keys by name, values of the wrong kind or out of
    bounds, then the cross-key rules on the keys that passed) and reported
    in one ConfigError: a single problem as its own line, several as
    "invalid configuration:" followed by one line each.
    """
    root = _decode(document)  # freshly decoded, so its sections may be consumed
    problems: list[str] = []
    sections: dict[str, dict | None] = {"": root}
    values: dict[str, Any] = {}
    for spec in _TABLE:
        section_name, _, name = spec.key.rpartition(".")
        if section_name not in sections:
            section = root.pop(section_name, {})
            if not isinstance(section, dict):
                problems.append(f"{section_name} must be an object, got {type(section).__name__}")
            sections[section_name] = section if isinstance(section, dict) else None
        section = sections[section_name]
        if section is None:
            continue
        value = section.pop(name, spec.default)
        if value is None and spec.default is None:
            continue
        converted = _convert(spec, spec.kind, value, spec.key, problems)
        if converted is not None:
            values[spec.field] = converted
    for section_name, section in sections.items():
        prefix = f"{section_name}." if section_name else ""
        problems += [f"unknown key {prefix}{name}" for name in section or ()]

    altitude, ogs, altitudes = (values.get(f) for f in ("satellite_altitude_m", "ogs_altitude_m", "altitudes_m"))
    if altitude is not None and ogs is not None and altitude <= ogs:
        problems.append("geometry.satellite_altitude must exceed geometry.ogs_altitude")
    if altitudes is not None and ogs is not None and any(a <= ogs for a in altitudes):
        problems.append("geometry.altitudes must all exceed geometry.ogs_altitude")
    # The beams take half of each diameter as their receiver radius.
    problems += [
        f"sweep.diameters[{i}]: the receiver radius {diameter!r} m / 2 underflows to 0"
        for i, diameter in enumerate(values.get("diameters_m", ())) if diameter / 2.0 == 0.0
    ]
    zen_min, zen_max, zen_step = (values.get(f) for f in ("zenith_min_rad", "zenith_max_rad", "zenith_step_rad"))
    if zen_min is not None and zen_max is not None:
        if zen_max < zen_min:
            problems.append("sweep.zenith_max must be >= sweep.zenith_min")
        elif zen_step is not None and (zen_max - zen_min) / zen_step + 1e-9 >= MAX_ZENITH_POINTS:
            problems.append(
                f"sweep.zenith_step gives a zenith grid of {(zen_max - zen_min) / zen_step + 1:.6g} points;"
                f" at most {MAX_ZENITH_POINTS} are allowed"
            )
    if len(problems) == 1:
        raise ConfigError(problems[0])
    if problems:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems))

    fields = _nest(values.items())
    fields.setdefault("altitudes_m", (fields["satellite_altitude_m"],))
    ch = fields["channel"]
    fields["channel"] = ChannelParams(
        beam=BeamParams(receiver_radius_m=fields["diameters_m"][0] / 2.0, **ch.pop("beam")),
        extinction=ExtinctionParams(**ch.pop("extinction")),
        turbulence=TurbulenceProfile(h_ogs_m=fields["ogs_altitude_m"], **ch.pop("turbulence")),
        aperture_model=ApertureModel(**ch.pop("aperture_model")),
        **ch,
    )
    return ScenarioConfig(**fields)


def effective_config(cfg: ScenarioConfig) -> dict:
    """Normalized configuration document; parsing it again is a fixed point.

    Angles are emitted as exact-'rad' strings because a degrees round trip is
    not bit-exact for every float.
    """
    pairs = []
    for spec in _TABLE:
        value = cfg
        for name in spec.field.split("."):
            value = getattr(value, name)
        if spec.kind == "angle":
            value = f"{value!r} rad"
        elif spec.kind == "lengths":
            value = list(value)
        elif spec.kind == "enum":
            value = next(name for name, option in spec.choices.items() if option == value)
        pairs.append((spec.key, value))
    return _nest(pairs)


def _write_atomically(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it into place.

    A reader sees the old file or the complete new one, never a partial
    write; on failure the temp file is removed and the OSError names ``path``.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def emit_csv(header: list[str], columns: list, path: Path) -> None:
    """Write a result table: one 1-D column per header name, row i from entry i of each.

    Integer columns are written in decimal, all others to 9 significant
    digits; UTF-8, LF line ends, no quoting (no field holds a comma or quote).
    """
    columns = [np.asarray(column) for column in columns]
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1 or len(columns) != len(header):
        raise ValueError(f"{path}: {len(header)} header names for columns of lengths {lengths}")
    if not any(lengths):
        raise ValueError(f"refusing to write empty table to {path}")
    fields = [
        map(str, c.tolist()) if np.issubdtype(c.dtype, np.integer) else [format(x, ".9g") for x in c.tolist()]
        for c in columns
    ]
    _write_atomically(path, "\n".join([",".join(header), *map(",".join, zip(*fields))]) + "\n")


def _run_pass_time(cfg: ScenarioConfig, outdir: Path) -> Path:
    times = [pass_times(alt, cfg.zenith_limit_rad, cfg.earth_radius_m, cfg.mu_m3_s2) for alt in cfg.altitudes_m]
    limit_deg = [math.degrees(cfg.zenith_limit_rad)] * len(times)
    path = outdir / "pass_time.csv"
    header = ["altitude_m", "zenith_limit_deg", "total_s", "effective_s"]
    emit_csv(header, [cfg.altitudes_m, limit_deg, [t.total_s for t in times], [t.effective_s for t in times]], path)
    return path


def _emit_grid(grid: ChannelGrid, columns: dict[str, Any], path: Path) -> Path:
    """One row per grid cell, diameter-major: zenith_deg, diameter_m, then ``columns``.

    Each column is an (nD, nZ) array or a scalar repeated on every row.
    """
    n_diameters, n_zenith = grid.shape
    axes = [np.tile(np.degrees(grid.zenith_rad), n_diameters), np.repeat(grid.diameters_m, n_zenith)]
    values = [np.broadcast_to(column, grid.shape).ravel() for column in columns.values()]
    emit_csv(["zenith_deg", "diameter_m", *columns], axes + values, path)
    return path


def _grid_columns(cfg: ScenarioConfig, grid: ChannelGrid) -> dict[str, Any]:
    """A grid scenario's columns beside the grid axes; result fields are named as the columns."""
    if cfg.scenario == "av_sweep":
        return {"av_factor": grid.av}
    if cfg.scenario == "link_budget":
        return vars(sweep_pass(grid, cfg.draws_per_point, cfg.seed))
    tomography = TomographyConfig(
        photons=cfg.photons, ensemble_size=cfg.ensemble_size, seed=cfg.seed, ensemble_kind=cfg.ensemble_kind
    )
    return {"photons": cfg.photons, **vars(fidelity_vs_zenith(grid, tomography, resample=cfg.fading_resample))}


_GRID_CSV = {"av_sweep": "av_sweep.csv", "link_budget": "link_budget.csv", "qst": "qst_fidelity.csv"}


def run(cfg: ScenarioConfig) -> list[Path]:
    """Execute a scenario; returns the paths written (manifest last).

    The grid scenarios share one channel grid per run. Every file is renamed
    into place once complete, and a previous run's manifest is removed
    first, so a manifest always describes the CSVs of the run that wrote it.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    started = time.perf_counter()
    if cfg.scenario == "pass_time":
        written = [_run_pass_time(cfg, outdir)]
    else:
        grid = channel_grid(
            cfg.channel,
            cfg.satellite_altitude_m,
            cfg.diameters_m,
            cfg.zenith_grid_rad(),
            earth_radius_m=cfg.earth_radius_m,
        )
        written = [_emit_grid(grid, _grid_columns(cfg, grid), outdir / _GRID_CSV[cfg.scenario])]
    manifest = {
        "config": effective_config(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "outputs": [p.name for p in written],
    }
    _write_atomically(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
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
                _report("io", f"cannot read {args.config}: {exc}")
                return 4
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config} is not valid UTF-8: {exc.reason} at byte offset {exc.start}") from exc
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
        _report("config", str(exc))
        return 2
    except (QuadratureError, ArithmeticError, ValueError) as exc:
        _report("numeric", str(exc))
        return 3
    except OSError as exc:
        _report("io", str(exc))
        return 4
    try:
        for path in written:
            print(path)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        _report("io", f"cannot print the output paths: {exc}")
        return 4
    return 0


def _report(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _observed() -> bool:
    """Whether a tracer or profiler (coverage, cProfile, a debugger) is attached."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def entry() -> NoReturn:
    """Run :func:`main` as a process: the console script and ``python -m fsolink.cli``.

    The objects alive after the imports live until exit, so they are frozen
    out of every garbage collection, and the process ends with ``os._exit``
    once stdout and stderr are flushed, skipping the teardown's collections
    and module clearing. Under a tracer or profiler it exits through
    ``sys.exit`` instead, so their exit hooks still run. SystemExit from
    argument parsing and uncaught exceptions propagate as usual.
    """
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # main() has reported the closed pipe and returned 4. The unwritten
        # paths stay buffered, so stdout goes to /dev/null for the next flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
