"""Batch front-end: JSON scenario configs in, CSV tables + a JSON manifest out.

Configs are nested key-value documents; lengths and angles may be given
either as SI numbers (meters; degrees for angles) or as strings with an
explicit unit ("50 cm", "1.4 rad"). Internally everything is SI with radians.
Every key, with its kind and the ScenarioConfig field it fills, is one entry
of ``_TABLE``; parsing and the normalized echo both walk it. The default and
the bounds of a key are declared once, on that field.
Identical config + seed reproduces byte-identical CSV output on one machine
with one numpy version; tests/test_golden.py checks each x86 SIMD level the
CPU offers.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.

The ``fsolink`` command and ``python -m fsolink.cli`` run :func:`entry`: once
the outputs are in place, it exits without interpreter teardown. :func:`main`
does not, so in-process callers are unaffected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from . import __version__
from ._bounds import violated
from .budget import (
    LEO_ALTITUDE_M, ZENITH_BOUND_RAD, ChannelParams, FluctuationMode, channel_grid, sweep_pass
)
from .geometry import EARTH_MU_M3_S2, EARTH_RADIUS_M, pass_times
from .qst import EnsembleKind, FadingResample, TomographyConfig, fidelity_vs_zenith
from .turbulence import ApertureModelKind, ScintillationVariant

# Each scenario and the CSV file that its result table goes to.
SCENARIO_CSV = {"pass_time": "pass_time.csv", "av_sweep": "av_sweep.csv", "link_budget": "link_budget.csv",
                "qst": "qst_fidelity.csv"}
SCENARIOS = tuple(SCENARIO_CSV)

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


class ConfigError(ValueError):
    """Configuration document is malformed or violates an invariant."""


@dataclass(frozen=True)
class _Key:
    """One config key: dotted name, kind and ScenarioConfig field path.

    Kinds: "integer" (booleans excluded), "number" (finite), "length" (meters
    or a unit string), "angle" (degrees or a 'deg'/'rad' string, radians
    inside), "lengths" (a non-empty list of lengths, bounds per item), "enum"
    (a string among ``choices``, mapped to its value) and "string".
    """

    key: str
    kind: str
    field: str
    choices: dict | None = None


def _choices(options) -> dict:
    return {getattr(o, "value", o): o for o in options}


_TABLE = (
    _Key("scenario", "enum", "scenario", choices=_choices(SCENARIOS)),
    _Key("seed", "integer", "seed"),
    _Key("output_dir", "string", "output_dir"),
    _Key("geometry.satellite_altitude", "length", "satellite_altitude_m"),
    _Key("geometry.ogs_altitude", "length", "channel.turbulence.h_ogs_m"),
    _Key("geometry.earth_radius", "length", "earth_radius_m"),
    _Key("geometry.mu", "number", "mu_m3_s2"),
    _Key("geometry.zenith_limit", "angle", "zenith_limit_rad"),
    _Key("geometry.altitudes", "lengths", "altitudes_m"),
    _Key("channel.wavelength", "length", "channel.beam.wavelength_m"),
    _Key("channel.beam_waist", "length", "channel.beam.waist_m"),
    _Key("channel.eta_int", "number", "channel.eta_int"),
    _Key("channel.alpha0", "number", "channel.extinction.alpha0_per_m"),
    _Key("channel.h0", "length", "channel.extinction.h0_m"),
    _Key("channel.c0", "number", "channel.turbulence.c0"),
    _Key("channel.v_rms", "number", "channel.turbulence.v_rms"),
    _Key("channel.fluctuation_mode", "enum", "channel.fluctuation_mode", choices=_choices(FluctuationMode)),
    _Key("channel.aperture_model", "enum", "channel.aperture_model.kind", choices=_choices(ApertureModelKind)),
    _Key("channel.tropopause_height", "length", "channel.aperture_model.tropopause_m"),
    _Key("channel.theta_max_deg", "number", "channel.aperture_model.theta_max_deg"),
    _Key("channel.scintillation_variant", "enum", "channel.scintillation_variant",
         choices=_choices(ScintillationVariant)),
    _Key("sweep.diameters", "lengths", "diameters_m"),
    _Key("sweep.zenith_min", "angle", "zenith_min_rad"),
    _Key("sweep.zenith_max", "angle", "zenith_max_rad"),
    _Key("sweep.zenith_step", "angle", "zenith_step_rad"),
    _Key("sweep.draws_per_point", "integer", "draws_per_point"),
    _Key("tomography.photons", "integer", "tomography.photons"),
    _Key("tomography.ensemble_size", "integer", "tomography.ensemble_size"),
    _Key("tomography.ensemble_kind", "enum", "tomography.ensemble_kind", choices=_choices(EnsembleKind)),
    _Key("tomography.fading_resample", "enum", "tomography.fading_resample", choices=_choices(FadingResample)),
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


def _convert(spec: _Key, kind: str, value: Any, key: str, bounds, problems: list[str]) -> Any:
    """The ScenarioConfig value of one JSON value within ``bounds``, or None after recording each problem."""
    if kind == "lengths":
        if not isinstance(value, list) or not value:
            problems.append(f"{key} must be a non-empty list")
            return None
        items = [_convert(spec, "length", item, f"{key}[{i}]", bounds, problems) for i, item in enumerate(value)]
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
    if broken := violated(value, bounds):
        words, bound = broken
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
    """A run's settings in SI units; each field declares its config key's default and bounds.

    So does each field of ``channel`` and ``tomography``; a list's bounds hold for each item.
    """

    scenario: str = "link_budget"
    seed: int = field(default=0, metadata={"ge": 0})
    output_dir: str = "."
    satellite_altitude_m: float = LEO_ALTITUDE_M
    earth_radius_m: float = field(default=EARTH_RADIUS_M, metadata={"gt": 0.0})
    mu_m3_s2: float = field(default=EARTH_MU_M3_S2, metadata={"gt": 0.0})
    zenith_limit_rad: float = field(default=math.radians(80.0), metadata={"gt": 0.0, "lt": math.pi / 2})
    altitudes_m: tuple[float, ...] | None = None  # None: pass_time runs at satellite_altitude_m
    channel: ChannelParams = ChannelParams()
    diameters_m: tuple[float, ...] = field(default=(0.25, 0.5, 0.75, 1.0), metadata={"gt": 0.0})
    zenith_min_rad: float = field(
        default=-math.radians(80.0), metadata={"ge": -ZENITH_BOUND_RAD, "le": ZENITH_BOUND_RAD}
    )
    zenith_max_rad: float = field(
        default=math.radians(80.0), metadata={"ge": -ZENITH_BOUND_RAD, "le": ZENITH_BOUND_RAD}
    )
    zenith_step_rad: float = field(default=math.radians(1.0), metadata={"gt": 0.0})
    draws_per_point: int = field(default=10_000, metadata={"ge": 1, "le": MAX_DRAWS_PER_POINT})
    tomography: TomographyConfig = TomographyConfig()

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


def _declared(path: str) -> Field:
    """The field that a ScenarioConfig field path names: "channel.beam.waist_m" is BeamParams.waist_m."""
    owner = ScenarioConfig
    for name in path.split("."):
        declared = next(f for f in fields(owner) if f.name == name)
        owner = type(declared.default)
    return declared


def _filled(instance, tree: dict):
    """``instance`` with the values in ``tree`` in place of its fields; a nested dict fills a nested dataclass."""
    return replace(instance, **{
        name: _filled(getattr(instance, name), value) if isinstance(value, dict) else value
        for name, value in tree.items()
    })


def parse_config(document: str | dict) -> ScenarioConfig:
    """Validate a config document against the key table and the fields' bounds, and apply their defaults.

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
        declared = _declared(spec.field)
        value = declared.default
        if name in section:
            value = section.pop(name)
            if value is not None or declared.default is not None:
                value = _convert(spec, spec.kind, value, spec.key, declared.metadata, problems)
        if value is not None:
            values[spec.field] = value
    for section_name, section in sections.items():
        prefix = f"{section_name}." if section_name else ""
        problems += [f"unknown key {prefix}{name}" for name in section or ()]

    altitude, ogs, altitudes = (
        values.get(f) for f in ("satellite_altitude_m", "channel.turbulence.h_ogs_m", "altitudes_m")
    )
    if altitude is not None and ogs is not None and altitude <= ogs:
        problems.append("geometry.satellite_altitude must exceed geometry.ogs_altitude")
    if altitudes is not None and ogs is not None and any(a <= ogs for a in altitudes):
        problems.append("geometry.altitudes must all exceed geometry.ogs_altitude")
    # The channel grid takes half of each diameter as a receiver radius.
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

    return _filled(ScenarioConfig(), _nest(values.items()))


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
        elif spec.kind == "lengths" and value is not None:
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


def emit_csv(columns: dict[str, Any], path: Path) -> None:
    """Write a result table: a header of the column names, then row i from entry i of each 1-D column.

    Integer columns are written in decimal, all others to 9 significant
    digits; UTF-8, LF line ends, no quoting (no field holds a comma or quote).
    """
    values = [np.asarray(column) for column in columns.values()]
    lengths = [len(column) for column in values]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {dict(zip(columns, lengths))}")
    if not any(lengths):
        raise ValueError(f"refusing to write empty table to {path}")
    row_format = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.9g" for c in values)
    rows = map(row_format.__mod__, zip(*(c.tolist() for c in values)))
    _write_atomically(path, "\n".join([",".join(columns), *rows]) + "\n")


def result_table(cfg: ScenarioConfig) -> dict[str, Any]:
    """A scenario's results: each CSV column name, in order, with its 1-D column.

    pass_time has a row per altitude. A grid scenario has a row per cell of its one channel grid,
    diameter-major: zenith_deg, diameter_m, then the columns of its reduction (the reductions key
    their arrays by column name), each broadcast to the grid, so a scalar such as ``photons`` repeats.
    """
    if cfg.scenario == "pass_time":
        altitudes = cfg.altitudes_m or (cfg.satellite_altitude_m,)
        times = [pass_times(alt, cfg.zenith_limit_rad, cfg.earth_radius_m, cfg.mu_m3_s2) for alt in altitudes]
        return {
            "altitude_m": altitudes,
            "zenith_limit_deg": [math.degrees(cfg.zenith_limit_rad)] * len(times),
            "total_s": [t.total_s for t in times],
            "effective_s": [t.effective_s for t in times],
        }
    grid = channel_grid(
        cfg.channel, cfg.satellite_altitude_m, cfg.diameters_m, cfg.zenith_grid_rad(), earth_radius_m=cfg.earth_radius_m
    )
    if cfg.scenario == "av_sweep":
        values = {"av_factor": grid.av}
    elif cfg.scenario == "link_budget":
        values = sweep_pass(grid, cfg.draws_per_point, cfg.seed)
    else:
        values = {
            "photons": cfg.tomography.photons,
            **fidelity_vs_zenith(grid, cfg.tomography, cfg.seed),
        }
    n_diameters, n_zenith = grid.shape
    return {
        "zenith_deg": np.tile(np.degrees(grid.zenith_rad), n_diameters),
        "diameter_m": np.repeat(grid.diameters_m, n_zenith),
        **{name: np.broadcast_to(value, grid.shape).ravel() for name, value in values.items()},
    }


def run(cfg: ScenarioConfig) -> list[Path]:
    """Execute a scenario: write its :func:`result_table` to its CSV, then the manifest.

    Returns the two paths, manifest last; the CSV's name is the scenario's entry in
    ``SCENARIO_CSV``. Each file is renamed into place once complete, and a previous run's
    manifest is removed first, so a manifest always describes the CSV of the run that wrote it.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    started = time.perf_counter()
    csv_path = outdir / SCENARIO_CSV[cfg.scenario]
    emit_csv(result_table(cfg), csv_path)
    manifest = {
        "config": effective_config(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "outputs": [csv_path.name],
    }
    _write_atomically(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return [csv_path, manifest_path]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="fsolink", description="Optical satellite downlink budget and tomography experiments.")
    parser.add_argument("--config", type=str, default=None, help="path to a JSON scenario config")
    parser.add_argument(
        "--scenario", type=str, default=None, help=f"replace the config's scenario: {', '.join(SCENARIOS)}"
    )
    parser.add_argument("--seed", type=int, default=None, help="replace the config's seed")
    parser.add_argument("--out", type=str, default=None, help="replace the config's output_dir")

    try:
        args = parser.parse_args(argv)
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
        document = _decode(text)
        flags = {"scenario": args.scenario, "seed": args.seed, "output_dir": args.out}
        document.update((key, value) for key, value in flags.items() if value is not None)
        written = run(parse_config(document))
    except ConfigError as exc:
        _report("config", str(exc))
        return 2
    except (ArithmeticError, ValueError) as exc:
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

    The process ends with ``os._exit`` once stdout and stderr are flushed,
    skipping the teardown's collections and module clearing. Under a tracer
    or profiler it exits through ``sys.exit`` instead, so their exit hooks
    still run. SystemExit from ``--help`` and uncaught exceptions propagate
    as usual.
    """
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
