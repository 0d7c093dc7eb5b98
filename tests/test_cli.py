import csv
import gc
import inspect
import io
import json
import math
import os
import pstats
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fsolink
from fsolink import budget, cli
from fsolink.beam import BeamParams
from fsolink.budget import ChannelParams, FluctuationMode, sweep_pass
from fsolink.cli import (
    _TABLE,
    SCENARIOS,
    MAX_DRAWS_PER_POINT,
    MAX_LENGTH_M,
    MAX_ZENITH_POINTS,
    ConfigError,
    ScenarioConfig,
    effective_config,
    emit_csv,
    main,
    parse_config,
    run,
)
from fsolink.extinction import ExtinctionParams
from fsolink.geometry import pass_times
from fsolink.qst import MAX_ENSEMBLE_SIZE, MAX_PHOTONS, TomographyConfig, fidelity_vs_zenith
from fsolink.turbulence import ApertureModel, TurbulenceProfile

README = Path(__file__).resolve().parent.parent / "README.md"


class TestParseConfig:
    def test_empty_document_uses_table_defaults(self):
        cfg = parse_config("")
        assert cfg.channel.beam.wavelength_m == pytest.approx(1550e-9)
        assert cfg.channel.beam.waist_m == pytest.approx(0.01)
        assert cfg.channel.turbulence.h_ogs_m == pytest.approx(65.0)
        assert cfg.channel.turbulence.c0 == pytest.approx(1.7e-14)
        assert cfg.channel.turbulence.v_rms == pytest.approx(26.25)
        assert cfg.channel.eta_int == pytest.approx(0.4)
        assert cfg.satellite_altitude_m == pytest.approx(420e3)
        assert cfg.channel.fluctuation_mode is FluctuationMode.DETERMINISTIC

    def test_defaults_match_the_library(self):
        cfg = parse_config("{}")
        assert cfg.channel == ChannelParams()
        assert cfg.tomography == TomographyConfig()
        assert cfg.draws_per_point == inspect.signature(sweep_pass).parameters["draws_per_point"].default
        assert cfg.fading_resample == inspect.signature(fidelity_vs_zenith).parameters["resample"].default
        assert cfg.zenith_limit_rad == inspect.signature(pass_times).parameters["zenith_limit_rad"].default

    def test_unit_strings_normalize_to_si(self):
        cfg = parse_config(
            json.dumps(
                {
                    "geometry": {"satellite_altitude": "420 km", "ogs_altitude": "65 m"},
                    "channel": {"wavelength": "1550 nm", "beam_waist": "1 cm"},
                    "sweep": {"diameters": ["50 cm"], "zenith_step": "2 deg"},
                }
            )
        )
        assert cfg.satellite_altitude_m == pytest.approx(420e3)
        assert cfg.channel.beam.wavelength_m == pytest.approx(1.55e-6)
        assert cfg.diameters_m[0] == pytest.approx(0.5)
        assert cfg.zenith_step_rad == pytest.approx(math.radians(2.0))

    def test_angles_accept_radians_suffix(self):
        cfg = parse_config(json.dumps({"geometry": {"zenith_limit": "1.2 rad"}}))
        assert cfg.zenith_limit_rad == pytest.approx(1.2)

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigError, match="zenith_limt"):
            parse_config(json.dumps({"geometry": {"zenith_limt": 80}}))
        with pytest.raises(ConfigError, match="chanel"):
            parse_config(json.dumps({"chanel": {}}))

    def test_out_of_range_zenith_limit(self):
        with pytest.raises(ConfigError, match="zenith_limit"):
            parse_config(json.dumps({"geometry": {"zenith_limit": 95}}))

    def test_all_violations_reported_together(self):
        doc = {"channel": {"eta_int": 2.0, "c0": -1.0}, "tomography": {"photons": 0}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        message = str(err.value)
        assert "eta_int" in message and "c0" in message and "photons" in message

    def test_every_bad_value_is_listed_on_its_own_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "geometry": {"satellite_altitude": 1e300},
            "sweep": {"diameters": [1e200]},
            "channel": {"wavelength": "5 furlongs"},
        }))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        header, *lines = json.loads(capsys.readouterr().err)["detail"].splitlines()
        assert header == "invalid configuration:"
        assert len(lines) == 3 and all(line.startswith("  - ") for line in lines)
        for key in ("geometry.satellite_altitude", "sweep.diameters", "channel.wavelength"):
            assert any(key in line for line in lines)
        assert not (tmp_path / "out").exists()

    def test_readme_example_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = json.loads(readme.split("### Config document", 1)[1].split("```json\n", 1)[1].split("```", 1)[0])
        keys = set()
        for name, value in example.items():
            keys |= {f"{name}.{sub}" for sub in value} if isinstance(value, dict) else {name}
        assert keys == {spec.key for spec in _TABLE}

    def test_an_integer_beyond_the_float_range_passes_its_bounds(self):
        assert parse_config({"seed": 10**400}).seed == 10**400

    def test_inclusive_bounds_accept_their_edges(self):
        cfg = parse_config({
            "seed": 0,
            "geometry": {"ogs_altitude": 0},
            "channel": {"eta_int": 1},
            "sweep": {"zenith_min": "-80 deg", "zenith_max": "80 deg", "draws_per_point": 1},
            "tomography": {"photons": 1, "ensemble_size": 1},
        })
        assert (cfg.seed, cfg.channel.turbulence.h_ogs_m, cfg.channel.eta_int) == (0, 0.0, 1)
        assert (cfg.zenith_min_rad, cfg.zenith_max_rad) == (-math.radians(80), math.radians(80))
        assert (cfg.draws_per_point, cfg.tomography.photons, cfg.tomography.ensemble_size) == (1, 1, 1)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config('{"scenario": }')

    def test_bad_unit_string(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config(json.dumps({"channel": {"wavelength": "1550 lightyears"}}))

    def test_round_trip_is_fixed_point(self):
        doc = {
            "scenario": "av_sweep",
            "seed": 13,
            "geometry": {"satellite_altitude": "500 km"},
            "channel": {"fluctuation_mode": "psi", "aperture_model": "giggenbach"},
            "sweep": {"diameters": ["20 cm", "1 m"], "zenith_step": 5},
        }
        cfg = parse_config(json.dumps(doc))
        again = parse_config(effective_config(cfg))
        assert again == cfg
        assert effective_config(again) == effective_config(cfg)


TINY = math.ulp(0.0)

# Each bounded library field with its config key, the values just past its
# bounds, and its inclusive edges (or, past an exclusive bound, the nearest
# value inside it). NaN and +/-inf break every field's bounds too.
LIBRARY_BOUNDS = [
    (BeamParams, "wavelength_m", "channel.wavelength", [0.0], [TINY]),
    (BeamParams, "waist_m", "channel.beam_waist", [0.0], [TINY]),
    (ExtinctionParams, "alpha0_per_m", "channel.alpha0", [0.0], [TINY]),
    (ExtinctionParams, "h0_m", "channel.h0", [0.0], [TINY]),
    (TurbulenceProfile, "c0", "channel.c0", [0.0], [TINY]),
    (TurbulenceProfile, "v_rms", "channel.v_rms", [0.0], [TINY]),
    (TurbulenceProfile, "h_ogs_m", "geometry.ogs_altitude", [-TINY], [0.0]),
    (ApertureModel, "tropopause_m", "channel.tropopause_height", [0.0], [TINY]),
    (ApertureModel, "theta_max_deg", "channel.theta_max_deg", [0.0, 90.0], [TINY, math.nextafter(90.0, 0.0)]),
    (ChannelParams, "eta_int", "channel.eta_int", [0.0, math.nextafter(1.0, 2.0)], [TINY, 1.0]),
    (TomographyConfig, "photons", "tomography.photons", [0, MAX_PHOTONS + 1], [1, MAX_PHOTONS]),
    (TomographyConfig, "ensemble_size", "tomography.ensemble_size", [0, MAX_ENSEMBLE_SIZE + 1], [1, MAX_ENSEMBLE_SIZE]),
]


@pytest.mark.parametrize(
    "cls, name, key, rejected, accepted", LIBRARY_BOUNDS, ids=[f"{c.__name__}.{n}" for c, n, *_ in LIBRARY_BOUNDS]
)
def test_library_fields_reject_nan_and_values_past_their_bounds(cls, name, key, rejected, accepted):
    section, leaf = key.split(".")
    for value in [math.nan, math.inf, -math.inf, *rejected]:
        with pytest.raises(ValueError, match=rf"^{name} must be (greater than|at least|less than|at most) \S+$"):
            cls(**{name: value})
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}\b"):
            parse_config(json.dumps({section: {leaf: value}}))
    for value in accepted:
        assert getattr(cls(**{name: value}), name) == value
        parse_config(json.dumps({section: {leaf: value}}))


class TestEmitCsv:
    def test_writes_units_in_header_and_9_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv({"zenith_deg": [10.0], "loss_db": [1.0 / 3.0]}, path)
        text = path.read_text(encoding="utf-8")
        assert text == "zenith_deg,loss_db\n10,0.333333333\n"
        # Integers in decimal, everything else to 9 significant digits.
        emit_csv(
            {
                "count": np.array([0, -7, 42, 10**15, 2**63 - 1], dtype=np.int64),
                "photons": np.broadcast_to(200_000, (1, 5)).ravel(),
                "value": [1.0 / 3.0, 1e-300, 123456789.5, -0.0, math.inf],
            },
            path,
        )
        assert path.read_text(encoding="utf-8") == (
            "count,photons,value\n"
            "0,200000,0.333333333\n"
            "-7,200000,1e-300\n"
            "42,200000,123456790\n"
            "1000000000000000,200000,-0\n"
            "9223372036854775807,200000,inf\n"
        )

    def test_empty_table_is_an_error_and_writes_nothing(self, tmp_path):
        path = tmp_path / "t.csv"
        for columns in ({"a": []}, {}):
            with pytest.raises(ValueError, match="refusing to write empty table"):
                emit_csv(columns, path)
        assert not path.exists()

    def test_columns_of_unequal_length_are_an_error_and_write_nothing(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"columns of unequal lengths \{'a': 2, 'b': 1\}"):
            emit_csv({"a": [1, 2], "b": [3]}, path)
        assert not path.exists()

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def no_rename(src, dst):
            raise OSError("rename refused")

        path = tmp_path / "t.csv"
        emit_csv({"a": [1]}, path)
        monkeypatch.setattr(cli.os, "replace", no_rename)
        with pytest.raises(OSError, match="rename refused"):
            emit_csv({"a": [2]}, path)
        assert path.read_text(encoding="utf-8") == "a\n1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_failed_manifest_write_names_the_manifest(self, tmp_path, monkeypatch, capsys):
        real_replace = os.replace

        def no_manifest_rename(src, dst):
            if Path(dst).name == "manifest.json":
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", no_manifest_rename)
        assert main(["--scenario", "pass_time", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "io", "detail": f"cannot write {tmp_path / 'manifest.json'}: rename refused"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pass_time.csv"]

    def test_grid_rows_are_diameter_major_and_repeat_scalar_columns(self, tmp_path, monkeypatch):
        def cell_numbers(grid, draws_per_point, seed):
            assert grid.shape == (2, 3)
            return SimpleNamespace(cell=np.arange(6).reshape(2, 3), photons=7)

        monkeypatch.setattr(cli, "sweep_pass", cell_numbers)
        cfg = parse_config({"sweep": {"diameters": [0.25, 0.5], "zenith_min": -10, "zenith_max": 10, "zenith_step": 10}})
        path = tmp_path / "grid.csv"
        emit_csv(cli.result_table(cfg), path)
        assert path.read_text(encoding="utf-8") == (
            "zenith_deg,diameter_m,cell,photons\n"
            "-10,0.25,0,7\n"
            "0,0.25,1,7\n"
            "10,0.25,2,7\n"
            "-10,0.5,3,7\n"
            "0,0.5,4,7\n"
            "10,0.5,5,7\n"
        )


def _run_scenario(tmp_path, doc):
    doc = dict(doc)
    doc["output_dir"] = str(tmp_path)
    cfg = parse_config(json.dumps(doc))
    return cfg, run(cfg)


class TestRun:
    def test_pass_time_row_matches_quoted_values(self, tmp_path):
        _, written = _run_scenario(
            tmp_path, {"scenario": "pass_time", "geometry": {"satellite_altitude": "500 km"}}
        )
        with open(written[0], encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["total_s"]) == pytest.approx(700.0, rel=0.10)
        assert float(row["effective_s"]) == pytest.approx(450.0, rel=0.10)

    def test_link_budget_schema_and_zenith_window(self, tmp_path):
        doc = {
            "scenario": "link_budget",
            "sweep": {"diameters": ["100 cm"], "zenith_min": 0, "zenith_max": 0, "zenith_step": 1},
        }
        _, written = _run_scenario(tmp_path, doc)
        with open(written[0], encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "zenith_deg", "diameter_m", "mean_loss_db", "sd_loss_db", "p05_db", "p50_db", "p95_db",
            ]
            row = next(reader)
        assert float(row["mean_loss_db"]) == pytest.approx(33.4628, abs=1e-3)

    def test_qst_schema(self, tmp_path):
        doc = {
            "scenario": "qst",
            "sweep": {"diameters": ["100 cm"], "zenith_min": 0, "zenith_max": 0, "zenith_step": 1},
            "tomography": {"photons": 100000, "ensemble_size": 2},
        }
        _, written = _run_scenario(tmp_path, doc)
        with open(written[0], encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "zenith_deg", "diameter_m", "photons", "mean_fidelity", "sd_fidelity", "failures",
            ]
            row = next(reader)
        assert 0.0 <= float(row["mean_fidelity"]) <= 1.0

    def test_av_sweep_values(self, tmp_path):
        doc = {
            "scenario": "av_sweep",
            "geometry": {"ogs_altitude": 0},
            "sweep": {"diameters": ["50 cm"], "zenith_min": 0, "zenith_max": 0, "zenith_step": 1},
        }
        _, written = _run_scenario(tmp_path, doc)
        with open(written[0], encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["av_factor"]) == pytest.approx(0.561249544, abs=1e-8)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_declared_defaults_run_and_echo_unset_altitudes_as_null(self, tmp_path, scenario):
        csv_name = {
            "pass_time": "pass_time.csv",
            "av_sweep": "av_sweep.csv",
            "link_budget": "link_budget.csv",
            "qst": "qst_fidelity.csv",
        }[scenario]
        # The header is the scenario's "Columns:" list in README's Scenarios section.
        columns = re.search(rf"^\* `{scenario}`:[^*]*?Columns: `([^`]*)`", README.read_text(encoding="utf-8"), re.M)
        header = ",".join(columns[1].split(", "))
        # A coarse grid and a small ensemble keep qst quick; altitudes_m keeps its declared default.
        cfg = ScenarioConfig(
            scenario=scenario,
            output_dir=str(tmp_path),
            zenith_step_rad=math.radians(40.0),
            tomography=TomographyConfig(ensemble_size=5),
        )
        assert cfg.altitudes_m is None
        written = run(cfg)
        assert [p.name for p in written] == [csv_name, "manifest.json"]
        assert written[0].read_text(encoding="utf-8").split("\n", 1)[0] == header
        manifest = json.loads(written[-1].read_text())
        assert manifest["outputs"] == [csv_name]
        echo = manifest["config"]
        assert echo["geometry"]["altitudes"] is None
        assert parse_config(echo) == cfg
        if scenario == "pass_time":
            with open(written[0], encoding="utf-8") as fh:
                assert [float(row["altitude_m"]) for row in csv.DictReader(fh)] == [cfg.satellite_altitude_m]

    def test_manifest_records_config_seed_and_version(self, tmp_path):
        cfg, written = _run_scenario(tmp_path, {"scenario": "pass_time", "seed": 5})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["version"]
        assert manifest["wall_time_s"] >= 0.0
        assert parse_config(manifest["config"]) == cfg

    def test_failed_rerun_leaves_no_manifest_and_no_temp_file(self, tmp_path, monkeypatch, capsys):
        args = ["--scenario", "pass_time", "--out", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / "manifest.json").exists()
        real = cli.emit_csv

        def fails_after_the_csv(columns, path):
            real(columns, path)
            raise ValueError("failed after the table")

        monkeypatch.setattr(cli, "emit_csv", fails_after_the_csv)
        assert main(args) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pass_time.csv"]

    @pytest.mark.parametrize(
        "doc",
        [
            {
                "scenario": "link_budget",
                "seed": 99,
                "channel": {"fluctuation_mode": "isi"},
                "sweep": {"diameters": ["50 cm"], "zenith_min": -40, "zenith_max": 40, "zenith_step": 20,
                          "draws_per_point": 200},
            },
            {"scenario": "qst", "seed": 11, "sweep": {"zenith_step": 40}, "tomography": {"ensemble_size": 20}},
            {
                "scenario": "qst",
                "seed": 11,
                "channel": {"fluctuation_mode": "psi"},
                "sweep": {"zenith_step": 40},
                "tomography": {"ensemble_size": 20, "ensemble_kind": "bures_mixed"},
            },
            # 64,004 rows through the threaded sweep and the CSV writer.
            {
                "scenario": "link_budget",
                "seed": 5,
                "channel": {"fluctuation_mode": "psi", "aperture_model": "yura"},
                "sweep": {"zenith_step": 0.01, "draws_per_point": 1},
            },
        ],
        ids=["isi_budget", "qst_haar", "qst_psi_bures", "psi_yura_budget_64k_rows"],
    )
    def test_identical_config_and_seed_reproduce_bytes(self, tmp_path, monkeypatch, doc):
        def table(out):
            return run(parse_config({**doc, "output_dir": str(tmp_path / out)}))[0].read_bytes()

        # Twice on every CPU the process may use, then with the sweep on one worker.
        first, second = table("a"), table("b")
        monkeypatch.setattr(budget, "_worker_count", lambda: 1)
        assert first == second == table("one_worker")


class TestMain:
    def test_exit_zero_and_prints_outputs(self, tmp_path, capsys):
        code = main(["--scenario", "pass_time", "--out", str(tmp_path), "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass_time.csv" in out and "manifest.json" in out

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "link_budget", "seed": 1}))
        code = main(["--config", str(cfg_path), "--scenario", "pass_time", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["scenario"] == "pass_time"

    # The flag's problem is listed whether or not the file's own seed is bad too.
    @pytest.mark.parametrize("file_seed", [{}, {"seed": -3}])
    def test_flag_problems_are_listed_with_the_file_problems(self, tmp_path, capsys, file_seed):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**file_seed, "channel": {"c0": -1}}))
        assert main(["--config", str(cfg_path), "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        detail = json.loads(lines[0])["detail"]
        assert "seed must be at least 0" in detail and "channel.c0" in detail
        assert not (tmp_path / "out").exists()

    def test_a_bad_seed_flag_reads_as_the_seed_key(self, tmp_path, capsys):
        assert main(["--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "config", "detail": "seed must be at least 0"}

    def test_flags_replace_bad_file_values_before_they_are_checked(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "warp_drive", "seed": -3, "output_dir": 5}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--scenario", "pass_time", "--seed", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 2
        assert (manifest["config"]["scenario"], manifest["config"]["output_dir"]) == ("pass_time", str(out))

    def test_unknown_scenario_flag_is_one_config_line_naming_the_scenarios(self, tmp_path, capsys):
        assert main(["--scenario", "bogus", "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "config"
        assert all(name in record["detail"] for name in SCENARIOS)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("args", "words"),
        [(["--seed", "abc"], "--seed"), (["--bogus", "1"], "unrecognized arguments: --bogus")],
        ids=["non_integer_seed", "unknown_flag"],
    )
    def test_usage_errors_are_one_config_line(self, tmp_path, capsys, args, words):
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "config" and words in record["detail"]
        assert not (tmp_path / "out").exists()

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fsolink")

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scenario": "warp_drive"}')
        assert main(["--config", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        # Strings and booleans in numeric keys are config errors, all listed.
        non_numbers = {
            "geometry": {"mu": "3.986e14"},
            "channel": {"eta_int": "0.4", "theta_max_deg": "10", "alpha0": True, "c0": "1e-14", "v_rms": False},
        }
        for doc in (
            {"channel": {"eta_int": "0.4"}},
            {"channel": {"theta_max_deg": "10"}},
            non_numbers,
        ):
            bad.write_text(json.dumps(doc))
            assert main(["--config", str(bad)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "config"
        for key in ("mu", "eta_int", "theta_max_deg", "alpha0", "c0", "v_rms"):
            assert key in err["detail"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"scenario": "pass_time", "geometry": {"mu": 0}},
            {"scenario": "pass_time", "geometry": {"earth_radius": -1}},
            {"scenario": "link_budget", "geometry": {"earth_radius": 0}},
        ],
    )
    def test_non_positive_mu_or_earth_radius_is_config_error(self, tmp_path, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert next(iter(doc["geometry"])) in err["detail"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model", ["andrews", "giggenbach", "yura"])
    @pytest.mark.parametrize("height", [0, -1.0, "-12 km"])
    def test_non_positive_tropopause_is_config_error(self, tmp_path, capsys, model, height):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "av_sweep",
            "channel": {"aperture_model": model, "tropopause_height": height},
        }))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["detail"].startswith("channel.tropopause_height")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output_dir", [None, 5, ["a"], {}])
    def test_non_string_output_dir_is_config_error(self, tmp_path, capsys, monkeypatch, output_dir):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "pass_time", "output_dir": output_dir}))
        assert main(["--config", str(cfg_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["detail"].startswith("output_dir")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_photons_are_capped(self):
        assert parse_config({"tomography": {"photons": MAX_PHOTONS}}).tomography.photons == MAX_PHOTONS
        with pytest.raises(ConfigError, match="tomography.photons must be at most"):
            parse_config({"tomography": {"photons": MAX_PHOTONS + 1}})

    def test_ensemble_size_is_capped(self, tmp_path, capsys):
        cfg = parse_config({"tomography": {"ensemble_size": MAX_ENSEMBLE_SIZE}})
        assert cfg.tomography.ensemble_size == MAX_ENSEMBLE_SIZE
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "qst", "tomography": {"ensemble_size": 10**12}}))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert err["detail"].startswith("tomography.ensemble_size must be at most")
        assert not (tmp_path / "out").exists()

    def test_removed_optimizer_keys_are_unknown(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        for key in ("restarts", "tol", "max_iter"):
            cfg_path.write_text(json.dumps({"tomography": {key: 5}}))
            assert main(["--config", str(cfg_path)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["detail"] == f"unknown key tomography.{key}"

    @pytest.mark.parametrize("scenario", ["link_budget", "av_sweep"])
    def test_non_dividing_zenith_step_stays_inside_the_bounds(self, tmp_path, capsys, scenario):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": scenario, "sweep": {"diameters": ["1 m"], "zenith_step": 0.7}}))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / f"{scenario}.csv", encoding="utf-8") as fh:
            zeniths = [float(row["zenith_deg"]) for row in csv.DictReader(fh)]
        assert zeniths[0] == pytest.approx(-80.0)
        assert 79.3 < zeniths[-1] <= 80.0
        assert len(zeniths) == 229

    @pytest.mark.parametrize("scenario", ["link_budget", "av_sweep", "qst"])
    def test_zenith_step_that_overshoots_in_rounding_ends_at_zenith_max(self, tmp_path, capsys, scenario):
        # Every key is in bounds, but min + step lands 1.4e-9 rad past max
        # within the floor's 1e-9 tolerance; the grid is clamped to max.
        top = math.radians(80.0)
        sweep = {"diameters": ["1 m"], "zenith_min": f"{-top!r} rad", "zenith_max": f"{top!r} rad",
                 "zenith_step": f"{2.0 * top / (1.0 - 5e-10)!r} rad"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": scenario, "sweep": sweep, "tomography": {"ensemble_size": 2}}))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        (csv_path,) = tmp_path.glob("*.csv")
        with open(csv_path, encoding="utf-8") as fh:
            assert [row["zenith_deg"] for row in csv.DictReader(fh)] == ["-80", "80"]

    def test_zenith_grid_clamp_keeps_the_sign_of_zero(self):
        cfg = parse_config({"sweep": {"zenith_min": -0.0, "zenith_max": -0.0}})
        assert math.copysign(1.0, cfg.zenith_grid_rad()[0]) == 1.0

    @pytest.mark.parametrize(
        "doc, scenario, code, error",
        [
            # A waist this small breaks only eta_det (its Rayleigh range is 0),
            # which the aperture-averaging table does not read.
            ({"channel": {"beam_waist": 1e-300}}, "av_sweep", 0, None),
            ({"channel": {"beam_waist": 1e-300}}, "link_budget", 3, "numeric"),
            # Every scenario builds the receivers, and these radii underflow to 0.
            ({"sweep": {"diameters": [1.0, 5e-324]}}, "av_sweep", 2, "config"),
            ({"sweep": {"diameters": [5e-324]}}, "qst", 2, "config"),
        ],
    )
    def test_grid_scenarios_exit_on_what_they_compute(self, tmp_path, capsys, doc, scenario, code, error):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path), "--scenario", scenario, "--out", str(tmp_path / "out")]) == code
        if code:
            assert json.loads(capsys.readouterr().err)["error"] == error
        else:
            assert (tmp_path / "out" / f"{scenario}.csv").exists()

    @pytest.mark.parametrize("ogs", ["100 km", "150 km"])
    @pytest.mark.parametrize("scenario", ["av_sweep", "link_budget"])
    def test_yura_station_above_the_profile_is_numeric_error(self, tmp_path, capsys, ogs, scenario):
        # Cn^2 ends at 100 km, so both profile moments of Yura's scale height are 0.
        doc = {"scenario": scenario, "geometry": {"ogs_altitude": ogs, "satellite_altitude": "200 km"},
               "channel": {"aperture_model": "yura", "fluctuation_mode": "psi"}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert "Cn^2 profile has no weight above the station" in err["detail"]

    def test_diameters_whose_radius_underflows_are_named(self):
        with pytest.raises(ConfigError, match=r"^sweep\.diameters\[0\]: .* underflows to 0$"):
            parse_config({"sweep": {"diameters": [5e-324]}})
        with pytest.raises(ConfigError, match=r"^sweep\.diameters\[1\]: .* underflows to 0$"):
            parse_config({"sweep": {"diameters": [1.0, 5e-324]}})
        # Twice the smallest subnormal still halves to a positive radius.
        assert parse_config({"sweep": {"diameters": [1e-323]}}).diameters_m == (1e-323,)

    def test_booleans_in_integer_keys_are_config_errors(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "link_budget",
            "channel": {"fluctuation_mode": "isi"},
            "sweep": {"draws_per_point": True},
            "tomography": {"photons": True, "ensemble_size": False},
        }))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        for key in ("sweep.draws_per_point", "tomography.photons", "tomography.ensemble_size"):
            assert key in err["detail"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"channel": {"h0": math.nan}}, "channel.h0"),
            ({"channel": {"h0": "nan km"}}, "channel.h0"),
            ({"channel": {"wavelength": "inf nm"}}, "channel.wavelength"),
            ({"channel": {"c0": math.inf}}, "channel.c0"),
            ({"channel": {"eta_int": -math.inf}}, "channel.eta_int"),
            ({"geometry": {"mu": math.inf}}, "geometry.mu"),
            ({"geometry": {"mu": 10**400}}, "geometry.mu"),
            ({"scenario": "pass_time", "geometry": {"satellite_altitude": math.inf}}, "geometry.satellite_altitude"),
            ({"scenario": "pass_time", "geometry": {"altitudes": [10**400]}}, "geometry.altitudes"),
            ({"scenario": "pass_time", "geometry": {"zenith_limit": math.nan}}, "geometry.zenith_limit"),
            ({"sweep": {"diameters": ["1e306 km"]}}, "sweep.diameters"),
            ({"sweep": {"zenith_step": "inf deg"}}, "sweep.zenith_step"),
        ],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, doc, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))  # writes NaN / Infinity literals, as Python's json accepts them
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert key in err["detail"] and "finite" in err["detail"]
        assert not (tmp_path / "out").exists()

    def test_zenith_grid_size_is_capped(self, tmp_path, capsys):
        span = 160.0
        at_cap = parse_config({"sweep": {"zenith_step": span / (MAX_ZENITH_POINTS - 1)}})
        assert len(at_cap.zenith_grid_rad()) == MAX_ZENITH_POINTS
        # Rejected while parsing, before any grid exists.
        with pytest.raises(ConfigError, match=f"{MAX_ZENITH_POINTS + 1} points"):
            parse_config({"sweep": {"zenith_step": span / MAX_ZENITH_POINTS}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": {"zenith_step": 1e-9}}))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "1.6e+11 points" in err["detail"]

    def test_draws_per_point_is_capped(self, tmp_path, capsys):
        assert parse_config({"sweep": {"draws_per_point": MAX_DRAWS_PER_POINT}}).draws_per_point == MAX_DRAWS_PER_POINT
        with pytest.raises(ConfigError, match="sweep.draws_per_point must be at most"):
            parse_config({"sweep": {"draws_per_point": MAX_DRAWS_PER_POINT + 1}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "link_budget",
            "channel": {"fluctuation_mode": "isi"},
            "sweep": {"draws_per_point": 10**12},
        }))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "sweep.draws_per_point" in err["detail"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"scenario": "pass_time", "geometry": {"satellite_altitude": 1e300}}, "geometry.satellite_altitude"),
            ({"scenario": "link_budget", "geometry": {"satellite_altitude": 1e300}}, "geometry.satellite_altitude"),
            ({"scenario": "link_budget", "sweep": {"diameters": [1e200]}}, "sweep.diameters"),
            ({"scenario": "link_budget", "sweep": {"diameters": ["1e10 km"]}}, "sweep.diameters"),
            ({"scenario": "pass_time", "geometry": {"altitudes": [4e5, 10**200]}}, "geometry.altitudes"),
        ],
    )
    def test_huge_lengths_are_config_errors(self, tmp_path, capsys, doc, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert key in err["detail"]
        assert not (tmp_path / "out").exists()

    def test_longest_allowed_length_parses(self):
        cfg = parse_config({"geometry": {"satellite_altitude": MAX_LENGTH_M}, "sweep": {"diameters": ["1e9 km"]}})
        assert cfg.satellite_altitude_m == cfg.diameters_m[0] == MAX_LENGTH_M

    @pytest.mark.parametrize(
        "doc",
        [
            {"scenario": "pass_time", "geometry": {"mu": 5e-324}},
            {"scenario": "link_budget", "channel": {"beam_waist": 1e-200}},
            {"scenario": "link_budget", "channel": {"beam_waist": 1e-100, "wavelength": 1e12}},
        ],
    )
    def test_arithmetic_overflow_is_numeric_error(self, tmp_path, capsys, doc):
        # Valid but extreme inputs whose float arithmetic divides by zero or
        # overflows exit 3 with a one-line JSON error, not a traceback.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"

    def test_over_long_integer_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": 1' + "0" * 5000 + "}")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_is_io_error(self, capsys):
        assert main(["--config", "/nonexistent/config.json"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"

    def test_non_utf8_config_is_config_error_naming_file_and_offset(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b'{"seed":1,"output_dir":"\xff"}')
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        detail = json.loads(err)
        assert detail["error"] == "config"
        assert str(cfg_path) in detail["detail"] and "byte offset 24" in detail["detail"]
        assert not (tmp_path / "out").exists()

    def test_unprintable_paths_are_io_error_and_keep_the_outputs(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["--scenario", "pass_time", "--out", str(tmp_path)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "pass_time.csv"]

    def test_main_leaves_the_gc_state_alone(self, tmp_path, capsys):
        before = (gc.isenabled(), gc.get_freeze_count(), gc.get_threshold())
        assert main(["--scenario", "pass_time", "--out", str(tmp_path)]) == 0
        assert (gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()) == before


def _cli_process(args, **kwargs):
    """Run ``python <args>`` with the package's source tree on the import path."""
    env = dict(os.environ, PYTHONPATH=str(Path(fsolink.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)


class TestProcessEntry:
    """``python -m fsolink.cli`` runs cli.entry: exit without teardown."""

    @pytest.mark.parametrize(
        ("doc", "code", "kind"),
        [
            (None, 0, None),
            ({"scenario": "warp_drive"}, 2, "config"),
            ({"scenario": "pass_time", "geometry": {"mu": 5e-324}}, 3, "numeric"),
            ("missing", 4, "io"),
        ],
    )
    def test_exit_codes_and_piped_output(self, tmp_path, doc, code, kind):
        out = tmp_path / "out"
        args = ["-m", "fsolink.cli", "--scenario", "pass_time", "--out", str(out)]
        if doc is not None:
            cfg_path = tmp_path / "cfg.json"
            if doc != "missing":
                cfg_path.write_text(json.dumps(doc))
            args = ["-m", "fsolink.cli", "--config", str(cfg_path), "--out", str(out)]
        proc = _cli_process(args, capture_output=True)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == ""
            assert proc.stdout.splitlines() == [str(out / "pass_time.csv"), str(out / "manifest.json")]
        else:
            assert proc.stdout == "" and proc.stderr.count("\n") == 1
            assert json.loads(proc.stderr)["error"] == kind

    def test_closed_stdout_exits_4_and_keeps_the_outputs(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader from the start: the child's first write fails
        try:
            proc = _cli_process(
                ["-m", "fsolink.cli", "--scenario", "pass_time", "--out", str(tmp_path)],
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 4
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "io"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "pass_time.csv"]

    def test_profiler_still_writes_its_profile(self, tmp_path):
        profile = tmp_path / "cli.prof"
        args = ["-m", "cProfile", "-o", str(profile), "-m", "fsolink.cli", "--scenario", "pass_time", "--out", str(tmp_path / "out")]
        proc = _cli_process(args, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        stats = pstats.Stats(str(profile))
        assert any(name == "entry" for _, _, name in stats.stats)

    def test_import_changes_no_gc_state(self):
        code = (
            "import gc; before = (gc.isenabled(), gc.get_freeze_count(), gc.get_threshold())\n"
            "import fsolink.cli; print(before == (gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()))"
        )
        assert _cli_process(["-c", code], capture_output=True, check=True).stdout.strip() == "True"


def test_cli_import_does_not_load_scipy():
    code = "import sys, fsolink.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(fsolink.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(("preset", "expected"), [(None, "1"), ("3", "3")])
def test_import_defaults_openblas_to_one_thread_and_keeps_a_callers_value(preset, expected):
    code = "import os, fsolink; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(fsolink.__file__).resolve().parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == expected
