"""Property tests of the config key table behind parse_config and effective_config.

Each key's default and bounds are read from the dataclass field it fills.

Documents set a random subset of the table's keys, some to valid values and
some corrupted (wrong type, NaN, +/-Infinity, a boolean, an out-of-range
value), and may add unknown keys or replace whole sections by non-objects.
parse_config must raise nothing but ConfigError, name every corrupted key at
the start of its own problem line, and accept only documents it can
reproduce through effective_config.

The same documents, grown from small valid configs of every scenario, and raw
bytes that are not JSON or not UTF-8 also go through the whole CLI: each run
exits 0, 2 or 3, with exactly one JSON line on stderr unless it succeeds.
"""

import contextlib
import copy
import io
import json
import math
import string
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fsolink.cli import _TABLE, MAX_LENGTH_M, SCENARIOS, ConfigError, _declared, effective_config, main, parse_config

SECTIONS = sorted({spec.key.rpartition(".")[0] for spec in _TABLE})  # "" is the root

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_WRONG_TYPE = {
    "string": [5, 1.5],
    "enum": ["not_a_choice", 5],
    "integer": ["5", 1.5],
    "number": ["1.0"],
    "length": ["5 furlongs", "1 m m", "m 1"],
    "angle": ["5 grad", "deg 5"],
}


def _bounds(spec):
    return _declared(spec.field).metadata


def _lower(spec):
    bounds = _bounds(spec)
    return bounds.get("gt", bounds.get("ge"))


def _upper(spec):
    bounds = _bounds(spec)
    return bounds.get("lt", bounds.get("le"))


def valid(spec, kind=None):
    """JSON values that this key accepts on their own (cross-key rules aside)."""
    kind = kind or spec.kind
    if kind == "lengths":
        return st.lists(valid(spec, "length"), min_size=1, max_size=3)
    if kind == "enum":
        return st.sampled_from(list(spec.choices))
    if kind == "string":
        return st.text(max_size=8)
    lo, hi = _lower(spec), _upper(spec)
    if kind == "integer":
        return st.integers(lo, hi if hi is not None else lo + 2**64)
    if kind == "length":
        lo = -MAX_LENGTH_M if lo is None else lo
        hi = MAX_LENGTH_M if hi is None else hi
    if kind == "angle":
        lo = None if lo is None else math.degrees(lo)
        hi = None if hi is None else math.degrees(hi)
    numbers = st.floats(
        lo, hi, exclude_min="gt" in _bounds(spec), exclude_max="lt" in _bounds(spec),
        allow_nan=False, allow_infinity=False, allow_subnormal=False,
    )
    if kind == "length":
        return st.one_of(numbers, numbers.map(lambda v: f"{v!r} m"))
    if kind == "angle":
        return st.one_of(numbers, numbers.map(lambda v: f"{v!r} deg"), numbers.map(lambda v: f"{math.radians(v)!r} rad"))
    return numbers


def corrupted(spec, kind=None):
    """JSON values that this key must reject."""
    kind = kind or spec.kind
    if kind == "lengths":
        item = st.tuples(valid(spec, "length"), corrupted(spec, "length")).map(list)
        whole = [5, "1 m", {}, []] + ([] if _declared(spec.field).default is None else [None])
        return st.one_of(st.sampled_from(whole), item)
    bad = [math.nan, math.inf, -math.inf, True, False, None, [1], {}] + _WRONG_TYPE[kind]
    to_json = math.degrees if kind == "angle" else (lambda bound: bound)
    bad += [to_json(bound) - 1 for name, bound in _bounds(spec).items() if name in ("gt", "ge")]
    bad += [to_json(bound) + 1 for name, bound in _bounds(spec).items() if name in ("lt", "le")]
    if kind == "length":
        bad += [2 * MAX_LENGTH_M, -2 * MAX_LENGTH_M]
    return st.sampled_from(bad)


VALID = {spec.key: valid(spec) for spec in _TABLE}
CORRUPTED = {spec.key: corrupted(spec) for spec in _TABLE}


@st.composite
def documents(draw, corrupt=True, base=None, values=VALID):
    """A config document and the dotted names its problems must start with.

    Random keys of ``base`` (a valid document) are set to ``values`` or corrupted.
    """
    doc, expected = copy.deepcopy(base or {}), set()
    for spec in draw(st.lists(st.sampled_from(_TABLE), unique_by=lambda spec: spec.key, max_size=8)):
        section, _, name = spec.key.rpartition(".")
        target = doc.setdefault(section, {}) if section else doc
        if corrupt and draw(st.booleans()):
            target[name] = draw(CORRUPTED[spec.key])
            expected.add(spec.key)
        else:
            target[name] = draw(values[spec.key])
    if not corrupt:
        return doc, expected
    for section in draw(st.lists(st.sampled_from(SECTIONS), unique=True, max_size=2)):
        name = "unknown_" + draw(st.text(string.ascii_lowercase, min_size=1, max_size=6))
        (doc.setdefault(section, {}) if section else doc)[name] = draw(st.sampled_from([0, "x", None]))
        expected.add(f"unknown key {section}.{name}" if section else f"unknown key {name}")
    for section in draw(st.lists(st.sampled_from(SECTIONS[1:]), unique=True, max_size=1)):
        doc[section] = draw(st.sampled_from([5, "x", [1], None, True]))
        expected = {key for key in expected if not key.rpartition(" ")[2].startswith(f"{section}.")} | {section}
    return doc, expected


def _problems(message):
    """The problem lines of a ConfigError, checking the one-or-many layout."""
    header, *lines = message.splitlines()
    if not lines:
        return [header]
    assert header == "invalid configuration:"
    assert len(lines) >= 2 and all(line.startswith("  - ") for line in lines)
    return [line[4:] for line in lines]


@PROPERTIES
@given(documents())
def test_every_corrupted_key_starts_its_own_problem_line(case):
    doc, expected = case
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError as exc:
        problems = _problems(str(exc))
        for key in expected:
            assert any(problem.startswith(key) for problem in problems), (key, problems)
    else:
        assert not expected
        assert parse_config(effective_config(cfg)) == cfg


@PROPERTIES
@given(documents(corrupt=False))
def test_accepted_documents_are_fixed_points_of_effective_config(case):
    doc, _ = case
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError as exc:
        # Only the cross-key rules can reject keys that are valid on their own.
        for problem in _problems(str(exc)):
            assert problem.endswith(("exceed geometry.ogs_altitude", "are allowed", ">= sweep.zenith_min")), problem
        return
    again = parse_config(effective_config(cfg))
    assert again == cfg
    assert effective_config(again) == effective_config(cfg)


# Keys whose valid values set a run's cost, with the small valid values the CLI
# runs draw for them: at most 17 zenith points, few draws and members.
_SMALL = {
    "sweep.zenith_step": st.floats(10.0, 90.0),
    "sweep.draws_per_point": st.integers(1, 50),
    "tomography.ensemble_size": st.integers(1, 5),
}
_CSV = {"pass_time": "pass_time.csv", "av_sweep": "av_sweep.csv", "link_budget": "link_budget.csv", "qst": "qst_fidelity.csv"}


def _small_base(scenario):
    return {
        "scenario": scenario,
        "sweep": {"diameters": ["50 cm"], "zenith_min": -20, "zenith_max": 20, "zenith_step": 10, "draws_per_point": 20},
        "tomography": {"ensemble_size": 3},
    }


def _run_cli(config_bytes):
    """Exit code, stdout, stderr and manifest (None unless the exit is 0) of one in-process CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_bytes(config_bytes)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            # A warning would reach a CLI process's stderr; here it is recorded.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["--config", str(path), "--out", str(out)])
            for warning in caught:
                print(f"{warning.category.__name__}: {warning.message}", file=stderr)
        manifest = None
        if code == 0:
            manifest = json.loads((out / "manifest.json").read_text())
            assert all((out / name).is_file() for name in manifest["outputs"])
    return code, stdout.getvalue(), stderr.getvalue(), manifest


def _assert_one_json_error_line(stdout, stderr, kinds):
    assert stdout == ""
    assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
    assert json.loads(stderr)["error"] in kinds


@PROPERTIES
@given(
    st.tuples(st.sampled_from(SCENARIOS), st.booleans()).flatmap(
        lambda args: documents(corrupt=args[1], base=_small_base(args[0]), values={**VALID, **_SMALL})
    )
)
def test_cli_runs_exit_0_2_or_3_with_one_error_line(case):
    doc, _ = case
    code, stdout, stderr, manifest = _run_cli(json.dumps(doc).encode())
    assert code in (0, 2, 3), (code, stderr)
    if code == 0:
        assert stderr == ""
        assert manifest["outputs"] == [_CSV[manifest["config"]["scenario"]]]
        assert stdout.splitlines()[-1].endswith("manifest.json")
    else:
        _assert_one_json_error_line(stdout, stderr, ("config", "numeric"))


def _is_json(raw):
    """Whether the CLI would read ``raw`` as a JSON document (blank text is ``{}``)."""
    try:
        json.loads(raw.decode("utf-8").strip() or "{}")
    except ValueError:
        return False
    return True


@PROPERTIES
@given(st.one_of(st.binary(min_size=1, max_size=40), st.text(min_size=1, max_size=40).map(str.encode)).filter(
    lambda raw: not _is_json(raw)
))
def test_cli_rejects_raw_non_json_and_non_utf8_bytes(raw):
    code, stdout, stderr, _ = _run_cli(raw)
    assert code == 2
    _assert_one_json_error_line(stdout, stderr, ("config",))
