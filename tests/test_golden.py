"""The CLI reproduces the CSV tables stored in tests/golden byte for byte.

Each ``<name>.json`` there is a scenario config and ``<name>.csv`` the table
it writes. The link-budget and av_sweep tables date from before the
channel-grid evaluator replaced the per-scenario loops; the qst tables from
when tomography moved to Bloch vectors in real arithmetic.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__

import fsolink
from fsolink.cli import main

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def _simd_levels():
    """NPY_DISABLE_CPU_FEATURES values that step numpy down from its best
    dispatched x86 loops towards its baseline, as far as this CPU goes."""
    disabled, levels = [], []
    for feature in ("X86_V4", "X86_V3"):
        if __cpu_features__.get(feature) and feature not in __cpu_baseline__:
            disabled.append(feature)
            levels.append(" ".join(disabled))
    return levels


# Runs in a child process, so numpy reads NPY_DISABLE_CPU_FEATURES at import.
_RUN_ALL = """
import sys
from pathlib import Path
from fsolink.cli import main
golden, out = Path(sys.argv[1]), Path(sys.argv[2])
for config in sorted(golden.glob("*.json")):
    if main(["--config", str(config), "--out", str(out / config.stem)]) != 0:
        sys.exit(f"{config.name} failed")
"""


@pytest.mark.parametrize("name", NAMES)
def test_cli_reproduces_golden_csv(tmp_path, capsys, name):
    assert main(["--config", str(GOLDEN / f"{name}.json"), "--out", str(tmp_path)]) == 0
    (csv_path,) = tmp_path.glob("*.csv")
    assert csv_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("level", _simd_levels())
def test_golden_csv_bytes_at_every_simd_level(tmp_path, level):
    # The in-process test above covers the best level; this one repeats every
    # golden config with numpy's wider loops switched off, one process per level.
    src = str(Path(fsolink.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=level)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, str(GOLDEN), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    differ = [
        name
        for name in NAMES
        if next((tmp_path / name).glob("*.csv")).read_bytes() != (GOLDEN / f"{name}.csv").read_bytes()
    ]
    assert differ == [], f"NPY_DISABLE_CPU_FEATURES={level!r}"
