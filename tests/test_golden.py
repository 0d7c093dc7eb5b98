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


def _child_runs():
    """(environment, extra arguments) for child processes that repeat every
    golden config: each NPY_DISABLE_CPU_FEATURES value that steps numpy down
    from its best dispatched x86 loops towards its baseline, as far as this
    CPU goes; a 4-thread OpenBLAS pool; and one CPU, where the sweep runs one
    worker."""
    runs, disabled = [], []
    for feature in ("X86_V4", "X86_V3"):
        if __cpu_features__.get(feature) and feature not in __cpu_baseline__:
            disabled.append(feature)
            level = " ".join(disabled)
            runs.append(pytest.param({"NPY_DISABLE_CPU_FEATURES": level}, [], id=level))
    runs.append(pytest.param({"OPENBLAS_NUM_THREADS": "4"}, [], id="openblas-4-threads"))
    if hasattr(os, "sched_setaffinity"):
        runs.append(pytest.param({}, [str(min(os.sched_getaffinity(0)))], id="one-cpu"))
    return runs


# Runs in a child process, so numpy reads its environment at import, and an
# optional CPU number pins the child before numpy or fsolink is imported.
_RUN_ALL = """
import os, sys
from pathlib import Path
if len(sys.argv) > 3:
    os.sched_setaffinity(0, {int(sys.argv[3])})
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


@pytest.mark.parametrize(("settings", "pin"), _child_runs())
def test_golden_csv_bytes_in_a_child_process(tmp_path, settings, pin):
    # The in-process test above covers the best SIMD level, this process's
    # OpenBLAS pool and every CPU it may use; this one repeats every golden
    # config in a child process with one of those changed.
    src = str(Path(fsolink.__file__).resolve().parents[1])
    env = dict(os.environ, **settings)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, str(GOLDEN), str(tmp_path), *pin],
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
    assert differ == [], (settings, pin)
