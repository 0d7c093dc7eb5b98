"""The CLI reproduces the CSV tables stored in tests/golden byte for byte.

Each ``<name>.json`` there is a scenario config and ``<name>.csv`` the table
it wrote before the channel-grid evaluator replaced the per-scenario loops.
"""

from pathlib import Path

import pytest

from fsolink.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_cli_reproduces_golden_csv(tmp_path, capsys, name):
    assert main(["--config", str(GOLDEN / f"{name}.json"), "--out", str(tmp_path)]) == 0
    (csv_path,) = tmp_path.glob("*.csv")
    assert csv_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
