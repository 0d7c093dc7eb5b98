"""The benchmark's own tests; not part of the default test run.

    python -m pytest bench/test_bench.py -q

The repository's ``testpaths`` is ``tests``, so a plain ``pytest`` never
collects this file (``test_default_run_does_not_collect_bench`` checks that).
The traced-run tests start real CLI processes, about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from checks import DEFAULT_SEED, HELD_OUT_SEED, check_output, reference_path

COUNT_METRICS = [name for name, unit in run.PER_LAYER if unit == "count"]


def _config(workload: str) -> dict:
    return json.loads((run.WORKLOAD_DIR / f"{workload}.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_repeat_counts_and_csv_bytes(workload):
    bench = run.Bench(workload, DEFAULT_SEED)
    try:
        _, plain_csv, _ = bench.cli(traced=False)
        traced = [bench.cli(traced=True) for _ in range(2)]
        assert bench.failed == 0
        counts = []
        for _, data, spans in traced:
            assert data == plain_csv
            metrics, _ = run.layer_metrics(json.loads(spans.read_text()), len(data), data.count(b"\n") - 1)
            counts.append({name: metrics[name] for name in COUNT_METRICS})
        assert counts[0] == counts[1]
        assert counts[0]["budget.cells"] > 0
    finally:
        bench.close()


def test_default_run_does_not_collect_bench():
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        env=run.child_env(),
    ).stdout
    assert "tests/" in out
    assert "bench/" not in out


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_exits_non_zero_without_the_program():
    bare = run.ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        run.TMP_ROOT.rmdir()
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_stored_references_pass_their_own_checks(workload):
    config = _config(workload)
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        assert check_output(workload, seed, reference_path(workload, seed).read_bytes(), config) == []
    # The held-out seed's output is a legitimate run at a seed without stored
    # bytes, so it must pass the statistical checks as well.
    assert check_output(workload, 12345, reference_path(workload, HELD_OUT_SEED).read_bytes(), config) == []


def _with_column(data: bytes, column: str, value: str) -> bytes:
    lines = data.decode().splitlines()
    index = lines[0].split(",").index(column)
    rows = [lines[0]] + [",".join(value if i == index else cell for i, cell in enumerate(line.split(","))) for line in lines[1:]]
    return ("\n".join(rows) + "\n").encode()


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 12345])
def test_maximally_mixed_reconstruction_fails_the_qst_check(seed):
    workload = "qst_psi_leo"
    data = reference_path(workload, DEFAULT_SEED).read_bytes()
    mixed = _with_column(_with_column(data, "mean_fidelity", "0.5"), "sd_fidelity", "0")
    assert check_output(workload, seed, mixed, _config(workload))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 12345])
def test_loss_biased_by_a_tenth_of_a_db_fails_the_budget_check(seed):
    workload = "budget_psi_yura"
    lines = reference_path(workload, DEFAULT_SEED).read_text().splitlines()
    biased = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[2] = repr(float(cells[2]) + 0.1)
        biased.append(",".join(cells))
    assert check_output(workload, seed, ("\n".join(biased) + "\n").encode(), _config(workload))
