"""Output checks for one CLI run of a workload.

References are the CSVs the seed commit wrote, stored as
``reference/<workload>/seed<N>.csv`` for the default seed and one held-out
seed. What is checked:

- Every seed: the header, the row count and the grid columns (``zenith_deg``,
  ``diameter_m``, and ``photons`` for ``qst``) equal the default-seed
  reference exactly; every value is finite; ``p05 <= p50 <= p95`` and
  ``sd >= 0`` for link budgets; ``0 <= F <= 1``, ``sd >= 0`` and
  ``0 <= failures <= ensemble size`` for tomography.
- Stored seed, ``link_budget``: the CSV bytes equal the reference.
- Stored seed, ``qst``: each cell's mean fidelity is within 0.25/M of the
  reference and its SD within 0.25/sqrt(M), M being the ensemble size. That
  admits a fit with an equal or lower least-squares cost, such as the exact
  closed form (which moves cells by about 1e-8) or one that repairs a single
  Nelder-Mead stall (|dF| of about 0.22 in one trial), and rejects returning
  the maximally mixed state (cells move by up to 0.46).
- Other seeds, ``link_budget``: the dB loss of every cell is exactly Gaussian
  (unit-mean log-normal fading), so each statistic is compared with the
  default-seed reference within 7 standard errors of the difference of two
  independent estimates from ``draws_per_point`` draws.
- Other seeds, ``qst``: the fidelity averaged over all cells is within 0.05 of
  the reference's (the seed-to-seed spread of that average is about 0.006);
  the maximally mixed state gives about 0.5 against 0.79.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 7
HELD_OUT_SEED = 4242
STORED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

_GRID_COLUMNS = {"link_budget": ("zenith_deg", "diameter_m"), "qst": ("zenith_deg", "diameter_m", "photons")}
# Standard error of each link-budget statistic in units of sd / sqrt(n) for a
# Gaussian sample: mean 1, SD 1/sqrt(2), median sqrt(pi/2), 5 % and 95 %
# quantiles sqrt(0.05 * 0.95) / phi(1.6449).
_GAUSSIAN_SE = {"mean_loss_db": 1.0, "sd_loss_db": math.sqrt(0.5), "p50_db": 1.2533, "p05_db": 2.1131, "p95_db": 2.1131}
_Z = 7.0
_QST_OVERALL_TOL = 0.05


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed{seed}.csv"


def _rows(data: bytes) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return list(reader.fieldnames or []), list(reader)


def check_output(workload: str, seed: int, data: bytes, config: dict) -> list[str]:
    """Problems found in one run's CSV bytes; an empty list means it passed."""
    scenario = config["scenario"]
    ref_data = reference_path(workload, DEFAULT_SEED).read_bytes()
    ref_header, ref_rows = _rows(ref_data)
    try:
        header, rows = _rows(data)
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"unreadable CSV: {exc}"]
    if header != ref_header:
        return [f"header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, expected {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in _GRID_COLUMNS[scenario]:
            if row[col] != ref[col]:
                problems.append(f"row {i}: {col} {row[col]} != {ref[col]}")
    if problems:
        return problems[:5]
    try:
        values = [{k: float(v) for k, v in row.items()} for row in rows]
        refs = [{k: float(v) for k, v in row.items()} for row in ref_rows]
    except ValueError as exc:
        return [f"non-numeric cell: {exc}"]
    if not all(math.isfinite(v) for row in values for v in row.values()):
        return ["non-finite value"]
    if scenario == "link_budget":
        problems = _check_budget(workload, seed, data, values, refs, config)
    else:
        problems = _check_qst(workload, seed, values, refs, config)
    return problems[:5]


def _check_budget(workload: str, seed: int, data: bytes, values: list[dict], refs: list[dict], config: dict) -> list[str]:
    problems = []
    for i, row in enumerate(values):
        if not row["p05_db"] <= row["p50_db"] <= row["p95_db"] or row["sd_loss_db"] < 0:
            problems.append(f"row {i}: percentiles out of order or negative SD")
    if seed in STORED_SEEDS:
        if data != reference_path(workload, seed).read_bytes():
            problems.append(f"CSV bytes differ from the seed-{seed} reference")
        return problems
    n = config.get("sweep", {}).get("draws_per_point", 10_000)
    for i, (row, ref) in enumerate(zip(values, refs)):
        scale = max(row["sd_loss_db"], ref["sd_loss_db"]) / math.sqrt(n)
        for col, se in _GAUSSIAN_SE.items():
            tol = _Z * math.sqrt(2.0) * se * scale + 1e-6
            if abs(row[col] - ref[col]) > tol:
                problems.append(f"row {i}: {col} {row[col]} differs from {ref[col]} by more than {tol:.3g}")
    return problems


def _check_qst(workload: str, seed: int, values: list[dict], refs: list[dict], config: dict) -> list[str]:
    m = config.get("tomography", {}).get("ensemble_size", 220)
    problems = []
    for i, row in enumerate(values):
        if not 0.0 <= row["mean_fidelity"] <= 1.0 or row["sd_fidelity"] < 0:
            problems.append(f"row {i}: fidelity outside [0, 1] or negative SD")
        if not 0 <= row["failures"] <= m:
            problems.append(f"row {i}: failures {row['failures']} outside [0, {m}]")
    if seed in STORED_SEEDS:
        _, stored = _rows(reference_path(workload, seed).read_bytes())
        for i, (row, ref) in enumerate(zip(values, stored)):
            if abs(row["mean_fidelity"] - float(ref["mean_fidelity"])) > 0.25 / m:
                problems.append(f"row {i}: mean_fidelity {row['mean_fidelity']} vs reference {ref['mean_fidelity']}")
            if abs(row["sd_fidelity"] - float(ref["sd_fidelity"])) > 0.25 / math.sqrt(m):
                problems.append(f"row {i}: sd_fidelity {row['sd_fidelity']} vs reference {ref['sd_fidelity']}")
        return problems
    overall = sum(row["mean_fidelity"] for row in values) / len(values)
    ref_overall = sum(ref["mean_fidelity"] for ref in refs) / len(refs)
    if abs(overall - ref_overall) > _QST_OVERALL_TOL:
        problems.append(f"fidelity averaged over cells {overall:.4f} vs reference {ref_overall:.4f}")
    return problems
