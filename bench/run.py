"""fsolink batch benchmark: one workload, one seed, one measuring window.

    python3 bench/run.py --workload budget_psi_yura --seed 7 --seconds 35 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/`` (pure Python, nothing to build). Every measured run is a real CLI
process, ``python -m fsolink.cli --config <workload> --seed <seed> --out
<tmp>``, started one at a time; its CSV is checked (see ``checks.py``) before
it counts as passed. Outputs go under ``.bench_tmp/`` in the checkout and are
removed at the end.

``--trace 0`` reports the end-to-end metrics, each a median over the runs of
the window:

- ``wall_s``: wall time of one CLI process, from start to exit.
- ``setup_s``: wall time of a fresh process that imports ``fsolink.cli`` and
  runs ``parse_config`` on the workload's config; median of several such
  processes measured before the window (after one unmeasured warm-up that
  fills the bytecode cache).
- ``cpu_s``: user + system CPU of the CLI process, from its own rusage.
- ``peak_rss_mb``: the CLI process's maximum resident set, MiB.

``--trace 1`` alternates untraced and traced CLI processes and reports the
per-layer metrics (``PER_LAYER``) from the traced ones. Tracing wraps the
package's functions from outside (``tracer.py``). Self times go into the JSON
line as shares of the traced ``cli.main`` span, because a layer that a
workload bypasses, or that a later change deletes, would read exactly 0 s on
every run; the seconds, and the state-fit latency percentiles, are printed
above it. A run stops before a further process would end past ``--seconds``;
at least one process (one pair when tracing) always runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (CLI processes that exited non-zero or failed the
check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import DEFAULT_SEED, check_output  # noqa: E402
from tracer import summarize  # noqa: E402

WORKLOAD_DIR = BENCH_DIR / "workloads"
TMP_ROOT = ROOT / ".bench_tmp"
WORKLOADS = sorted(p.stem for p in WORKLOAD_DIR.glob("*.json"))
CSV_NAME = {"link_budget": "link_budget.csv", "qst": "qst_fidelity.csv"}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_LIMIT_S = 150.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")]

# (metric, unit); the JSON line of a traced run carries exactly these.
PER_LAYER = [
    ("trace.run_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("quadrature.calls", "count"),
    ("quadrature.f_evals", "count"),
    ("quadrature.useful_ratio", "ratio"),
    ("quadrature.self_share", "ratio"),
    ("turbulence.rytov_downlink.calls", "count"),
    ("turbulence.aperture_averaging.calls", "count"),
    ("turbulence.scale_height.calls", "count"),
    ("turbulence.self_share", "ratio"),
    ("fading.sample.calls", "count"),
    ("fading.draws", "count"),
    ("fading.sample.self_share", "ratio"),
    ("budget.cells", "count"),
    ("budget.sweep_pass.self_share", "ratio"),
    ("budget.compose.calls", "count"),
    ("budget.compose.self_share", "ratio"),
    ("budget.fading_variance.calls", "count"),
    ("budget.fading_variance.self_share", "ratio"),
    ("geometry.slant_range.calls", "count"),
    ("extinction.slant_transmittance.calls", "count"),
    ("beam.diffraction_transmittance.calls", "count"),
    ("qst.trials", "count"),
    ("qst.fit_state.calls", "count"),
    ("qst.fit_state.self_share", "ratio"),
    ("qst.fit_useful_ratio", "ratio"),
    ("qst.solver_nfev", "count"),
    ("qst.solver_not_converged", "count"),
    ("qst.simulate_counts.self_share", "ratio"),
    ("cli.parse_config.self_share", "ratio"),
    ("cli.emit_csv.self_share", "ratio"),
    ("cli.csv_bytes", "count"),
    ("setup.import.fsolink_s", "s"),
    ("setup.import.scipy_optimize_share", "ratio"),
]

# Span self times summed into each layer's self time.
_SELF_TIME = {
    "quadrature": ["quadrature"],
    "turbulence": ["turbulence.rytov_downlink", "turbulence.aperture_averaging", "turbulence.scale_height"],
    "fading.sample": ["fading.sample"],
    "budget.sweep_pass": ["budget.sweep_pass"],
    "budget.compose": ["budget.compose"],
    "budget.fading_variance": ["budget.fading_variance"],
    "qst.fit_state": ["qst.fit_state"],
    "qst.simulate_counts": ["qst.simulate_counts"],
    "cli.parse_config": ["cli.parse_config"],
    "cli.emit_csv": ["cli.emit_csv"],
}


def child_env() -> dict:
    """The caller's environment with the checkout's ``src/`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class Sample:
    """One finished child process: exit code, wall, CPU and peak memory."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


def run_child(argv: list[str], env: dict, log: Path) -> Sample:
    """Run one process to completion; resources come from its own rusage."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, log)


def _percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _high_percentile(n: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for pct in (90.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10:
            best = pct
    return best


def _import_times(log: Path) -> dict[str, float]:
    """Cumulative seconds per module from a ``-X importtime`` log."""
    out = {}
    for line in log.read_text(encoding="utf-8", errors="replace").splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out[name.strip()] = int(cumulative) / 1e6
    return out


def layer_metrics(dump: dict, csv_bytes: int, cells: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the seconds printed beside them."""
    spans = summarize(dump)
    counters = dump["counters"]

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else int(counters.get(name + ".calls", 0))

    run_s = spans["cli.main"]["total_s"]
    seconds = {layer: sum(spans[n]["self_s"] for n in names if n in spans) for layer, names in _SELF_TIME.items()}
    trials = calls("qst.fidelity")
    fits = calls("qst.fit_state")
    quad = calls("quadrature")
    metrics = {
        "trace.run_s": run_s,
        "quadrature.calls": quad,
        "quadrature.f_evals": int(counters.get("quadrature.f_evals", 0)),
        "quadrature.useful_ratio": counters.get("quadrature.distinct_values", 0) / quad if quad else 0.0,
        "turbulence.rytov_downlink.calls": calls("turbulence.rytov_downlink"),
        "turbulence.aperture_averaging.calls": calls("turbulence.aperture_averaging"),
        "turbulence.scale_height.calls": calls("turbulence.scale_height"),
        "fading.sample.calls": calls("fading.sample"),
        "fading.draws": int(counters.get("fading.draws", 0)),
        "budget.cells": cells,
        "budget.compose.calls": calls("budget.compose"),
        "budget.fading_variance.calls": calls("budget.fading_variance"),
        "geometry.slant_range.calls": calls("geometry.slant_range"),
        "extinction.slant_transmittance.calls": calls("extinction.slant_transmittance"),
        "beam.diffraction_transmittance.calls": calls("beam.diffraction_transmittance"),
        "qst.trials": trials,
        "qst.fit_state.calls": fits,
        "qst.fit_useful_ratio": fits / trials if trials else 0.0,
        "qst.solver_nfev": int(counters.get("qst.solver_nfev", 0)),
        "qst.solver_not_converged": int(counters.get("qst.solver_not_converged", 0)),
        "cli.csv_bytes": csv_bytes,
    }
    for layer, value in seconds.items():
        metrics[layer + ".self_share"] = value / run_s
    printed = {layer + ".self_s": value for layer, value in seconds.items()}
    durations = spans.get("qst.fit_state", {}).get("durations", [])
    if durations:
        printed["qst.fit_state.p50_ms"] = 1e3 * statistics.median(durations)
        high = _high_percentile(len(durations))
        if high is not None:
            printed[f"qst.fit_state.p_hi_ms (p{high:g})"] = 1e3 * _percentile(durations, high)
    return metrics, printed


class Bench:
    """One benchmark invocation: its temporary directory and child processes."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.config_path = WORKLOAD_DIR / f"{workload}.json"
        self.config = json.loads(self.config_path.read_text(encoding="utf-8"))
        TMP_ROOT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another invocation still uses it

    def _path(self, stem: str) -> Path:
        self._count += 1
        return self.tmp / f"{self._count:04d}-{stem}"

    def setup_probe(self, python_flags: tuple[str, ...] = (), code: str | None = None) -> Sample:
        code = code or "import sys\nfrom fsolink.cli import parse_config\nparse_config(open(sys.argv[1], encoding='utf-8').read())"
        sample = run_child([sys.executable, *python_flags, "-c", code, str(self.config_path)], self.env, self._path("setup.log"))
        if sample.code != 0:
            raise RuntimeError(f"set-up process exited {sample.code}: {sample.log.read_text(errors='replace')[-2000:]}")
        return sample

    def cli(self, traced: bool) -> tuple[Sample, bytes | None, Path]:
        """One CLI process; returns its sample, CSV bytes if it passed, span dump path."""
        out = self._path("out")
        spans = out.with_name(out.name + "-spans.json")
        prefix = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans)] if traced else [sys.executable, "-m", "fsolink.cli"]
        argv = prefix + ["--config", str(self.config_path), "--seed", str(self.seed), "--out", str(out)]
        sample = run_child(argv, self.env, out.with_name(out.name + ".log"))
        self.attempted += 1
        csv_path = out / CSV_NAME[self.config["scenario"]]
        if sample.code != 0:
            problems = [f"exit code {sample.code}: {sample.log.read_text(errors='replace')[-2000:]}"]
        elif not csv_path.is_file() or not (out / "manifest.json").is_file():
            problems = ["CSV or manifest missing"]
        else:
            data = csv_path.read_bytes()
            problems = check_output(self.workload, self.seed, data, self.config)
        if problems:
            self.failed += 1
            print(f"check failed ({'traced' if traced else 'untraced'} run {self.attempted}): " + "; ".join(problems), file=sys.stderr)
            return sample, None, spans
        return sample, data, spans


def _window(seconds: float, step) -> list:
    """Call ``step`` until another call of median length would pass ``seconds``."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns counts, metrics as (value, unit, n) and printed extras."""
    bench = Bench(workload, seed)
    try:
        if trace:
            return _measure_traced(bench, seconds)
        return _measure_untraced(bench, seconds)
    finally:
        bench.close()


def _measure_untraced(bench: Bench, seconds: float) -> dict:
    bench.setup_probe()
    setup = [bench.setup_probe().wall_s for _ in range(SETUP_REPEATS)]
    samples = [s for s, _, _ in _window(seconds, lambda: bench.cli(traced=False))]
    n = len(samples)
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in samples), "s", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s", n),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MiB", n),
    }
    return {"attempted": bench.attempted, "failed": bench.failed, "metrics": metrics, "printed": {}}


def _measure_traced(bench: Bench, seconds: float) -> dict:
    imports = []
    for _ in range(IMPORT_REPEATS):
        log = bench.setup_probe(("-X", "importtime"), "import fsolink.cli").log
        imports.append(_import_times(log))

    def pair():
        plain, plain_csv, _ = bench.cli(traced=False)
        traced, traced_csv, spans = bench.cli(traced=True)
        if plain_csv is not None and traced_csv is not None and plain_csv != traced_csv:
            bench.failed += 1
            print("check failed: traced CSV bytes differ from the untraced run", file=sys.stderr)
        dump = json.loads(spans.read_text(encoding="utf-8")) if spans.is_file() else None
        return plain, traced, traced_csv, dump

    pairs = _window(seconds, pair)
    runs = [layer_metrics(dump, len(data), data.count(b"\n") - 1) for _, _, data, dump in pairs if dump and data]
    out: dict[str, tuple] = {}
    printed: dict[str, float] = {}
    if runs:
        first = runs[0][0]
        for name, unit in PER_LAYER:
            if name in first:
                # Counts repeat exactly between runs of one seed; times vary.
                value = first[name] if unit == "count" else statistics.median(m[name] for m, _ in runs)
                out[name] = (value, unit, len(runs))
        printed = {name: statistics.median(p[name] for _, p in runs) for name in runs[0][1]}
    plain_wall = statistics.median(p.wall_s for p, _, _, _ in pairs)
    traced_wall = statistics.median(t.wall_s for _, t, _, _ in pairs)
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio", len(pairs))
    fsolink_s = statistics.median(t.get("fsolink.cli", 0.0) for t in imports)
    scipy_s = statistics.median(t.get("scipy.optimize", 0.0) for t in imports)
    out["setup.import.fsolink_s"] = (fsolink_s, "s", len(imports))
    out["setup.import.scipy_optimize_share"] = (scipy_s / fsolink_s if fsolink_s else 0.0, "ratio", len(imports))
    printed["setup.import.scipy_optimize_s"] = scipy_s
    printed["trace.wall_s"] = traced_wall
    printed["untraced.wall_s"] = plain_wall
    ordered = {name: out[name] for name, _ in PER_LAYER if name in out}
    return {"attempted": bench.attempted, "failed": bench.failed, "metrics": ordered, "printed": printed}


def print_table(result: dict, indent: str = "") -> None:
    """Every metric of a ``measure`` result by name, value, unit and sample count."""
    for name, (value, unit, n) in result["metrics"].items():
        print(f"{indent}{name:<40} {value:>14.6g} {unit:<6} n={n}")
    for name, value in result["printed"].items():
        print(f"{indent}{name:<40} {value:>14.6g} {'ms' if '_ms' in name else 's'}")
    frac = result["failed"] / result["attempted"]
    print(f"{indent}{'failed_frac':<40} {frac:>14.6g} {'ratio':<6} n={result['attempted']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fsolink" / "cli.py").is_file():
        print(f"no fsolink source tree at {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print_table(result)
    attempted, failed = result["attempted"], result["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
