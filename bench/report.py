"""Every metric of every workload, by name, unit and sample count.

    python3 bench/report.py [--seed 7] [--seconds 35] [--baseline bench/baseline.json]

Runs each workload once untraced (end-to-end metrics) and once traced
(per-layer metrics) through ``run.measure``, prints one table per workload,
and with ``--baseline`` writes the numbers with a note on the machine.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import sys

import run


def _machine() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "note": "shared virtual machine; processes run one at a time; timings and rusage from the benchmark's own processes, no system-wide tracing",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--baseline", default=None, help="write the numbers as JSON to this path")
    args = parser.parse_args()
    whys = {w["name"]: w["why"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]}
    report = {"machine": _machine(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        entry = {
            "why": whys.get(workload),
            "config": json.loads((run.WORKLOAD_DIR / f"{workload}.json").read_text()),
            "metrics": {},
            "printed": {},
        }
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per pass)")
        for trace in (False, True):
            result = run.measure(workload, args.seed, args.seconds, trace)
            run.print_table(result, indent="  ")
            for name, (value, unit, n) in result["metrics"].items():
                entry["metrics"][name] = {"value": value, "unit": unit, "n": n}
            entry["printed"].update(result["printed"])
            label = "failed_frac.traced_pass" if trace else "failed_frac"
            frac = result["failed"] / result["attempted"]
            entry["metrics"][label] = {"value": frac, "unit": "ratio", "n": result["attempted"]}
        report["workloads"][workload] = entry
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    failed = any(e["metrics"][k]["value"] for e in report["workloads"].values() for k in e["metrics"] if k.startswith("failed_frac"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
