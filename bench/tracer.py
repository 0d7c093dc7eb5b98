"""Span and counter recording around fsolink's public functions, from outside.

Each site is written ``module:attribute``: the module global through which a
caller looks the function up (``fsolink.budget`` calls ``rytov_downlink``
through its own global of that name, not through ``fsolink.turbulence``).
Replacing that global intercepts the call without any tracing code inside the
package. A site whose attribute does not exist is skipped, so a later change
that removes or renames a function reads as zero calls instead of crashing.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once when the traced process ends. ``summarize`` turns a dump into per-name
call counts, inclusive and self time (duration minus the time covered by
direct child spans) and the raw durations.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter


class Tracer:
    """Spans and counters of one process; single-threaded, like the CLI."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._quadrature_values: set[float] = set()

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so that each call records one span named ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn, after=None):
        """``fn`` wrapped so that each call only bumps ``<name>.calls``."""
        counters = self.counters
        key = name + ".calls"

        def counted(*args, **kwargs):
            counters[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return counted

    # Hooks that derive counters from a call's arguments or result.

    def _quadrature(self, fn):
        counters, values = self.counters, self._quadrature_values

        def counting_integrand(f, *args, **kwargs):
            evals = 0

            def integrand(x):
                nonlocal evals
                evals += 1
                return f(x)

            try:
                value = fn(integrand, *args, **kwargs)
            finally:
                counters["quadrature.f_evals"] += evals
            values.add(value)
            return value

        return counting_integrand

    def _sample_after(self, args, kwargs, result) -> None:
        self.counters["fading.draws"] += int(args[2] if len(args) > 2 else kwargs["n"])

    def _minimize_after(self, args, kwargs, result) -> None:
        self.counters["qst.solver_nfev"] += int(result.nfev)
        self.counters["qst.solver_not_converged"] += int(not result.success)

    def install(self) -> None:
        """Replace every site in ``SITES`` that exists with its wrapper."""
        hooks = {"fading.sample": self._sample_after, "qst.minimize": self._minimize_after}
        for name, kind, sites in SITES:
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                if name == "quadrature":
                    fn = self._quadrature(fn)
                wrap = self.span if kind == "span" else self.count
                setattr(module, attr, wrap(name, fn, hooks.get(name)))

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        counters["quadrature.distinct_values"] = len(self._quadrature_values)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


# (span or counter name, "span" | "count", sites). Layers whose cost matters
# get spans; per-cell closed forms and per-trial helpers only get counts,
# because a span around a microsecond call would mostly time the tracer.
SITES = [
    ("cli.main", "span", ["fsolink.cli:main"]),
    ("cli.parse_config", "span", ["fsolink.cli:parse_config"]),
    ("cli.emit_csv", "span", ["fsolink.cli:emit_csv"]),
    ("budget.sweep_pass", "span", ["fsolink.cli:sweep_pass"]),
    ("budget.compose", "span", ["fsolink.budget:compose", "fsolink.qst:compose"]),
    ("budget.fading_variance", "span", ["fsolink.budget:fading_variance", "fsolink.qst:fading_variance"]),
    ("turbulence.rytov_downlink", "span", ["fsolink.budget:rytov_downlink"]),
    ("turbulence.aperture_averaging", "span", ["fsolink.budget:aperture_averaging"]),
    ("turbulence.scale_height", "span", ["fsolink.turbulence:turbulence_scale_height"]),
    ("quadrature", "span", ["fsolink.turbulence:adaptive_simpson", "fsolink.extinction:adaptive_simpson"]),
    ("fading.sample", "span", ["fsolink.budget:sample", "fsolink.qst:sample"]),
    ("qst.fit_state", "span", ["fsolink.qst:fit_state"]),
    ("qst.simulate_counts", "span", ["fsolink.qst:simulate_counts"]),
    ("qst.minimize", "count", ["fsolink.qst:minimize"]),
    ("qst.fidelity", "count", ["fsolink.qst:fidelity"]),
    ("geometry.slant_range", "count", ["fsolink.budget:slant_range"]),
    ("extinction.slant_transmittance", "count", ["fsolink.budget:slant_transmittance"]),
    ("beam.diffraction_transmittance", "count", ["fsolink.budget:diffraction_transmittance"]),
]


def summarize(dump: dict) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, durations."""
    spans = dump["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _), child in zip(spans, covered):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child
        entry["durations"].append(end - start)
    return out
