"""Bounds declared on dataclass fields, and the check that reads them.

A parameter class declares each setting's default and bounds once, as
``field(default=0.01, metadata={"gt": 0.0})`` with the keys "gt", "ge", "lt"
and "le"; the CLI reads the same fields. Every test fails for NaN, and a
bounded value must also be finite.
"""

import math
from dataclasses import fields

_BOUND_TESTS = (
    ("gt", "greater than", lambda value, bound: value > bound),
    ("ge", "at least", lambda value, bound: value >= bound),
    ("lt", "less than", lambda value, bound: value < bound),
    ("le", "at most", lambda value, bound: value <= bound),
)


def violated(value, bounds) -> tuple[str, float] | None:
    """The words and the bound of the first of ``bounds`` that ``value`` breaks, or None."""
    for name, words, within in _BOUND_TESTS:
        if name in bounds and not within(value, bounds[name]):
            return words, bounds[name]
    # +inf passes every lower bound and -inf every upper one. An int beyond the
    # float range compares exactly with inf, so it passes without an OverflowError.
    if bounds and not -math.inf < value < math.inf:
        return ("less than", math.inf) if value > 0 else ("greater than", -math.inf)
    return None


def check_fields(self) -> None:
    """Raise ValueError naming the first field of this dataclass that breaks its declared bounds."""
    for f in fields(self):
        if broken := violated(getattr(self, f.name), f.metadata):
            raise ValueError(f"{f.name} must be {broken[0]} {broken[1]:g}")
