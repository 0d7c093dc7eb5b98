import math

import pytest

from fsolink import quadrature
from fsolink.quadrature import REL_TOL, QuadratureError, adaptive_simpson


def test_polynomials_are_exact():
    assert adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert adaptive_simpson(lambda x: 3 * x * x, 0.0, 5.0) == pytest.approx(125.0, rel=1e-12)


def test_exponential_decay():
    val = adaptive_simpson(lambda x: math.exp(-x / 100.0), 0.0, 5000.0)
    assert val == pytest.approx(100.0 * (1.0 - math.exp(-50.0)), rel=REL_TOL)


def test_power_law_corner_at_endpoint():
    # u^(5/6) has unbounded second derivative at 0; the adaptive refinement
    # must still deliver the requested accuracy.
    val = adaptive_simpson(lambda u: u ** (5.0 / 6.0), 0.0, 1.0)
    assert val == pytest.approx(6.0 / 11.0, rel=REL_TOL)


def test_concentrated_integrand_away_from_midpoint():
    # Mass sits within [0, ~500] of a [0, 1e5] interval; a naive 3-point
    # whole-interval estimate would miss it entirely.
    val = adaptive_simpson(lambda x: math.exp(-x / 100.0), 0.0, 1e5)
    assert val == pytest.approx(100.0, rel=REL_TOL)


def test_empty_and_reversed_intervals():
    assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        adaptive_simpson(math.sin, 2.0, 1.0)


def test_reports_non_convergence():
    # sin(1/x) oscillates without bound as x -> 0, so bisection runs out of depth there.
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0)


def test_non_convergence_is_an_arithmetic_error():
    # The CLI reports it with the overflows and zero divisions: exit 3.
    assert issubclass(QuadratureError, ArithmeticError)


def test_depth_limit_is_max_depth(monkeypatch):
    # With no bisection level left, Simpson's rule is still exact for a cubic,
    # but anything it does not resolve on the first split raises.
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 0)
    assert adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda x: math.exp(-x / 100.0), 0.0, 5000.0)
