"""Adaptive Simpson quadrature for the altitude integrals used elsewhere.

The integrands in this package (extinction path integrals, turbulence-profile
moments) are smooth apart from a weak power-law corner at the lower endpoint,
so a recursive Simpson scheme with interval bisection converges quickly and
keeps the dependency surface small.
"""

from __future__ import annotations

from typing import Callable


# Relative tolerance of the package's altitude integrals.
REL_TOL = 1e-8
# Bisection levels the adaptive phase may use before it gives up.
MAX_DEPTH = 60
# Panels of the uniform composite-Simpson pre-pass.
PRESAMPLE_PANELS = 256


class QuadratureError(ArithmeticError):
    """Raised when the adaptive scheme fails to reach the requested tolerance; a numeric
    failure, so an ``ArithmeticError`` like an overflow."""


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate ``f`` over ``[a, b]`` to the relative tolerance ``REL_TOL``.

    A uniform composite-Simpson pre-pass estimates the magnitude of the
    integral; the adaptive phase then refines against an absolute tolerance
    derived from that magnitude. The pre-pass matters because several of the
    integrands here are concentrated near one endpoint, where a single
    three-point estimate would be orders of magnitude too small to anchor a
    relative tolerance. Non-convergence within ``MAX_DEPTH`` bisection levels
    raises :class:`QuadratureError` instead of returning a bad value.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0

    h = (b - a) / PRESAMPLE_PANELS
    rough = 0.0
    left = f(a)
    for i in range(PRESAMPLE_PANELS):
        x0 = a + i * h
        mid = f(x0 + 0.5 * h)
        right = f(x0 + h) if i < PRESAMPLE_PANELS - 1 else f(b)
        rough += h / 6.0 * (left + 4.0 * mid + right)
        left = right

    tol = REL_TOL * abs(rough)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, MAX_DEPTH)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson failed to converge on [{a}, {b}] "
            f"(residual {abs(delta):.3e}, tolerance {tol:.3e})"
        )
    half = 0.5 * tol
    return _simpson_rec(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )
