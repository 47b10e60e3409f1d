"""The one-dimensional solvers every other module uses.

Each root the package needs is a monotone scalar problem: the tangency roots
gamma_minus < 1 < gamma_plus, the region-III chord parameter, the region-IV
tangent parameter, and their limiting-class counterparts.  All of them are
solved the same way: grow a bracket geometrically until the sign flips
(expand), bisect it to float exhaustion (bisect), and, for the implicit
parameters, polish on the raw residual with guarded Newton steps
(newton_polish).  The class-norm estimate for weights with power pieces
maximises a unimodal ratio by golden section (golden_max).
"""

from __future__ import annotations

import math

from .errors import SolveError

_BISECT_ITERATIONS = 200
_NEWTON_STEPS = 3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def expand(f, x: float, factor: float, ref: float, budget: int,
           what: str) -> tuple[float, float]:
    """Scale x by factor until f(x) and ref differ in sign; returns (x, f(x)).

    At most `budget` expansions follow the first evaluation.  Raises
    SolveError when the budget runs out, or when f overflows, divides by
    zero or returns a non-finite value on the way.
    """
    for _ in range(budget + 1):
        try:
            fx = f(x)
        except (OverflowError, ZeroDivisionError):
            raise SolveError(f"could not bracket the {what}") from None
        if not math.isfinite(fx):
            break
        if (fx > 0.0) != (ref > 0.0):
            return x, fx
        x *= factor
    raise SolveError(f"could not bracket the {what}")


def bisect(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Plain bisection on a bracketing interval, run to float exhaustion."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise SolveError("bisection called without a sign change")
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def newton_polish(f, df, x: float, lo: float, hi: float) -> float:
    """A few Newton steps from x; a step is kept only if it stays inside
    (lo, hi) and shrinks |f|."""
    for _ in range(_NEWTON_STEPS):
        g = f(x)
        dg = df(x)
        if dg == 0.0:
            break
        x_new = x - g / dg
        if not (lo < x_new < hi):
            break
        if abs(f(x_new)) < abs(g):
            x = x_new
    return x


def golden_max(f, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section search for the maximum of f on [lo, hi]; (x, f(x))."""
    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = f(c1)
    return (c1, f1) if f1 >= f2 else (c2, f2)
