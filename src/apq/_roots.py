"""The one-dimensional solvers every other module uses.

Each root the package needs is a monotone scalar problem: the tangency roots
gamma_minus < 1 < gamma_plus, the chord crossings through U(1) (regions I
and III), the region-IV tangent parameter, and their limiting-class
counterparts.  All of them are solved the same way: grow a bracket
geometrically until the sign flips (expand), then shrink it by safeguarded
Newton-bisection (solve; rtsafe in Numerical Recipes 9.4).  The implicit
parameters pass a derivative and settle in about ten evaluations; the
one-shot solves pass none and bisect to float exhaustion.  The class-norm
estimate for weights with power pieces maximises a unimodal ratio by golden
section (golden_max).
"""

from __future__ import annotations

import math

from .errors import SolveError

_ITERATIONS = 200
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# What a residual raises far from its root: ValueError covers a math domain
# error and fsum's inf - inf.
_FAULTS = (OverflowError, ZeroDivisionError, ValueError)


def guarded(f, x: float, failure: str) -> float:
    """f(x), with an arithmetic fault of f raised as SolveError(failure)."""
    try:
        return f(x)
    except _FAULTS:
        raise SolveError(failure) from None


def expand(f, x: float, factor: float, ref: float, budget: int,
           what: str) -> tuple[float, float]:
    """Scale x by factor until f(x) and ref differ in sign; returns (x, f(x)).

    At most `budget` expansions follow the first evaluation.  Raises
    SolveError when the budget runs out, or when f faults (see guarded) or
    returns a non-finite value on the way.
    """
    failure = f"could not bracket the {what}"
    for _ in range(budget + 1):
        fx = guarded(f, x, failure)
        if not math.isfinite(fx):
            break
        if (fx > 0.0) != (ref > 0.0):
            return x, fx
        x *= factor
    raise SolveError(failure)


def solve(f, df, lo: float, hi: float, flo: float, fhi: float,
          x: float | None = None) -> float:
    """Root of f in [lo, hi] by safeguarded Newton-bisection.

    Only the signs of flo = f(lo) and fhi = f(hi) are read.  Each step
    evaluates f at x (default: the midpoint), keeps the part of the bracket
    with the sign change, and takes the Newton step with derivative df when
    it is finite and stays inside, else moves x to the midpoint.  Returns
    once a step is within 4 ulp or the bracket cannot split; with df=None
    that is bisection to float exhaustion.  SolveError without a sign change.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise SolveError("root solve called without a sign change")
    if x is None or not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(_ITERATIONS):
        if x <= lo or x >= hi:
            break
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo = x
        else:
            hi = x
        if df is not None:
            try:
                x_new = x - fx / df(x)
            except (OverflowError, ZeroDivisionError):
                x_new = math.nan
            if abs(x_new - x) <= 4.0 * math.ulp(x):  # false for a NaN or infinite step
                return min(max(x_new, lo), hi)
            if lo < x_new < hi:
                x = x_new
                continue
        x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


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
