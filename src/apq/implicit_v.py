"""Chord / tangent parameter v(x) in regions III and IV, with sign diagnostics.

Region III: v != 1 solves the chord equation (x, U(1) and U(v) collinear)

    v**p2 * (1 - x1) - v**p1 * (1 - x2) = x2 - x1.

Its residual vanishes at v = 1 and once more on each side of 1 where the
line through U(1) and x meets the unit curve again.  One solve
(_chord_crossing) brackets that crossing on the residual itself, in
u = log v, below 1 for region III and above 1 for the region-I chord of the
extremal weights; near v = 1 it writes the residual in the offsets
v**p - 1 = expm1(p*log v), which keep their digits there.

Region IV: v solves the tangent-line equation

    x2 = (p2/p1) * A * v**(p2-p1) * (x1 - v**p1) + v**p2,

where A = Q**(-p2)*gamma_plus**(p2-p1).  The code writes both through the
primitives of params (v**p2 as a coordinate is power2(v), p2 as a factor k2,
the 1 of U(1) one2), so they cover the limiting class p2 = 0 too.

Among the roots of the tangent equation, the admissible one has x strictly
between the unit-curve base point and the touch point, i.e. v in
[r/gamma_plus, r] with r = x1**(1/p1).  At those endpoints the residual
equals the (signed) distance of x2 from the extreme curve and the unit curve
respectively, so the bracket carries a sign change unless x lies within
roundoff of one curve, where that end is the root; the second root of the
equation lies below r/gamma_plus and never enters the bracket.

Both solvers hand their bracket to ``_roots.solve``, a Newton iteration on
the residual (in u = log v for the chord) that bisects whenever a step
leaves the bracket, so each solve settles in about ten residual evaluations.
A warm start v0 from a nearby point starts the same bracketed iteration.
"""

from __future__ import annotations

import math

from ._roots import expand, guarded, solve
from .errors import DomainError, SolveError
from .geometry import Point, Region, classify, in_domain
from .params import DerivedConstants, Params


def chord_residual(v: float, x: Point, p: Params) -> float:
    # Summed exactly: where the terms are exact (v = 1/2 at x = (3/4, 3/2) in
    # class (1, -1)) the residual vanishes at the root alone, and Newton lands on it.
    x1, x2 = x
    return math.fsum((p.power2(v) * (1.0 - x1), -v**p.p1 * (p.one2 - x2), p.one2 * x1 - x2))


def tangent_residual(v: float, x: Point, c: DerivedConstants, p: Params) -> float:
    x1, x2 = x
    c0 = (p.k2 / p.p1) * c.A
    return c0 * x1 * v ** (p.p2 - p.p1) - c0 * v**p.p2 + p.power2(v) - x2


def _tangent_residual_dv(v: float, x: Point, c: DerivedConstants, p: Params) -> float:
    """d tangent_residual / dv."""
    c0 = (p.k2 / p.p1) * c.A
    return (c0 * (p.p2 - p.p1) * x[0] * v ** (p.p2 - p.p1 - 1.0)
            + (p.k2 - c0 * p.p2) * v ** (p.p2 - 1.0))


def _chord_scale(v: float, x: Point, p: Params) -> float:
    x1, x2 = x
    return max(abs(p.one2 * x1 - x2), abs(p.power2(v) * (1.0 - x1)),
               abs(v**p.p1 * (p.one2 - x2)), 1e-300)


def _tangent_scale(v: float, x: Point, c: DerivedConstants, p: Params) -> float:
    x1, x2 = x
    c0 = (p.k2 / p.p1) * c.A
    return max(abs(x2), abs(c0 * x1 * v ** (p.p2 - p.p1)), abs(c0 * v**p.p2),
               abs(p.power2(v)), 1e-300)


def _chord_slope_log(v: float, x: Point, p: Params) -> float:
    """d chord_residual / d log v = p2*v**p2*(1-x1) - p1*v**p1*(1-x2)."""
    x1, x2 = x
    return p.k2 * v**p.p2 * (1.0 - x1) - p.p1 * v**p.p1 * (p.one2 - x2)


def _chord_crossing(x: Point, p: Params, above: bool, v0: float | None = None) -> float:
    """Second unit-curve crossing v != 1 of the line through U(1) and x: v > 1
    when `above` is set, v < 1 otherwise.

    The root is bracketed on the chord residual itself in u = log v.  It
    vanishes at u = 0 too, so just past 0 on the chosen side it has the sign
    of +-(its slope at U(1)), and the bracket grows from +-0.5 until the sign
    turns.  v0, when given, is a nearby solution that starts the Newton
    iteration.  SolveError when x is U(1), when the chord is tangent to the
    unit curve at U(1), or when no crossing is bracketed.
    """
    x1, x2 = x
    if abs(x1 - 1.0) < 1e-14 and abs(x2 - p.one2) < 1e-14:
        raise SolveError("degenerate chord: x = U(1) determines no parameter")
    side = 1.0 if above else -1.0
    ref = side * _chord_slope_log(1.0, x, p)  # the residual's sign just past u = 0
    if ref == 0.0:
        raise SolveError("chord through (1,1) is tangent to the unit curve; no second crossing")

    # Near v = 1 the raw terms cancel down to their rounding; written in
    # offsets from U(1) the same residual keeps its digits there (while far
    # from 1 the offsets would round away the powers, which the raw form keeps).
    def g(u: float) -> float:
        if abs(p.p1 * u) < 0.5 and abs(p.p2 * u) < 0.5:
            return (1.0 - x1) * p.offset2(u) - (p.one2 - x2) * math.expm1(p.p1 * u)
        return chord_residual(math.exp(u), x, p)
    dg = lambda u: _chord_slope_log(math.exp(u), x, p)
    u_end, g_end = expand(g, 0.5 * side, 4.0, ref, 60, "unit-curve crossing with v "
                          + ("> 1" if above else "< 1"))
    u0 = math.log(v0) if v0 is not None and v0 > 0.0 else None
    if above:
        return math.exp(solve(g, dg, 0.0, u_end, ref, g_end, u0))
    return math.exp(solve(g, dg, u_end, 0.0, g_end, ref, u0))


def solve_v_III(x: Point, p: Params, v0: float | None = None) -> float:
    """Chord parameter v < 1 for a region-III point (or its closure).

    v0, when given, is a nearby solution (stencil evaluations) that starts
    the Newton iteration.  Raises SolveError where _chord_crossing does, or
    when the root misses the chord equation or lands on the wrong side.
    """
    v = _chord_crossing(x, p, False, v0)
    res = abs(chord_residual(v, x, p)) / _chord_scale(v, x, p)
    if res > 1e-11:
        raise SolveError(f"chord solve residual {res:.3e} too large at x={x}")
    gap = x[0] - v**p.p1
    if abs(gap) > 1e-12 * max(1.0, abs(x[0])) \
            and math.copysign(1.0, gap) != math.copysign(1.0, p.p1):
        raise SolveError(f"chord solve landed on the wrong side at x={x}")
    return v


def solve_v_IV(x: Point, c: DerivedConstants, p: Params,
               v0: float | None = None) -> float:
    """Tangent parameter v for a region-IV point (or the IV-side boundary);
    v0, a nearby solution (stencil evaluations), starts the Newton iteration."""
    x1, x2 = x
    r = math.exp(math.log(x1) / p.p1)
    v_lo = r / c.gamma_plus
    v_hi = r

    f = lambda v: tangent_residual(v, x, c, p)
    df = lambda v: _tangent_residual_dv(v, x, c, p)
    end = lambda v: (f(v), _tangent_scale(v, x, c, p))

    failure = "tangent residual overflows at an end of its bracket"
    f_lo, scale_lo = guarded(end, v_lo, failure)
    f_hi, scale_hi = guarded(end, v_hi, failure)
    if abs(f_lo) <= 1e-13 * scale_lo:
        return v_lo  # x on the extreme curve
    if abs(f_hi) <= 1e-13 * scale_hi:
        return v_hi  # x on the unit curve

    if (f_lo > 0.0) == (f_hi > 0.0):
        # The bracket ends are x's signed distances to the two curves, so
        # equal signs mean x lies within roundoff of one of them: take the
        # nearer curve, subject to the residual check below.
        v = v_lo if abs(f_lo) / scale_lo <= abs(f_hi) / scale_hi else v_hi
    else:
        v = solve(f, df, v_lo, v_hi, f_lo, f_hi, v0)

    res = abs(f(v)) / _tangent_scale(v, x, c, p)
    if res > 1e-11:
        raise SolveError(f"tangent solve residual {res:.3e} too large at x={x}")
    return v


def _solve_v(x: Point, region: Region, c: DerivedConstants, p: Params,
             v0: float | None = None) -> float | None:
    """x's implicit parameter in the given region: the chord parameter in III,
    the tangent parameter in IV, None in the regions that have none."""
    if region == Region.III:
        return solve_v_III(x, p, v0)
    if region == Region.IV:
        return solve_v_IV(x, c, p, v0)
    return None


def tangent_pi(x: Point, c: DerivedConstants, p: Params) -> float:
    """pi = -(dF/dv) / (p2*v**p2) at a region-IV point, F the tangent residual
    and v its tangent parameter; on the tangent it equals
    A*x1/v**(p1+1) - x2/v**(p2+1), negative throughout region IV."""
    v = solve_v_IV(x, c, p)
    return -_tangent_residual_dv(v, x, c, p) / (p.k2 * v**p.p2)


def dv_sign_check(x: Point, region: Region, p: Params, c: DerivedConstants) -> bool:
    """Finite-difference check of the signs of dv/dx1 (and dv/dx2 in IV).

    Expected: sig(dv/dx1) = -sig(p1) in both regions, sig(dv/dx2) = sig(p2)
    in region IV.  The step shrinks once if it crosses a region boundary.
    """
    if region not in (Region.III, Region.IV):
        raise DomainError(f"sign check applies to regions III and IV, not {region}")
    if classify(x, c, p) != region:
        raise DomainError(f"x={x} does not lie in region {region}")
    x1, x2 = x
    s1 = math.copysign(1.0, p.p1)
    s2 = math.copysign(1.0, p.p2)

    def central(coord: int) -> float:
        h = 1e-5 * max(1.0, abs(x[coord]))
        for _ in range(2):
            xp = (x1 + h, x2) if coord == 0 else (x1, x2 + h)
            xm = (x1 - h, x2) if coord == 0 else (x1, x2 - h)
            if (in_domain(xp, p) and in_domain(xm, p)
                    and classify(xp, c, p) == region and classify(xm, c, p) == region):
                return (_solve_v(xp, region, c, p) - _solve_v(xm, region, c, p)) / (2.0 * h)
            h *= 1e-2
        raise SolveError(f"finite-difference step keeps crossing a boundary at x={x}")

    if math.copysign(1.0, central(0)) != -s1:
        return False
    if region == Region.IV and math.copysign(1.0, central(1)) != s2:
        return False
    return True
