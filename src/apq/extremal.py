"""Construction of a class weight attaining the sharp bound at a given point.

Per region (threshold 1):

* I   : two-step weight on unit-curve values u, v >= 1 from a unit-curve
        chord through x that stays inside the domain: the chord through
        (1, 1), or else (as in the sliver beyond the upper tangent line) a
        chord through x tangent to the extreme curve, found by a root solve.
* II  : three-step weight on values (v_minus, 1, v_plus) whose lengths are
        x's barycentric coordinates in the triangle U(v_minus), U(1),
        U(v_plus) on the unit curve U; its edges through U(1) are the two
        tangent lines from (1, 1).  Each length is a ratio of areas, the
        area x spans with the opposite edge over the triangle's, both read
        from geometry.side, so no length is a difference of numbers near 1.
        The anchor with the larger power sits at t = 0, where its length is
        exact.
* III : two-step weight on values (1, v) split at mu = (x1 - v**p1)/(1 - v**p1).
* IV  : on the extreme curve, the three-piece profile
        {1, then v_minus, then v_minus*(a/t)**nu} with a = (v/v_minus)**(1/nu)
        and plateau fraction rho = (gm**p1 - vm**p1)/(1 - vm**p1); strictly
        inside, the extreme-curve profile is dilated into [0, lam] and
        extended by the constant v, which equals the level-v floor (pointwise
        max) of the dilated profile with its power tail continued to 1.

decompose is the one split of a point into unit-curve steps, in every region
and on the unit curve; build lays those steps out on [0, 1] in regions I-III,
and the dyadic majorization campaign closes its leaves with them.  It reads
the region, and in regions III and IV the value and v, from the point's
bellman.evaluate result: the campaign passes the one it already has, build
passes none and decompose evaluates the point itself.  Region IV's steps are
a tangent split, not an extremal weight: build takes only their v.  Every
construction verifies its own moments before returning, and every region-I
chord passes the exact segment test geometry.segment_in_domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._roots import guarded, solve
from .bellman import BellmanValue, evaluate
from .errors import SolveError
from .geometry import (Point, Region, gamma1_point, on_gamma1, on_gammaq, segment_in_domain,
                       side)
from .implicit_v import _chord_crossing
from .params import DerivedConstants, Params, require_powers
from .weights import Piece, Weight, moment


@dataclass(frozen=True)
class ExtremalPlan:
    region: Region
    data: dict

    def as_dict(self) -> dict:
        return {"region": self.region.value, **self.data}


def _chord_split(x: Point, u: float, v: float, p: Params) -> tuple[float, float, float] | None:
    """(u, v, mu) with x = mu*U(u) + (1 - mu)*U(v) on the unit curve U, or None
    when mu leaves [0, 1], the two-step weight misses the moments of x, or
    the chord leaves the domain."""
    up, vp = gamma1_point(u, p), gamma1_point(v, p)
    mu = (x[0] - vp[0]) / (up[0] - vp[0])
    if not -1e-9 <= mu <= 1.0 + 1e-9:
        return None
    mu = min(max(mu, 0.0), 1.0)
    for pk, xk in ((p.p1, x[0]), (p.p2, x[1])):
        if abs(mu * u**pk + (1.0 - mu) * v**pk - xk) > 1e-9 * abs(xk):
            return None
    if not segment_in_domain(up, vp, p, 1e-10):
        return None
    return (u, v, mu)


def region1_chord(x: Point, c: DerivedConstants, p: Params) -> tuple[float, float, float]:
    """Feasible unit-curve chord (u, v, mu) with u, v >= 1 through x.

    The chord through (1, 1) works everywhere except the sliver between the
    upper tangent line and the extreme curve, so it is tried first.  Then
    come the two tangents to the extreme curve through x.  The tangent from
    unit-curve parameter v meets the unit curve again at v/v_minus; with
    r = x1**(1/p1), the one touching before x (the sliver's) has v in
    [r*v_minus, r/gamma_plus], the one touching after x has v in
    [r/gamma_plus, r].  v is the root of the chord's miss of x2, whose end
    values are the signed distances of x to the two curves; the region-IV
    tangent residual has the same root but cancels when x2 is far below its
    terms.
    """
    try:
        u = _chord_crossing(x, p, True)
    except SolveError:  # no chord through (1, 1)
        u = 1.0
    if u > 1.0:
        got = _chord_split(x, u, 1.0, p)
        if got is not None:
            return got

    def miss(v: float) -> float:  # both mixing weights formed directly: 1 - mu cancels
        (u1, u2), (v1, v2) = gamma1_point(v / c.v_minus, p), gamma1_point(v, p)
        return ((x[0] - v1) * u2 + (u1 - x[0]) * v2) / (u1 - v1) - x[1]

    r = math.exp(math.log(x[0]) / p.p1)
    for lo, hi in ((r * c.v_minus, r / c.gamma_plus), (r / c.gamma_plus, r)):
        try:
            flo, fhi = (guarded(miss, t, "chord miss overflows") for t in (lo, hi))
            v = solve(miss, None, lo, hi, flo, fhi)
        except SolveError:  # an end overflowed, or rounding hid the sign change: no chord here
            continue
        u = v / c.v_minus
        if abs(v - 1.0) < 1e-9:
            v = 1.0  # the upper tangent from (1, 1)
        got = _chord_split(x, u, v, p) if v >= 1.0 else None
        if got is not None:
            return got
    raise SolveError(f"no feasible unit-curve chord found through {x} in region I")


def region2_segment(x: Point, c: DerivedConstants,
                    p: Params) -> tuple[float, float, float]:
    """Lengths (l1, l2, l3) of a region-II point's three steps on
    (v_minus, 1, v_plus).

    The lengths are x's barycentric coordinates in the triangle U(v_minus),
    U(1), U(v_plus), whose edges through U(1) = (1, 1) are the two tangent
    lines.  Each is a ratio of twice-areas from geometry.side: the triangle
    x spans with the edge opposite a vertex, over the whole triangle's, so
    no length is a difference of numbers near 1, and each is exactly 0 at
    the other two vertices.  Raises SolveError when the lengths miss the
    moments of x.
    """
    lo, one, hi = gamma1_point(c.v_minus, p), gamma1_point(1.0, p), gamma1_point(c.v_plus, p)
    det = side(lo, one, hi)  # never 0 for three unit-curve points
    l1, l2, l3 = (min(max(side(x, a, b) / det, 0.0), 1.0)
                  for a, b in ((one, hi), (hi, lo), (lo, one)))
    for k, pk in ((0, p.p1), (1, p.p2)):
        got = l1 * lo[k] + l2 * one[k] + l3 * hi[k]
        if abs(got - x[k]) > 1e-9 * abs(x[k]):
            raise SolveError(f"region-II lengths miss moment p={pk} at {x}: {got} vs {x[k]}")
    return l1, l2, l3


def decompose(x: Point, c: DerivedConstants, p: Params,
              at: BellmanValue | None = None) -> tuple[Region, list[tuple[float, float]]]:
    """x's region and its split into unit-curve steps [(length, value)].

    On the unit curve one step; in region I region1_chord's (mu, u),
    (1 - mu, v); in region II region2_segment's lengths on (v_minus, 1,
    v_plus), in that order; in region III the chord through U(1), (mu, 1),
    (1 - mu, v), with mu = B(x).  In region IV x rides its tangent line out to
    the second unit-curve crossing at v/v_minus: (th, v/v_minus), (1 - th, v).
    That split is not extremal (the extremal weight has a power tail), and
    build reads only its v.

    at is evaluate(x, c, p), passed by a caller that already has it (the
    majorization tree evaluates every node); build passes none and
    decompose evaluates x itself.  Its domain test, region, value and v are
    the only ones used, so nothing is classified or solved twice.  Raises
    DomainError outside the domain.
    """
    require_powers(p, "decompose")
    if at is None:
        at = evaluate(x, c, p)
    if on_gamma1(x, p):
        return Region.GAMMA1, [(1.0, math.exp(math.log(x[0]) / p.p1))]
    region = at.region
    if region == Region.I:
        u, v, mu = region1_chord(x, c, p)
        return region, [(mu, u), (1.0 - mu, v)]
    if region == Region.II:
        l1, l2, l3 = region2_segment(x, c, p)
        return region, [(l1, c.v_minus), (l2, 1.0), (l3, c.v_plus)]
    if region == Region.III:
        mu = min(max(at.value, 0.0), 1.0)
        return region, [(mu, 1.0), (1.0 - mu, at.v)]
    v = at.v
    v2 = v / c.v_minus
    lo, hi = v**p.p1, v2**p.p1
    th = min(max((x[0] - lo) / (hi - lo), 0.0), 1.0)
    return region, [(th, v2), (1.0 - th, v)]


def _tangent_mix(x: Point, v: float, c: DerivedConstants, p: Params) -> float:
    """Mixing weight lam in [0, 1] of a region-IV point with tangent parameter
    v between the unit-curve base point and the extreme-curve touch point."""
    y1 = (c.gamma_plus * v) ** p.p1
    vp1 = v**p.p1
    lam = 1.0 if on_gammaq(x, p) else (x[0] - vp1) / (y1 - vp1)
    return min(max(lam, 0.0), 1.0)


def _boundary_iv_pieces(v: float, c: DerivedConstants, p: Params,
                        lam: float, tail_end: float) -> list[Piece]:
    """Extreme-curve profile for tangent parameter v, dilated into [0, lam],
    with its power tail run out to tail_end."""
    a = math.exp(math.log(v / c.v_minus) / c.nu)
    rho = (c.gamma_minus**p.p1 - c.v_minus**p.p1) / (1.0 - c.v_minus**p.p1)
    b1 = rho * a * lam
    b2 = a * lam
    pieces: list[Piece] = []
    if b1 > 0.0:
        pieces.append(Piece(0.0, b1, 1.0))
    if b2 > b1:
        pieces.append(Piece(b1, b2, c.v_minus))
    if tail_end > b2:
        coef = c.v_minus * b2**c.nu
        if not (coef > 0.0 and math.isfinite(coef)):
            raise SolveError(
                f"power-tail coefficient {coef} not representable in double "
                f"precision (nu={c.nu}); parameters too extreme")
        pieces.append(Piece(b2, tail_end, coef, c.nu))
    return pieces


def build(x: Point, c: DerivedConstants, p: Params) -> tuple[Weight, ExtremalPlan]:
    """A class weight with moments x whose super-level set at 1 has measure B(x)."""
    require_powers(p, "build")
    region, steps = decompose(x, c, p)

    if region == Region.IV:
        v = steps[1][1]
        lam = _tangent_mix(x, v, c, p)
        if lam <= 0.0:
            raise SolveError(f"degenerate tangent mixing weight at {x}")
        pieces = _boundary_iv_pieces(v, c, p, lam, lam)
        if lam < 1.0:
            pieces.append(Piece(lam, 1.0, v))
        a = math.exp(math.log(v / c.v_minus) / c.nu)
        plan = ExtremalPlan(Region.IV, {"v": v, "nu": c.nu, "a": a, "lambda_glue": lam})
        return _verified(Weight(tuple(pieces)), plan, x, p)

    if region == Region.GAMMA1:
        data = {"v": steps[0][1]}
    elif region == Region.I:
        data = {"u": steps[0][1], "v": steps[1][1], "mu": steps[0][0]}
    elif region == Region.III:
        data = {"v": steps[1][1], "mu": steps[0][0]}
    else:
        (l1, _), (l2, _), (l3, _) = steps
        data = {"lam": l3 / (l1 + l3) if l1 + l3 > 0.0 else 0.0, "mu_minus": l2, "mu_plus": l2}
        # Only the piece at t = 0 keeps its exact length (the others are
        # differences of floats near 1), so the anchor with the larger power
        # goes there; the mirrored weight has the same norm and distribution.
        if p.p1 * math.log(c.v_plus) > p.p2 * math.log(c.v_minus):
            steps = steps[::-1]
    pieces = []
    lo = 0.0
    for k, (length, value) in enumerate(steps):
        hi = 1.0 if k == len(steps) - 1 else min(lo + length, 1.0)
        if hi > lo:
            pieces.append(Piece(lo, hi, value))
        lo = hi
    return _verified(Weight(tuple(pieces)), ExtremalPlan(region, data), x, p)


def _verified(w: Weight, plan: ExtremalPlan, x: Point, p: Params) -> tuple[Weight, ExtremalPlan]:
    for pexp, target in ((p.p1, x[0]), (p.p2, x[1])):
        got = moment(w, pexp)
        if abs(got - target) > 1e-8 * max(abs(target), 1e-300):
            raise SolveError(
                f"constructed weight misses moment p={pexp}: {got} vs {target} "
                f"(plan {plan.as_dict()})")
    return w, plan
