"""Construction of a class weight attaining the sharp bound at a given point.

Per region (threshold 1):

* I   : two-step weight on unit-curve values u, v >= 1 from a unit-curve
        chord through x that stays inside the domain: the chord through
        (1, 1), or else (as in the sliver beyond the upper tangent line) a
        chord through x tangent to the extreme curve, found by a root solve.
* II  : three-step weight on values (v_minus, 1, v_plus) from a segment
        through x with endpoints on the two tangent lines from (1, 1).  The
        default segment direction is the chord between the v_minus and v_plus
        unit-curve points; if the segment leaves the domain (it can near the
        extreme curve) the direction rotates toward either tangent direction,
        and the local extreme-curve tangent direction is also tried.
* III : two-step weight on values (1, v) split at mu = (x1 - v**p1)/(1 - v**p1).
* IV  : on the extreme curve, the three-piece profile
        {1, then v_minus, then v_minus*(a/t)**nu} with a = (v/v_minus)**(1/nu)
        and plateau fraction rho = (gm**p1 - vm**p1)/(1 - vm**p1); strictly
        inside, the extreme-curve profile is dilated into [0, lam] and
        extended by the constant v, which equals the level-v floor (pointwise
        max) of the dilated profile with its power tail continued to 1.

Every construction verifies its own moments before returning, and every
chord it uses passes the exact segment test geometry.segment_in_domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._roots import bisect, expand
from .errors import DomainError, SolveError
from .geometry import (Point, Region, classify, gamma1_point, in_domain, on_gamma1,
                       on_gammaq, segment_in_domain)
from .implicit_v import solve_v_III, solve_v_IV
from .params import DerivedConstants, Params
from .weights import ConstPiece, Piece, PowerPiece, Weight, moment

_DIRECTION_STEPS = 32


@dataclass(frozen=True)
class ExtremalPlan:
    region: Region
    data: dict

    def as_dict(self) -> dict:
        return {"region": self.region.value, **self.data}


@dataclass(frozen=True)
class Region2Segment:
    """Tangent-to-tangent segment through a region-II point with its exact
    three-step decomposition; lengths are (v_minus piece, unit piece, v_plus
    piece) and are computed from cancellation-free complements."""

    x_minus: Point
    x_plus: Point
    lam: float
    mu_minus: float
    mu_plus: float
    lengths: tuple[float, float, float]


def _crossing_above_one(ratio: float, p: Params) -> float | None:
    """Unit-curve parameter u > 1 with (u**p1 - 1)/(u**p2 - 1) = ratio."""
    f = lambda s: math.expm1(p.p1 * s) / math.expm1(p.p2 * s) - ratio  # s = log u > 0
    f_at_one = p.p1 / p.p2 - ratio
    if f_at_one == 0.0:
        return None
    try:
        s_hi, f_hi = expand(f, 0.5, 4.0, f_at_one, 60, "unit-curve crossing with u > 1")
    except SolveError:
        return None
    return math.exp(bisect(f, 0.0, s_hi, f_at_one, f_hi))


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
    terms.  The second tangent serves extreme classes, where the chord
    through (1, 1) loses the low digits of a tiny x2.
    """
    if abs(x[1] - 1.0) > 1e-13:
        u = _crossing_above_one((x[0] - 1.0) / (x[1] - 1.0), p)
        if u is not None and u > 1.0:
            got = _chord_split(x, u, 1.0, p)
            if got is not None:
                return got

    def miss(v: float) -> float:  # both mixing weights formed directly: 1 - mu cancels
        (u1, u2), (v1, v2) = gamma1_point(v / c.v_minus, p), gamma1_point(v, p)
        return ((x[0] - v1) * u2 + (u1 - x[0]) * v2) / (u1 - v1) - x[1]

    r = math.exp(math.log(x[0]) / p.p1)
    for lo, hi in ((r * c.v_minus, r / c.gamma_plus), (r / c.gamma_plus, r)):
        try:
            v = bisect(miss, lo, hi, miss(lo), miss(hi))
        except SolveError:  # rounding hid the sign change: no chord here
            continue
        u = v / c.v_minus
        if abs(v - 1.0) < 1e-9:
            v = 1.0  # the upper tangent from (1, 1)
        got = _chord_split(x, u, v, p) if v >= 1.0 else None
        if got is not None:
            return got
    raise SolveError(f"no feasible unit-curve chord found through {x} in region I")


def _line_intersect(x: Point, d: tuple[float, float], slope: float, intercept: float):
    denom = slope * d[0] - d[1]
    if abs(denom) < 1e-14 * max(1.0, abs(slope * d[0]), abs(d[1])):
        return None
    t = (x[1] - slope * x[0] - intercept) / denom
    return (x[0] + t * d[0], x[1] + t * d[1])


def region2_segment(x: Point, c: DerivedConstants, p: Params) -> Region2Segment:
    """Segment through x with endpoints on the two tangent lines from (1,1).

    x = lam*x_plus + (1-lam)*x_minus with the endpoints' unit-curve mixing
    weights mu_minus/mu_plus; the returned lengths are the exact three-step
    decomposition.  Raises SolveError when no rotation produces a segment
    inside the domain.
    """
    slope_p = (p.p2 / p.p1) * c.A
    slope_m = (p.p2 / p.p1) * p.q ** (-p.p2) * c.gamma_minus ** (p.p2 - p.p1)
    int_p = 1.0 - slope_p
    int_m = 1.0 - slope_m
    vm_pt = gamma1_point(c.v_minus, p)
    vp_pt = gamma1_point(c.v_plus, p)
    vm1, vp1 = vm_pt[0], vp_pt[0]

    def norm(d):
        n = math.hypot(d[0], d[1])
        return (d[0] / n, d[1] / n)

    d0 = norm((vp_pt[0] - vm_pt[0], vp_pt[1] - vm_pt[1]))
    d_tangent = norm((1.0, (p.p2 / p.p1) * x[1] / x[0]))  # extreme-curve tangent at x
    d_lm = norm((1.0, slope_m))
    d_lp = norm((1.0, slope_p))

    candidates = [d0, d_tangent]
    for target in (d_lm, d_lp):
        for k in range(1, _DIRECTION_STEPS):
            th = k / _DIRECTION_STEPS
            mix = ((1.0 - th) * d0[0] + th * target[0], (1.0 - th) * d0[1] + th * target[1])
            if math.hypot(*mix) < 1e-12:
                continue
            candidates.append(norm(mix))

    for d in candidates:
        xm = _line_intersect(x, d, slope_m, int_m)
        xp = _line_intersect(x, d, slope_p, int_p)
        if xm is None or xp is None:
            continue
        span1, span2 = xp[0] - xm[0], xp[1] - xm[1]
        if abs(span1) >= abs(span2):
            lam = (x[0] - xm[0]) / span1 if span1 != 0.0 else 0.0
        else:
            lam = (x[1] - xm[1]) / span2 if span2 != 0.0 else 0.0
        # Complements computed directly: (1 - mu) = (x1 - 1)/(v**p1 - 1) is
        # cancellation-free even when the v_plus anchor is astronomically far,
        # where mu itself rounds to 1 and loses the far piece's whole length.
        omm = (xm[0] - 1.0) / (vm1 - 1.0)
        omp = (xp[0] - 1.0) / (vp1 - 1.0)
        tol = 1e-9
        if not (-tol <= lam <= 1.0 + tol and -tol <= omm <= 1.0 + tol
                and -tol <= omp <= 1.0 + tol):
            continue
        clamp = lambda t: min(max(t, 0.0), 1.0)
        lam = clamp(lam)
        lens = ((1.0 - lam) * clamp(omm),        # value v_minus
                0.0,                             # value 1, filled below
                lam * clamp(omp))                # value v_plus
        lens = (lens[0], 1.0 - lens[0] - lens[2], lens[2])
        # Near-parallel intersections can pass the range checks while the
        # implied three-step weight misses the moments; exactness is part of
        # feasibility so the direction search skips ill-conditioned segments.
        ok = lens[1] >= -1e-12
        for pk, xk in ((p.p1, x[0]), (p.p2, x[1])):
            if not ok:
                break
            got = lens[0] * c.v_minus**pk + lens[1] + lens[2] * c.v_plus**pk
            if abs(got - xk) > 1e-9 * abs(xk):
                ok = False
        if not ok:
            continue
        if not (segment_in_domain(xm, x, p, 1e-10) and segment_in_domain(x, xp, p, 1e-10)):
            continue
        return Region2Segment(x_minus=xm, x_plus=xp, lam=lam,
                              mu_minus=1.0 - clamp(omm), mu_plus=1.0 - clamp(omp),
                              lengths=lens)
    raise SolveError(f"no admissible tangent-to-tangent segment through {x}")


def _tangent_mix(x: Point, c: DerivedConstants, p: Params) -> tuple[float, float]:
    """Tangent parameter v of a region-IV point and its mixing weight lam in
    [0, 1] between the unit-curve base point and the extreme-curve touch point."""
    v = solve_v_IV(x, c, p)
    y1 = (c.gamma_plus * v) ** p.p1
    vp1 = v**p.p1
    lam = 1.0 if on_gammaq(x, p) else (x[0] - vp1) / (y1 - vp1)
    return v, min(max(lam, 0.0), 1.0)


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
        pieces.append(ConstPiece(0.0, b1, 1.0))
    if b2 > b1:
        pieces.append(ConstPiece(b1, b2, c.v_minus))
    if tail_end > b2:
        coef = c.v_minus * b2**c.nu
        if not (coef > 0.0 and math.isfinite(coef)):
            raise SolveError(
                f"power-tail coefficient {coef} not representable in double "
                f"precision (nu={c.nu}); parameters too extreme")
        pieces.append(PowerPiece(b2, tail_end, coef, c.nu))
    return pieces


def build(x: Point, c: DerivedConstants, p: Params) -> tuple[Weight, ExtremalPlan]:
    """A class weight with moments x whose super-level set at 1 has measure B(x)."""
    if not in_domain(x, p):
        raise DomainError(f"point {x} outside the moment domain")

    if on_gamma1(x, p):
        v = math.exp(math.log(x[0]) / p.p1)
        w = Weight((ConstPiece(0.0, 1.0, v),))
        plan = ExtremalPlan(Region.GAMMA1, {"v": v})
        return _verified(w, plan, x, p)

    region = classify(x, c, p)

    if region == Region.I:
        u, v, mu = region1_chord(x, c, p)
        pieces: list[Piece] = []
        if mu > 0.0:
            pieces.append(ConstPiece(0.0, mu, u))
        if mu < 1.0:
            pieces.append(ConstPiece(mu, 1.0, v))
        plan = ExtremalPlan(Region.I, {"u": u, "v": v, "mu": mu})
        return _verified(Weight(tuple(pieces)), plan, x, p)

    if region == Region.II:
        seg = region2_segment(x, c, p)
        l1, l2, l3 = seg.lengths
        b1, b2 = l1, l1 + l2
        pieces = []
        if b1 > 0.0:
            pieces.append(ConstPiece(0.0, b1, c.v_minus))
        if b2 > b1:
            pieces.append(ConstPiece(b1, b2, 1.0))
        if 1.0 > b2:
            pieces.append(ConstPiece(b2, 1.0, c.v_plus))
        plan = ExtremalPlan(Region.II, {"lam": seg.lam, "mu_minus": seg.mu_minus,
                                        "mu_plus": seg.mu_plus})
        return _verified(Weight(tuple(pieces)), plan, x, p)

    if region == Region.III:
        v = solve_v_III(x, p)
        mu = (x[0] - v**p.p1) / (-math.expm1(p.p1 * math.log(v)))
        mu = min(max(mu, 0.0), 1.0)
        pieces = []
        if mu > 0.0:
            pieces.append(ConstPiece(0.0, mu, 1.0))
        if mu < 1.0:
            pieces.append(ConstPiece(mu, 1.0, v))
        plan = ExtremalPlan(Region.III, {"v": v, "mu": mu})
        return _verified(Weight(tuple(pieces)), plan, x, p)

    # Region IV
    v, lam = _tangent_mix(x, c, p)
    if lam <= 0.0:
        raise SolveError(f"degenerate tangent mixing weight at {x}")
    pieces = _boundary_iv_pieces(v, c, p, lam, lam)
    if lam < 1.0:
        pieces.append(ConstPiece(lam, 1.0, v))
    a = math.exp(math.log(v / c.v_minus) / c.nu)
    plan = ExtremalPlan(Region.IV, {"v": v, "nu": c.nu, "a": a, "lambda_glue": lam})
    return _verified(Weight(tuple(pieces)), plan, x, p)


def extended_iv_weight(x: Point, c: DerivedConstants, p: Params) -> tuple[Weight, float]:
    """The dilated extreme-curve profile with its power tail run out to 1.

    Returns (weight, v); its level-v floor (cutoff_above) must agree with
    build(x) pointwise, which the test suite checks.
    """
    v, lam = _tangent_mix(x, c, p)
    pieces = _boundary_iv_pieces(v, c, p, lam, 1.0)
    return Weight(tuple(pieces)), v


def _verified(w: Weight, plan: ExtremalPlan, x: Point, p: Params) -> tuple[Weight, ExtremalPlan]:
    for pexp, target in ((p.p1, x[0]), (p.p2, x[1])):
        got = moment(w, pexp)
        if abs(got - target) > 1e-8 * max(abs(target), 1e-300):
            raise SolveError(
                f"constructed weight misses moment p={pexp}: {got} vs {target} "
                f"(plan {plan.as_dict()})")
    return w, plan
