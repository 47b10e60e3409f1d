"""Domain geometry: the moment domain, its boundary curves, and the region split.

Coordinates are x = (x1, x2) = (<w**p1>, <w**p2>), or (<w>, <log w>) in the
limiting class p2 = 0 (see params).  The admissible domain is

    x2**(1/p2) <= x1**(1/p1) <= Q * x2**(1/p2),

(exp(x2) <= x1 <= Q * exp(x2) in the limiting class), tested in log space so
a single additive slack on log(x1)/p1 - root2(x2) means a uniform relative
slack on the power ratio.  The lower equality curve
(unit curve) carries the boundary data; the upper one is the extreme-class
curve touched by the two tangent lines from (1, 1).

Whether a whole segment stays in the domain has a closed form
(segment_log_ratio_range): log_ratio has at most one extremum along a line.

A line is a pair of anchor points a, b; side(x, a, b) = (x - a) x (b - a),
summed exactly from its six products, is the one test of which side x is
on.  No O(1) term is left to round at tiny coordinates, and side is exactly
0 at both anchors.  The tangent lines from U(1) = (1, 1) are anchored at
U(1) and at their touch points E(gamma_plus), E(gamma_minus).

The region split is written once with sign-normalized comparisons so all
three exponent sign cases (p1 > p2 > 0, p1 > 0 > p2, 0 > p1 > p2) share one
code path; the per-case inequality tables serve as test vectors.  Boundary
tie-breaks: points on the upper tangent line classify as II, points on the
lower tangent line as III (both its II-facing and IV-facing segments); they
hold exactly at the touch points, where side is 0.
"""

from __future__ import annotations

import enum
import math

from .errors import DomainError, SolveError
from .params import DerivedConstants, Params

Point = tuple[float, float]


class Region(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    GAMMA1 = "Gamma1"
    OUTSIDE = "Outside"


def log_ratio(x: Point, p: Params) -> float:
    """log of x1**(1/p1) / x2**(1/p2); lies in [0, log Q] on the domain."""
    x1, x2 = x
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise DomainError(f"non-finite point {x}")
    if x1 <= 0.0 or (x2 <= 0.0 and p.p2 != 0.0):
        raise DomainError(f"point must have positive power moments, got {x}")
    return math.log(x1) / p.p1 - p.root2(x2)


# Default relative slack of in_domain, and the tolerance of the on-curve tests.
_SLACK = 1e-12


def _log_q_band(p: Params, slack: float) -> tuple[float, float]:
    """log Q and the band slack * max(1, log Q) that a relative slack allows
    log_ratio past each boundary."""
    lq = math.log(p.q)
    return lq, slack * (lq if lq > 1.0 else 1.0)


def locate(x: Point, p: Params, slack: float = _SLACK) -> tuple[bool, bool]:
    """(x in the moment domain, x on the unit curve), both with relative slack,
    from one log_ratio and one log Q."""
    x1, x2 = x
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise DomainError(f"non-finite point {x}")
    if x1 <= 0.0 or (x2 <= 0.0 and p.p2 != 0.0):
        return False, False
    r = log_ratio(x, p)
    lq, s = _log_q_band(p, slack)
    return -s <= r <= lq + s, abs(r) <= s


def in_domain(x: Point, p: Params, slack: float = _SLACK) -> bool:
    """Membership in the moment domain with relative slack at both boundaries."""
    return locate(x, p, slack)[0]


def _stationary_log_ratio(a: Point, b: Point, p: Params) -> float | None:
    """log_ratio at the one interior extremum of the segment from a to b, if any.

    The extremum's parameter is measured from the nearer end: measured from a,
    an extremum within rounding of b would round onto b and drop out, so the
    answer would depend on the direction of the segment."""
    d1, d2 = b[0] - a[0], b[1] - a[1]
    if d1 * d2 != 0.0:
        den = d1 * d2 * (p.p2 - p.p1)
        s = (d2 * p.p1 * a[0] - d1 * p.p2 * a[1] - d1 * (1.0 - p.one2)) / den
        if s > 0.5:  # the same formula from b, along -d
            t = (d1 * p.p2 * b[1] - d2 * p.p1 * b[0] + d1 * (1.0 - p.one2)) / den
            if 0.0 < t < 1.0:
                return log_ratio((b[0] - t * d1, b[1] - t * d2), p)
        elif s > 0.0:
            return log_ratio((a[0] + s * d1, a[1] + s * d2), p)
    return None


def segment_log_ratio_range(a: Point, b: Point, p: Params) -> tuple[float, float]:
    """(min, max) of log_ratio along the segment from a to b, exactly.

    Along P + s*D the derivative D1/(p1*x1) - D2/(p2*x2) (D1/(p1*x1) - D2 in
    the limiting class) vanishes where a linear equation in s holds, so there
    is at most one interior extremum, at
    s* = (D2*p1*P1 - D1*p2*P2 - D1*(1 - one2)) / (D1*D2*(p2 - p1)); when
    D1*D2 = 0 the ratio is monotone and the endpoints suffice.
    """
    vals = [log_ratio(a, p), log_ratio(b, p)]
    mid = _stationary_log_ratio(a, b, p)
    if mid is not None:
        vals.append(mid)
    return min(vals), max(vals)


def segment_in_domain(a: Point, b: Point, p: Params, slack: float = _SLACK) -> bool:
    """Whole segment [a, b] inside the moment domain, with in_domain's slack.

    in_domain has tested both ends, so of segment_log_ratio_range only the
    interior extremum is left to test."""
    if not (in_domain(a, p, slack) and in_domain(b, p, slack)):
        return False
    mid = _stationary_log_ratio(a, b, p)
    lq, s = _log_q_band(p, slack)
    return mid is None or -s <= mid <= lq + s


def on_gamma1(x: Point, p: Params) -> bool:
    return abs(log_ratio(x, p)) <= _log_q_band(p, _SLACK)[1]


def on_gammaq(x: Point, p: Params) -> bool:
    lq, s = _log_q_band(p, _SLACK)
    return abs(log_ratio(x, p) - lq) <= s


def gamma1_point(v: float, p: Params) -> Point:
    """The unit-curve point with parameter v > 0."""
    return (v**p.p1, p.power2(v))


def gammaq_point(a: float, p: Params) -> Point:
    """The extreme-curve point with parameter a > 0.

    The tangent from unit-curve parameter v touches the extreme curve at the
    point with parameter a = gamma_sign * v.
    """
    return (a**p.p1, p.power2(a / p.q))


def side(x: Point, a: Point, b: Point) -> float:
    """(x - a) x (b - a), from its six products summed exactly: its sign is
    the side of the line through a and b that x is on, and it is exactly 0
    at a and at b.  SolveError when it overflows."""
    x1, x2 = x
    a1, a2 = a
    b1, b2 = b
    try:
        s = math.fsum((x1 * b2, -x1 * a2, -x2 * b1, x2 * a1, a2 * b1, -a1 * b2))
    except (ValueError, OverflowError):  # inf - inf, or a sum past the largest float
        s = math.inf
    if not math.isfinite(s):
        raise SolveError(f"side test of {x} against the line through {a} and {b} overflows")
    return s


def _split_quantities(x: Point, c: DerivedConstants, p: Params):
    """Sign-normalized coordinates of x against the two tangents from (1,1).

    d_sign is x2 minus the height at x1 of the tangent through its anchors
    U(1) and E(gamma_sign), read from side; e_sign compares x1 with the
    touch point's.
    """
    one = (1.0, p.one2)  # U(1)
    upper, lower = gammaq_point(c.gamma_plus, p), gammaq_point(c.gamma_minus, p)
    s1 = math.copysign(1.0, p.p1)
    s2 = math.copysign(1.0, p.p2)
    d_plus = -s2 * side(x, one, upper) / (upper[0] - 1.0)
    d_minus = -s2 * side(x, one, lower) / (lower[0] - 1.0)
    e_plus = s1 * (x[0] - upper[0])
    e_minus = s1 * (x[0] - lower[0])
    return d_plus, d_minus, e_plus, e_minus


def classify(x: Point, c: DerivedConstants, p: Params) -> Region:
    """Open-region tag of x (I..IV); Outside when not in the domain.

    Points on the two boundary curves are told apart by the explicit
    membership queries on_gamma1/on_gammaq, never by classify.
    """
    if not in_domain(x, p):
        return Region.OUTSIDE
    return region_of(x, c, p)


def region_of(x: Point, c: DerivedConstants, p: Params) -> Region:
    """classify's decision tree for a point already known to be in the domain."""
    d_plus, d_minus, e_plus, e_minus = _split_quantities(x, c, p)
    if d_plus > 0.0 or e_plus > 0.0:
        return Region.I
    if d_minus >= 0.0:
        return Region.III
    if e_minus > 0.0:
        return Region.II
    return Region.IV
