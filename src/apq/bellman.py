"""The sharp bound B(x1, x2; lambda) on |{w >= lambda}| and its gradient.

Per-region closed forms (lambda reduced to 1 by homogeneity):

    I   : 1
    II  : a2*x1 + b2*x2 + c2
    III : (x1 - v**p1) / (1 - v**p1)                    v = chord parameter
    IV  : (1/(1-A)) * v_minus**(-(p1-p2)*A/(1-A)) / (1 - v_minus**p1)
          * v**((p1-p2)/(1-A))
          * ((p1/p2) * (v**p2 - x2) - v**p2 + x1 * v**(p2-p1))

with exact values on the unit curve: 1 when the curve parameter is >= 1,
else 0.  Region IV powers are combined in log space; exponents like
(p1-p2)/(1-A) blow up as Q -> 1.

The surface is affine along the chord through (1,1) in III and along the
upper tangent lines in IV, so the gradient has closed forms as well; it is
continuous across the III/IV interface and jumps across the two tangent
lines from (1,1) (which is why gradient() refuses points within 1e-9 of an
internal boundary).

The limiting class Params(1, 0, Q), in the variables (<w>, <log w>), runs
through the same formulas: v**p2 in a second coordinate reads power2(v), p2
as a factor reads k2 and the 1 of U(1) reads one2 (see params).
evaluate_ainf(x1, x2, Q) is a shorthand for it.  evaluate_a2 covers
p = (1, -1) with purely algebraic region formulas (the implicit equations
turn quadratic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .geometry import (Point, Region, _split_quantities, classify, in_domain, locate,
                       region_of)
from .implicit_v import _chord_slope_log, _solve_v, solve_v_III, solve_v_IV
from .params import DerivedConstants, Params, ainf_constants, require_powers


@dataclass(frozen=True)
class BellmanValue:
    value: float
    region: Region
    v: float | None = None

    def as_dict(self) -> dict:
        return {"value": self.value, "region": self.region.value, "v": self.v}


@dataclass(frozen=True)
class Gradient:
    t1: float
    t2: float


def _value_II(x: Point, c: DerivedConstants) -> float:
    # Region II lies in the triangle U(v_minus), U(1), U(v_plus) with vertex
    # values 0, 1, 1, so the value is in [0, 1]; the clamp drops the few ulp
    # that the rounded a2, b2, c2 add at the upper touch point (value 1).
    return min(max(c.a2 * x[0] + c.b2 * x[1] + c.c2, 0.0), 1.0)


def _value_III(x: Point, v: float, p: Params) -> float:
    # 1 - v**p1 via expm1 to stay exact for v near 1.
    return (x[0] - v**p.p1) / (-math.expm1(p.p1 * math.log(v)))


def _value_IV(x: Point, v: float, c: DerivedConstants, p: Params) -> float:
    e = (p.p1 - p.p2) / (1.0 - c.A)
    prefactor = math.exp(e * (math.log(v) - c.A * math.log(c.v_minus)))
    inner = ((p.p1 / p.k2) * (p.power2(v) - x[1])
             - v**p.p2
             + x[0] * v ** (p.p2 - p.p1))
    return prefactor * inner / ((1.0 - c.A) * (1.0 - c.v_minus**p.p1))


def evaluate_region_formula(x: Point, region: Region, c: DerivedConstants, p: Params,
                            v: float | None = None) -> float:
    """One region's closed form, regardless of where x actually classifies.

    Used by continuity checks that compare adjacent formulas on a shared
    boundary point; v may be supplied to bypass the implicit solve.
    """
    if region == Region.I:
        return 1.0
    if region == Region.II:
        return _value_II(x, c)
    v = _solve_v(x, region, c, p) if v is None else v
    if region == Region.III:
        return _value_III(x, v, p)
    if region == Region.IV:
        return _value_IV(x, v, c, p)
    raise DomainError(f"no surface formula for region {region}")


def evaluate(x: Point, c: DerivedConstants, p: Params) -> BellmanValue:
    """The sharp bound at x with threshold 1."""
    inside, on_unit_curve = locate(x, p)
    if not inside:
        raise DomainError(f"point {x} outside the moment domain")
    region = region_of(x, c, p)
    if on_unit_curve:
        v = math.exp(math.log(x[0]) / p.p1)
        return BellmanValue(value=1.0 if v >= 1.0 else 0.0, region=region, v=v)
    if region == Region.I:
        return BellmanValue(value=1.0, region=region)
    if region == Region.II:
        return BellmanValue(value=_value_II(x, c), region=region)
    if region == Region.III:
        v = solve_v_III(x, p)
        return BellmanValue(value=_value_III(x, v, p), region=region, v=v)
    v = solve_v_IV(x, c, p)
    return BellmanValue(value=_value_IV(x, v, c, p), region=region, v=v)


def evaluate_lambda(x: Point, lam: float, c: DerivedConstants, p: Params) -> BellmanValue:
    """The sharp bound at general threshold lambda via the scaling identity."""
    require_powers(p, "evaluate_lambda")
    if not math.isfinite(lam):
        raise DomainError(f"threshold must be finite, got {lam}")
    if not in_domain(x, p):
        raise DomainError(f"point {x} outside the moment domain")
    if lam <= 0.0:
        return BellmanValue(value=1.0, region=classify(x, c, p))
    scaled = (x[0] * lam ** (-p.p1), x[1] * lam ** (-p.p2))
    return evaluate(scaled, c, p)


_BOUNDARY_REFUSAL = 1e-9


def gradient(x: Point, c: DerivedConstants, p: Params) -> Gradient:
    """Closed-form gradient; refuses points within 1e-9 of an internal boundary."""
    if not in_domain(x, p):
        raise DomainError(f"point {x} outside the moment domain")
    x1, x2 = x
    d_plus, d_minus, _, _ = _split_quantities(x, c, p)
    if min(abs(d_plus), abs(d_minus)) <= _BOUNDARY_REFUSAL * max(1.0, abs(x2)):
        raise DomainError(f"x={x} is within {_BOUNDARY_REFUSAL} of a tangent line from (1, 1)")
    region = region_of(x, c, p)
    if region == Region.I:
        return Gradient(0.0, 0.0)
    if region == Region.II:
        return Gradient(c.a2, c.b2)
    v = _solve_v(x, region, c, p)
    if region == Region.III:
        upsilon = _chord_slope_log(v, x, p)
        vp1, vp2 = v**p.p1, v**p.p2
        t1 = p.k2 * (x2 - p.one2) * (vp2 / (p.power2(v) - p.one2)) / upsilon
        t2 = p.p1 * (x1 - 1.0) * (vp1 / (1.0 - vp1)) / upsilon
        return Gradient(t1, t2)
    return gradient_IV(v, c, p)


def gradient_IV(v: float, c: DerivedConstants, p: Params) -> Gradient:
    """Region-IV gradient as a function of the tangent parameter alone."""
    e = (p.p1 - p.p2) / (1.0 - c.A)
    d = 1.0 / ((1.0 - c.A) * (1.0 - c.v_minus**p.p1))
    lr = math.log(v) - math.log(c.v_minus)
    t1 = d * math.exp(e * c.A * lr)
    t2 = -(p.p1 / p.k2) * d * math.exp(e * (math.log(v) - c.A * math.log(c.v_minus)))
    return Gradient(t1, t2)


# ---------------------------------------------------------------------------
# p = (1, -1): fully algebraic evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _a2_setup(q: float) -> tuple[Params, DerivedConstants]:
    p = Params(1.0, -1.0, q)
    gp = q + math.sqrt(q * (q - 1.0))  # q*q - q would lose digits as Q -> 1
    gm = q / gp  # q - sqrt(...) cancels as Q grows; the roots multiply to Q
    from .params import derive_constants_from_gammas
    return p, derive_constants_from_gammas(p, gm, gp)


def evaluate_a2(x: Point, q: float) -> BellmanValue:
    """Closed-form evaluation for exponents (1, -1); no iterative solving.

    The domain is 1 <= x1*x2 <= Q; the region-III surface is
    (x1*x2 - 1)/(x1 + x2 - 2) and the region-IV parameter is the larger root
    of x2*v**2 - (1 + v_minus)*v + v_minus*x1 = 0.
    """
    if not (math.isfinite(q) and q > 1.0):
        raise DomainError(f"need Q > 1, got {q}")
    p, c = _a2_setup(q)
    inside, on_unit_curve = locate(x, p)
    if not inside:
        raise DomainError(f"point {x} outside the A2 domain 1 <= x1*x2 <= {q}")
    x1, x2 = x
    if on_unit_curve:
        return BellmanValue(value=1.0 if x1 >= 1.0 else 0.0, region=classify(x, c, p), v=x1)
    region = classify(x, c, p)
    if region == Region.I:
        return BellmanValue(value=1.0, region=region)
    if region == Region.II:
        return BellmanValue(value=_value_II(x, c), region=region)
    if region == Region.III:
        v = (1.0 - x1) / (x2 - 1.0)
        return BellmanValue(value=(x1 * x2 - 1.0) / (x1 + x2 - 2.0), region=region, v=v)
    vm = c.v_minus
    disc = (1.0 + vm) ** 2 - 4.0 * vm * x1 * x2
    disc = max(disc, 0.0)  # zero on the extreme curve; clip roundoff
    v = (1.0 + vm + math.sqrt(disc)) / (2.0 * x2)
    m = 2.0 * vm / (1.0 - vm)
    value = math.exp(m * (math.log(v) - math.log(vm))) * (x1 - v) / (1.0 - vm)
    return BellmanValue(value=value, region=region, v=v)


def evaluate_ainf(x1: float, x2: float, q: float) -> BellmanValue:
    """The sharp bound of the limiting class Params(1, 0, q) at (<w>, <log w>)."""
    return evaluate((x1, x2), ainf_constants(q), Params(1.0, 0.0, q))
