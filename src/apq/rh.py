"""Self-improvement of (1, -1)-class weights to a higher-moment bound.

For a weight with <w> * <1/w> = Q the layer-cake identity

    <w**(1+alpha)> = (1+alpha) * integral_0^inf s**alpha * F_w(s) ds

combines with F_w(s) <= B(x1/s, x2*s) to give <w**(1+alpha)> <= C * <w>**(1+alpha).
Moving along s at fixed product x1*x2 = Q keeps the argument on the extreme
curve; s = x1*t scales the integral to the point (1, Q), so C does not depend
on x.  There the surface splits into three exact ranges, each in closed form:

* t <= 1/gamma_plus: region I, integrand t**alpha;
* 1/gamma_plus <= t <= 1/gamma_minus: region II, the sheet a2/t + b2*Q*t + c2;
* t >= 1/gamma_minus: region IV, where B = C(Q) * (Q*t)**(-kappa) with
  kappa = Q/sqrt(Q**2-Q) = 1 + alpha0(Q), so the tail is finite exactly when
  alpha < alpha0(Q) = sqrt(Q/(Q-1)) - 1.  The code reads kappa through
  alpha0, whose form keeps its digits for every Q.

The threshold is attained: the pure power profile t**(-nu) has its
(1+alpha)-moment diverge exactly at alpha0, since 1/nu - 1 = alpha0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bellman import _a2_setup
from .errors import DomainError, NonIntegrableError, SolveError
from .geometry import Point
from .params import Params, derive_constants
from .weights import Piece, Weight, moment


@dataclass(frozen=True)
class RHResult:
    alpha: float
    alpha0: float
    constant: float
    converged: bool

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "alpha0": self.alpha0,
                "constant": self.constant, "converged": self.converged}


@dataclass(frozen=True)
class RHCheck:
    lhs: float
    rhs: float
    passed: bool
    diverged: bool

    def as_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "pass": self.passed,
                "diverged": self.diverged}


def _check(q: float, alpha: float = 1.0, s_max: float = 0.0, x: Point | None = None) -> float:
    """x1 of the point x (1 when x is None), after a DomainError unless Q > 1 is
    finite, alpha > 0, s_max >= 0 and x is a positive point of x1*x2 = Q."""
    if not (math.isfinite(q) and q > 1.0):
        raise DomainError(f"need Q > 1, got {q}")
    if not alpha > 0.0:
        raise DomainError(f"need alpha > 0, got {alpha}")
    if not s_max >= 0.0:
        raise DomainError(f"need s_max >= 0, got {s_max}")
    if x is None:
        return 1.0
    x1, x2 = x
    if not (0.0 < x1 < math.inf and 0.0 < x2 < math.inf) or abs(x1 * x2 - q) > 1e-9 * q:
        raise DomainError(f"x={x} must be a positive point of the extreme curve x1*x2 = {q}")
    return x1


def alpha0(q: float) -> float:
    """Critical extra-integrability exponent sqrt(Q/(Q-1)) - 1.

    Formed as expm1(log1p(1/(Q-1))/2), which keeps its digits as Q grows
    (where the square root nears 1) and as Q -> 1 (where Q - 1 is exact)."""
    _check(q)
    return math.expm1(0.5 * math.log1p(1.0 / (q - 1.0)))


def tail_envelope_constant(q: float) -> float:
    """C(Q) with B <= C(Q)*x2**(-kappa) on the extreme curve (an equality there)."""
    _check(q)
    _, c = _a2_setup(q)
    m = 2.0 * c.v_minus / (1.0 - c.v_minus)
    return c.gamma_plus**m * math.sqrt(q * (q - 1.0)) / (1.0 - c.v_minus)


def _power_integral(coef: float, a: float, b: float, k: float) -> float:
    """coef * integral_a^b s**(k-1) ds for 0 < a <= b <= inf, as coef * a**k *
    expm1(k*log(b/a))/k so that it keeps its digits as k -> 0 (log(b/a) at 0)."""
    r = math.log(b / a)
    return coef * a**k * (r if k == 0.0 else math.expm1(k * r) / k)


def _scaled(x1: float, k: float, value: float) -> float:
    """x1**k * value for value >= 0, through logs only where x1**k overflows
    (the product may still be representable)."""
    try:
        return x1**k * value
    except OverflowError:
        return math.exp(k * math.log(x1) + math.log(value)) if value > 0.0 else 0.0


def _tail(q: float, alpha: float, s_max: float, x1: float = 1.0) -> float:
    """(1+alpha) * integral_{x1/gamma_minus}^{s_max} s**alpha * B(x1/s, x2*s) ds,
    the region-IV piece at the point x = (x1, Q/x1).  s = x1*t scales it to
    x1**(1+alpha) times the piece at (1, Q), where B = C(Q)*(Q*t)**(-kappa)
    with kappa = 1 + alpha0; below its start it is 0, whatever x1 is."""
    s0 = 1.0 / _a2_setup(q)[1].gamma_minus
    sigma = s_max / x1
    if sigma <= s0:
        return 0.0
    a0 = alpha0(q)
    coef = (1.0 + alpha) * tail_envelope_constant(q) * q ** (-1.0 - a0)
    return _scaled(x1, 1.0 + alpha, _power_integral(coef, s0, sigma, alpha - a0))


def _sheet_dip(alpha: float, span: float) -> float:
    """integral_0^span e**(alpha*u) * (e**u - 1)**2 du: the Taylor terms, second
    differences of k**n at alpha, come from recurrences of positive terms only."""
    w = span**3 / 6.0  # span**(n+1)/(n+1)! at n = 2
    e, f, g = alpha * alpha * w, (2.0 * alpha + 1.0) * w, 2.0 * w
    total, n = g, 2
    while g > 1e-17 * total:
        r = span / (n + 2)
        e, f, g = alpha * e * r, ((alpha + 1.0) * f + e) * r, ((alpha + 2.0) * g + 2.0 * f) * r
        total += g
        n += 1
    return total


def _layer_cake(q: float, alpha: float, s_max: float, x1: float = 1.0) -> float:
    """(1+alpha) * integral_0^{s_max} s**alpha * B(x1/s, x2*s) ds at the point
    x = (x1, Q/x1) in closed form, region by region, with the doubles
    evaluate_a2 uses.  s = x1*t scales it to x1**(1+alpha) times the integral
    at (1, Q), except on region I, where the integrand is s**alpha."""
    _, c = _a2_setup(q)
    lo, hi = 1.0 / c.gamma_plus, 1.0 / c.gamma_minus
    k = 1.0 + alpha
    sigma = s_max / x1
    if sigma <= lo:
        return s_max**k
    b = min(sigma, hi)
    span = math.log(b / lo)
    if span >= 1.0:
        total = lo**k + (_power_integral(k * c.a2, lo, b, alpha)
                         + _power_integral(k * c.b2 * q, lo, b, alpha + 2.0)
                         + _power_integral(k * c.c2, lo, b, alpha + 1.0))
    else:
        # These terms cancel to O(span**2) as Q -> 1.  On the curve the sheet is
        # 1 + b2*gamma_minus*(tau - 1)**2/tau, tau = t/lo (a2 = v_minus*b2,
        # c2 = 1 - a2 - b2, gamma_minus*gamma_plus = Q, gamma_minus + gamma_plus = 2Q).
        total = b**k + k * c.b2 * c.gamma_minus * lo**k * _sheet_dip(alpha, span)
    return _scaled(x1, k, total + _tail(q, alpha, sigma))


def rh_constant(q: float, alpha: float, x: Point | None = None) -> RHResult:
    """The constant in <w**(1+alpha)> <= C * <w>**(1+alpha), the same at every
    point x of the extreme curve (a given x is only checked).  converged=False
    (with infinite constant) when the tail diverges, i.e. alpha >= alpha0(Q)."""
    _check(q, alpha, x=x)
    a0 = alpha0(q)
    if alpha >= a0:
        return RHResult(alpha=alpha, alpha0=a0, constant=math.inf, converged=False)
    return RHResult(alpha=alpha, alpha0=a0, constant=_layer_cake(q, alpha, math.inf),
                    converged=True)


def _at_point(part, q: float, alpha: float, s_max: float, x: Point | None) -> float:
    """part(q, alpha, s_max, x1): the integral at the point x.  SolveError when
    it overflows."""
    x1 = _check(q, alpha, s_max, x)
    try:
        return part(q, alpha, s_max, x1)
    except OverflowError:
        raise SolveError(f"the layer-cake integral at x1 = {x1}, alpha = {alpha}, "
                         f"s_max = {s_max} leaves double precision") from None


def truncated_integral(q: float, alpha: float, s_max: float, x: Point | None = None) -> float:
    """(1+alpha) * integral_0^{s_max} s**alpha * B(x1/s, x2*s) ds; divergence
    evidence: above alpha0 it keeps growing with s_max instead of saturating."""
    return _at_point(_layer_cake, q, alpha, s_max, x)


def tail_integral(q: float, alpha: float, s_max: float, x: Point | None = None) -> float:
    """The region-IV part (1+alpha) * integral_{x1/gamma_minus}^{s_max} of the
    layer-cake integrand, in closed form.

    This is the divergent piece above the critical exponent: it keeps (more
    than) doubling per two decades of s_max, while below the critical
    exponent it saturates.
    """
    return _at_point(_tail, q, alpha, s_max, x)


def moment_divergence_alpha(w: Weight) -> float:
    """Smallest alpha at which the (1+alpha)-moment of w stops existing.

    Determined by exponent arithmetic on power pieces reaching t = 0:
    a piece t**(-nu) at the origin has <w**(1+alpha)> finite iff
    nu*(1+alpha) < 1, so the threshold is 1/nu - 1.  Weights without such a
    piece have every moment, and the threshold is +inf.
    """
    threshold = math.inf
    for pc in w.pieces:
        if pc.lo == 0.0 and pc.exponent > 0.0:
            threshold = min(threshold, 1.0 / pc.exponent - 1.0)
    return threshold


def power_witness(q: float) -> Weight:
    """The scale-invariant extremal profile t**(-nu) for exponents (1, -1).

    Its moments sit on the extreme curve and its class norm equals Q; its
    (1+alpha)-moment diverges exactly at alpha = alpha0(Q).
    """
    p = Params(1.0, -1.0, q)
    c = derive_constants(p)
    return Weight((Piece(0.0, 1.0, 1.0, c.nu),))


def rh_check(w: Weight, alpha: float, p: Params) -> RHCheck:
    """Direct test of <w**(1+alpha)> <= C * <w>**(1+alpha) for a (1, -1) weight.

    A non-integrable (1+alpha)-moment is reported as an expected divergence
    (diverged=True, infinite lhs), distinguishable from a failure.
    """
    if (p.p1, p.p2) != (1.0, -1.0):
        raise DomainError("the self-improvement check applies to exponents (1, -1)")
    rhs = rh_constant(p.q, alpha)
    if not rhs.converged:
        return RHCheck(lhs=math.inf, rhs=math.inf, passed=False, diverged=True)
    rhs_value = rhs.constant * moment(w, 1.0) ** (1.0 + alpha)
    if moment_divergence_alpha(w) <= alpha:
        return RHCheck(lhs=math.inf, rhs=rhs_value, passed=False, diverged=True)
    try:
        lhs = moment(w, 1.0 + alpha)
    except NonIntegrableError:
        return RHCheck(lhs=math.inf, rhs=rhs_value, passed=False, diverged=True)
    return RHCheck(lhs=lhs, rhs=rhs_value, passed=lhs <= rhs_value * (1.0 + 1e-6),
                   diverged=False)
