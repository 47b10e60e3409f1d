"""Self-improvement of (1, -1)-class weights to a higher-moment bound.

For a weight with <w> * <1/w> = Q the layer-cake identity

    <w**(1+alpha)> = (1+alpha) * integral_0^inf s**alpha * F_w(s) ds

combines with F_w(s) <= B(x1/s, x2*s) to give <w**(1+alpha)> <= C * <w>**(1+alpha).
Moving along s at fixed product x1*x2 = Q keeps the argument on the extreme
curve, where the surface splits into three exact ranges:

* s <= x1/gamma_plus: the argument is in region I, integrand s**alpha;
* x1/gamma_plus <= s <= x1/gamma_minus: region II, adaptive quadrature;
* s >= x1/gamma_minus: region IV, where the surface obeys the power envelope
  B <= C(Q) * (x2*s)**(-kappa) with kappa = Q/sqrt(Q**2-Q), an identity (not
  just a bound) on the extreme curve.  The tail integral is closed form and
  finite exactly when alpha < kappa - 1 = sqrt(Q/(Q-1)) - 1 = alpha0(Q).

The threshold is attained: the pure power profile t**(-nu) has its
(1+alpha)-moment diverge exactly at alpha0, since 1/nu - 1 = alpha0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bellman import evaluate_a2
from .errors import DomainError, NonIntegrableError
from .geometry import Point
from .params import Params, derive_constants
from .weights import PowerPiece, Weight, moment


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


def alpha0(q: float) -> float:
    """Critical extra-integrability exponent sqrt(Q/(Q-1)) - 1."""
    if not (math.isfinite(q) and q > 1.0):
        raise DomainError(f"need Q > 1, got {q}")
    return math.sqrt(q / (q - 1.0)) - 1.0


def _kappa(q: float) -> float:
    return q / math.sqrt(q * q - q)


def tail_envelope_constant(q: float) -> float:
    """C(Q) with B <= C(Q)*x2**(-kappa) on the extreme curve (an equality there)."""
    d = math.sqrt(q * q - q)
    gp = q + d
    vm = (q - d) / gp
    m = 2.0 * vm / (1.0 - vm)
    return gp**m * d / (1.0 - vm)


def _require_extreme_point(q: float, x: Point) -> None:
    if abs(x[0] * x[1] - q) > 1e-9 * q:
        raise DomainError(f"x={x} must sit on the extreme curve x1*x2 = {q}")


def _head_and_middle(q: float, alpha: float, x: Point) -> float:
    """(1+alpha) * integral over [0, x1/gamma_minus] of s**alpha * B."""
    from scipy.integrate import quad  # deferred: importing scipy.integrate dominates `import apq`

    x1, x2 = x
    d = math.sqrt(q * q - q)
    gm, gp = q - d, q + d
    s_lo, s_hi = x1 / gp, x1 / gm
    head = s_lo ** (1.0 + alpha)  # region-I part, closed form
    mid, _ = quad(lambda s: (1.0 + alpha) * s**alpha * evaluate_a2((x1 / s, x2 * s), q).value,
                  s_lo, s_hi, epsabs=1e-10, epsrel=1e-10, limit=400)
    return head + mid


def rh_constant(q: float, alpha: float, x: Point | None = None) -> RHResult:
    """The constant in <w**(1+alpha)> <= C * <w>**(1+alpha) at an extreme point.

    converged=False (with infinite constant) when the tail exponent makes the
    layer-cake integral diverge, i.e. alpha >= alpha0(Q).
    """
    if not alpha > 0.0:
        raise DomainError(f"need alpha > 0, got {alpha}")
    if x is None:
        x = (1.0, q)
    _require_extreme_point(q, x)
    a0 = alpha0(q)
    kappa = _kappa(q)
    if alpha - kappa >= -1.0:
        return RHResult(alpha=alpha, alpha0=a0, constant=math.inf, converged=False)
    x1, x2 = x
    d = math.sqrt(q * q - q)
    s0 = x1 / (q - d)
    total = _head_and_middle(q, alpha, x)
    total += (1.0 + alpha) * tail_envelope_constant(q) * x2 ** (-kappa) \
        * s0 ** (alpha + 1.0 - kappa) / (kappa - alpha - 1.0)
    return RHResult(alpha=alpha, alpha0=a0, constant=total / x1 ** (1.0 + alpha),
                    converged=True)


def truncated_integral(q: float, alpha: float, s_max: float, x: Point | None = None) -> float:
    """(1+alpha) * integral_0^{s_max} s**alpha * B(x1/s, x2*s) ds.

    Divergence evidence: above alpha0 this keeps growing with s_max instead of
    saturating.  The tail part uses the extreme-curve power envelope.
    """
    if not alpha > 0.0:
        raise DomainError(f"need alpha > 0, got {alpha}")
    if x is None:
        x = (1.0, q)
    _require_extreme_point(q, x)
    x1, x2 = x
    d = math.sqrt(q * q - q)
    gm, gp = q - d, q + d
    if s_max <= x1 / gp:
        return s_max ** (1.0 + alpha)
    if s_max <= x1 / gm:
        from scipy.integrate import quad

        head = (x1 / gp) ** (1.0 + alpha)
        mid, _ = quad(lambda s: (1.0 + alpha) * s**alpha * evaluate_a2((x1 / s, x2 * s), q).value,
                      x1 / gp, s_max, epsabs=1e-10, epsrel=1e-10, limit=400)
        return head + mid
    total = _head_and_middle(q, alpha, x)
    kappa = _kappa(q)
    s0 = x1 / gm
    delta = alpha + 1.0 - kappa
    coef = (1.0 + alpha) * tail_envelope_constant(q) * x2 ** (-kappa)
    if abs(delta) < 1e-14:
        total += coef * math.log(s_max / s0)
    else:
        total += coef * (s_max**delta - s0**delta) / delta
    return total


def tail_integral(q: float, alpha: float, s_max: float, x: Point | None = None) -> float:
    """The region-IV part (1+alpha) * integral_{x1/gamma_minus}^{s_max} of the
    layer-cake integrand, in closed form.

    This is the divergent piece above the critical exponent: it keeps (more
    than) doubling per two decades of s_max, while below the critical
    exponent it saturates.
    """
    if x is None:
        x = (1.0, q)
    _require_extreme_point(q, x)
    x1, x2 = x
    d = math.sqrt(q * q - q)
    s0 = x1 / (q - d)
    if s_max <= s0:
        return 0.0
    kappa = _kappa(q)
    delta = alpha + 1.0 - kappa
    coef = (1.0 + alpha) * tail_envelope_constant(q) * x2 ** (-kappa)
    if abs(delta) < 1e-14:
        return coef * math.log(s_max / s0)
    return coef * (s_max**delta - s0**delta) / delta


def moment_divergence_alpha(w: Weight) -> float:
    """Smallest alpha at which the (1+alpha)-moment of w stops existing.

    Determined by exponent arithmetic on power pieces reaching t = 0:
    a piece t**(-nu) at the origin has <w**(1+alpha)> finite iff
    nu*(1+alpha) < 1, so the threshold is 1/nu - 1.  Weights without such a
    piece have every moment, and the threshold is +inf.
    """
    threshold = math.inf
    for pc in w.pieces:
        if isinstance(pc, PowerPiece) and pc.lo == 0.0 and pc.exponent > 0.0:
            threshold = min(threshold, 1.0 / pc.exponent - 1.0)
    return threshold


def power_witness(q: float) -> Weight:
    """The scale-invariant extremal profile t**(-nu) for exponents (1, -1).

    Its moments sit on the extreme curve and its class norm equals Q; its
    (1+alpha)-moment diverges exactly at alpha = alpha0(Q).
    """
    p = Params(1.0, -1.0, q)
    c = derive_constants(p)
    return Weight((PowerPiece(0.0, 1.0, 1.0, c.nu),))


def rh_check(w: Weight, alpha: float, p: Params) -> RHCheck:
    """Direct test of <w**(1+alpha)> <= C * <w>**(1+alpha) for a (1, -1) weight.

    A non-integrable (1+alpha)-moment is reported as an expected divergence
    (diverged=True, infinite lhs), distinguishable from a failure.
    """
    if (p.p1, p.p2) != (1.0, -1.0):
        raise DomainError("the self-improvement check applies to exponents (1, -1)")
    if not alpha > 0.0:
        raise DomainError(f"need alpha > 0, got {alpha}")
    x1 = moment(w, 1.0)
    rhs = rh_constant(p.q, alpha, (x1, p.q / x1))
    if not rhs.converged:
        return RHCheck(lhs=math.inf, rhs=math.inf, passed=False, diverged=True)
    rhs_value = rhs.constant * x1 ** (1.0 + alpha)
    if moment_divergence_alpha(w) <= alpha:
        return RHCheck(lhs=math.inf, rhs=rhs_value, passed=False, diverged=True)
    try:
        lhs = moment(w, 1.0 + alpha)
    except NonIntegrableError:
        return RHCheck(lhs=math.inf, rhs=rhs_value, passed=False, diverged=True)
    return RHCheck(lhs=lhs, rhs=rhs_value, passed=lhs <= rhs_value * (1.0 + 1e-6),
                   diverged=False)
