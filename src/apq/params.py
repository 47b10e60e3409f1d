"""Class parameters and the constants every other module is built from.

A weight class is pinned down by exponents ``p1 > p2`` (p1 nonzero; p2 = 0
only with p1 = 1, see below) and a constant ``Q > 1`` bounding the two-sided
average ratio.  All downstream geometry hangs off the two positive roots
``gamma_minus < 1 < gamma_plus`` of the scalar tangency equation

    (1 - p2/p1) * t**p2 + (p2/p1) * t**(p2 - p1) = Q**p2,

whose left-hand side is monotone on each side of t = 1 (the sign of its
derivative is sig(p2 * (t - 1))), so each root is bracketed with a
guaranteed sign change (``_roots.expand``) and bisected to float exhaustion
(``_roots.solve`` without a derivative), once per class.

Derived constants:

* ``v_minus = gamma_minus / gamma_plus`` and ``v_plus = 1 / v_minus`` are the
  secondary unit-curve intersections of the two tangent lines from (1, 1).
* ``A = Q**(-p2) * gamma_plus**(p2 - p1)`` lies in (0, 1).
* ``nu`` is the power-tail exponent fixed by 1/(1 - nu*p1) = gamma_plus**p1;
  the companion relation 1/(1 - nu*p2) = Q**(-p2) * gamma_plus**p2 is a
  consequence and is asserted, not solved for.
* ``(a2, b2, c2)`` is the affine sheet through the three anchor values
  B(1,1) = 1, B at v_minus = 0, B at v_plus = 1.

The limiting class p1 = 1, p2 = 0 is the same surface with <log w> as its
second coordinate, the p2 -> 0 limit of (<w**p2> - 1)/p2.  Which second
coordinate a class has is decided here alone, by the primitives of Params
(power2, offset2, root2, k2, one2); every surface formula reads them.  Its
tangency equation is the limit of (gamma_equation - Q**p2)/p2,
log(t) + 1/t = 1 + log(Q).  The weight layer needs power moments, so its
entry points refuse the limiting class through require_powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from ._roots import expand, solve
from .errors import DomainError, SolveError

_BRACKET_EXPANSIONS = 200


@dataclass(frozen=True)
class Params:
    """The class triple (p1, p2, Q); p2 = 0 (with p1 = 1) is the limiting class.

    The unit-curve point with parameter v is (v**p1, power2(v)).  k2 and
    one2 are plain attributes because the residuals read them per call.
    """

    p1: float
    p2: float
    q: float
    k2: float = field(init=False, repr=False, compare=False)    # d power2 / d log v at v = 1
    one2: float = field(init=False, repr=False, compare=False)  # power2(1)

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "q"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.p1 == 0.0:
            raise DomainError("exponent p1 must be nonzero")
        if self.p2 == 0.0 and self.p1 != 1.0:
            raise DomainError("the limiting class p2 = 0 requires p1 = 1")
        if not self.p1 > self.p2:
            raise DomainError(f"need p1 > p2, got p1={self.p1}, p2={self.p2}")
        if not self.q > 1.0:
            raise DomainError(f"need Q > 1, got Q={self.q}")
        if self.p2 == 0.0:
            object.__setattr__(self, "p2", 0.0)  # -0.0 would flip sig(p2) in the region split
        object.__setattr__(self, "k2", self.p2 if self.p2 else 1.0)
        object.__setattr__(self, "one2", 1.0 if self.p2 else 0.0)

    def power2(self, v: float) -> float:
        """Second unit-curve coordinate: v**p2, or log v in the limiting class."""
        return v**self.p2 if self.p2 else math.log(v)

    def offset2(self, lv: float) -> float:
        """power2(exp(lv)) - one2 without cancellation: expm1(p2*lv), or lv."""
        return math.expm1(self.p2 * lv) if self.p2 else lv

    def root2(self, x2: float) -> float:
        """log v of the unit-curve parameter v with power2(v) = x2."""
        return math.log(x2) / self.p2 if self.p2 else x2


def require_powers(p: Params, what: str) -> None:
    """DomainError for the limiting class, whose second coordinate is not a
    power moment: weights, extremals and their campaigns need one."""
    if p.p2 == 0.0:
        raise DomainError(f"{what} needs power moments; the limiting class "
                          "(p2 = 0) is not supported there")


@dataclass(frozen=True)
class DerivedConstants:
    gamma_minus: float
    gamma_plus: float
    v_minus: float
    v_plus: float
    A: float
    nu: float
    a2: float
    b2: float
    c2: float

    def as_dict(self) -> dict:
        return {
            "gamma_minus": self.gamma_minus,
            "gamma_plus": self.gamma_plus,
            "v_minus": self.v_minus,
            "v_plus": self.v_plus,
            "A": self.A,
            "nu": self.nu,
            "a2": self.a2,
            "b2": self.b2,
            "c2": self.c2,
        }


def gamma_equation(t: float, p: Params) -> float:
    """Left-hand side of the tangency equation at t > 0."""
    r = p.p2 / p.p1
    return (1.0 - r) * t**p.p2 + r * t ** (p.p2 - p.p1)


def gamma_residual_scale(t: float, p: Params) -> float:
    """Natural scale of the tangency equation at t: its terms can cancel to a
    target orders of magnitude smaller, which floors any achievable residual."""
    r = p.p2 / p.p1
    return max(abs(p.q**p.p2), abs((1.0 - r) * t**p.p2), abs(r * t ** (p.p2 - p.p1)))


def solve_gammas(p: Params) -> tuple[float, float]:
    """Both roots of the tangency equation, gamma_minus < 1 < gamma_plus.

    Raises SolveError if bracket expansion exhausts its budget or leaves
    double precision (pathological parameters, e.g. Q - 1 at machine-noise
    scale or p1 - p2 tiny) or the residual is poor.
    """
    if p.p2 == 0.0:
        # The p2 -> 0 limit of (gamma_equation - Q**p2)/p2 at p1 = 1.
        target = 1.0 + math.log(p.q)
        residual = lambda t: math.log(t) + 1.0 / t - target
        scale = lambda t: max(target, abs(math.log(t)), 1.0 / t)
    else:
        target = p.q**p.p2
        residual = lambda t: gamma_equation(t, p) - target
        scale = lambda t: gamma_residual_scale(t, p)
    # Work in s = log(t): roots can sit hundreds of orders of magnitude from 1
    # when p1 - p2 is small, and linear bisection loses all relative accuracy
    # there.
    g = lambda s: residual(math.exp(s))
    g1 = g(0.0)  # nonzero since Q > 1

    # Lower root in (0, 1): expand toward 0 until the sign flips; upper root
    # in (1, inf): expand toward infinity.
    lo, flo = expand(g, -0.7, 4.0, g1, _BRACKET_EXPANSIONS, "lower tangency root")
    gamma_minus = math.exp(solve(g, None, lo, 0.0, flo, g1))
    hi, fhi = expand(g, 0.7, 4.0, g1, _BRACKET_EXPANSIONS, "upper tangency root")
    gamma_plus = math.exp(solve(g, None, 0.0, hi, g1, fhi))

    for root in (gamma_minus, gamma_plus):
        if abs(residual(root)) > 1e-12 * scale(root):
            raise SolveError(f"tangency-equation residual too large at root {root}")
    if not (0.0 < gamma_minus < 1.0 < gamma_plus):
        raise SolveError("tangency roots out of order")
    return gamma_minus, gamma_plus


def derive_constants_from_gammas(p: Params, gamma_minus: float, gamma_plus: float,
                                 check: bool = True) -> DerivedConstants:
    """Assemble the derived constants from given roots.

    Split out from derive_constants so verification campaigns can inject
    deliberately corrupted roots and watch concavity fail.
    """
    try:
        v_minus = gamma_minus / gamma_plus
        v_plus = 1.0 / v_minus
        A = p.q ** (-p.p2) * gamma_plus ** (p.p2 - p.p1)
        nu = -math.expm1(-p.p1 * math.log(gamma_plus)) / p.p1  # exact as Q -> 1

        # Barycentric solve in offsets from U(1): the sheet falls by 1 toward
        # U(v_minus) and stays level toward U(v_plus).
        lv = math.log(v_minus)
        m1, m2 = math.expm1(p.p1 * lv), p.offset2(lv)
        u1, u2 = math.expm1(-p.p1 * lv), p.offset2(-lv)
        det = m1 * u2 - m2 * u1
        a2 = -u2 / det
        b2 = u1 / det
        c2 = 1.0 - a2 - p.one2 * b2
    except (OverflowError, ZeroDivisionError):
        raise SolveError(f"derived constants of {p} are not representable "
                         "in double precision") from None

    c = DerivedConstants(gamma_minus, gamma_plus, v_minus, v_plus, A, nu, a2, b2, c2)
    if not all(math.isfinite(value) for value in c.as_dict().values()):
        raise SolveError(f"derived constants of {p} are not finite")
    if check:
        _check_constants(c, p)
    return c


def derive_constants(p: Params) -> DerivedConstants:
    gm, gp = solve_gammas(p)
    return derive_constants_from_gammas(p, gm, gp)


def _check_constants(c: DerivedConstants, p: Params) -> None:
    if not 0.0 < c.v_minus < 1.0:
        raise SolveError("v_minus out of (0, 1)")
    if not 0.0 < c.A < 1.0:
        raise SolveError("factor A out of (0, 1)")
    # nu relations; the p2 one is a consequence of the p1 one.  The p1
    # relation nu*p1 = 1 - gamma_plus**-p1 is tested on the side that does
    # not cancel: nu*p1 once gamma_plus**-p1 < 1/2 (large classes, where
    # 1 - nu*p1 falls to roundoff), else 1 - nu*p1 (Q near 1, where nu*p1 is
    # itself a small difference).
    y1 = c.gamma_plus ** (-p.p1)
    if y1 < 0.5:
        got, want = c.nu * p.p1, -math.expm1(-p.p1 * math.log(c.gamma_plus))
    else:
        got, want = 1.0 - c.nu * p.p1, y1
    if abs(got - want) > 1e-10 * abs(want):
        raise SolveError("nu does not satisfy its p1 relation")
    r2 = 1.0 / (1.0 - c.nu * p.p2)
    t2 = p.q ** (-p.p2) * c.gamma_plus**p.p2
    if abs(r2 - t2) > 1e-10 * abs(t2):
        raise SolveError("nu does not satisfy its p2 relation")
    # The affine sheet must run through its three anchors.
    for v, want in ((1.0, 1.0), (c.v_minus, 0.0), (c.v_plus, 1.0)):
        x1, x2 = v**p.p1, p.power2(v)
        got = c.a2 * x1 + c.b2 * x2 + c.c2
        scale = max(1.0, abs(c.a2 * x1), abs(c.b2 * x2), abs(c.c2))
        if abs(got - want) > 1e-10 * scale:
            raise SolveError("affine sheet misses an anchor value")


@lru_cache(maxsize=64)
def ainf_constants(q: float) -> DerivedConstants:
    """Constants of the limiting class Params(1, 0, q)."""
    return derive_constants(Params(1.0, 0.0, q))
