"""50-digit reference for the sharp bound B(x1, x2) at threshold 1.

Independent of the ``apq`` package: it imports nothing from it and works
straight from the closed forms of the method.

* Tangency roots ``gamma_minus < 1 < gamma_plus`` of
  ``(1 - p2/p1) t**p2 + (p2/p1) t**(p2 - p1) = Q**p2``, or of
  ``log t + 1/t = 1 + log Q`` for the limiting class ``p1 = 1, p2 = 0``.
* Coordinates: ``x = (<w**p1>, <w**p2>)``; the limiting class uses
  ``x = (<w>, <log w>)``.  The unit curve is ``U(v) = (v**p1, v**p2)`` (or
  ``(v, log v)``), the extreme curve ``E(a) = (a**p1, Q**-p2 a**p2)`` (or
  ``(a, log a - log Q)``).
* Region split by the two tangent lines from ``U(1)`` touching ``E`` at
  ``gamma_plus`` and ``gamma_minus``, sign-normalized by ``sig(p1)`` and
  ``sig(p2)`` (``+1`` for the logarithm): I above the upper line or beyond
  its touch point, III on or above the lower line, II beyond the lower
  touch point, IV otherwise.
* B: 1 in I; the affine sheet through ``U(1) -> 1``, ``U(v_minus) -> 0``,
  ``U(v_plus) -> 1`` in II; the chord weight ``(x1 - U(v)_1)/(1 - U(v)_1)``
  with ``v < 1`` on the chord through ``U(1)`` in III; in IV, with ``v`` the
  base of the tangent through x (``v`` in ``[r/gamma_plus, r]``)
  ``(1/(1-A)) vm**(-(p1-p2)A/(1-A)) / (1 - vm**p1) v**((p1-p2)/(1-A))
  ((p1-p2)/p2 v**p2 + x1 v**(p2-p1) - (p1/p2) x2)`` and, for the limiting
  class, ``gp/(gp-1)/(1-vm) (x1 - x2 v - v (1 - log v)) (v/vm)**(1/(gp-1))``.
  On the unit curve B is exactly ``1{r >= 1}``.

Roots are bracketed and bisected in double precision, then polished by
Newton steps at 50 digits until a step is below 1e-23 relative; by quadratic
convergence the root then holds about 45 digits.  Region decisions are taken
in double precision when every split distance clears 1e-9 relative (rounding
cannot flip them there) and at 50 digits otherwise.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpf

DPS = 50
_POLISH_EPS = mpf(10) ** -23
_FLOAT_MARGIN = 1e-9


def _bisect(f, lo: float, hi: float) -> float:
    """Double-precision bisection of a bracketing interval (sign change)."""
    flo = f(lo)
    for _ in range(200):
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


def _polish(gdg, u, lo, hi):
    """Newton at working precision on g, where gdg(u) = (g(u), g'(u)), kept
    inside [lo, hi]."""
    u = mpf(u)
    slack = mpf("1e-9") * (abs(hi - lo) + abs(u))   # roots on a bracket end, up to rounding of x
    for _ in range(20):
        g, dg = gdg(u)
        step = g / dg
        u_new = u - step
        if not lo - slack <= u_new <= hi + slack:
            raise ArithmeticError(f"Newton polish left its bracket at {u}")
        if abs(step) <= _POLISH_EPS * max(abs(u_new), _POLISH_EPS):
            return u_new
        u = u_new
    raise ArithmeticError(f"Newton polish did not settle at {u}")


def _expand(f, start: float, factor: float, limit: int = 80) -> float:
    """The first s = start * factor**k with f(s) > 0 (f is negative at 0)."""
    s = start
    for _ in range(limit):
        if f(s) > 0.0:
            return s
        s *= factor
    raise ArithmeticError("could not bracket a tangency root")


class Reference:
    """The sharp bound of one class (p1, p2, Q); p2 = 0 means the limiting class."""

    def __init__(self, p1: float, p2: float, q: float):
        if p2 == 0.0 and p1 != 1.0:
            raise ValueError("the limiting class needs p1 = 1")
        if not (p1 > p2 and p1 != 0.0 and q > 1.0):
            raise ValueError(f"not a class: ({p1}, {p2}, {q})")
        self.p1f, self.p2f, self.qf = float(p1), float(p2), float(q)
        self.limiting = p2 == 0.0
        with mpmath.workdps(DPS):
            self.p1, self.p2, self.q = mpf(p1), mpf(p2), mpf(q)
            self.lq = mpmath.log(self.q)
            self.s1 = 1 if p1 > 0 else -1
            self.s2 = 1 if p2 >= 0 else -1
            self.gm, self.gp = self._gammas()
            self.vm = self.gm / self.gp
            self.vp = 1 / self.vm
            one = self.unit(mpf(1))
            self.lines = {}
            for sign, g in (("+", self.gp), ("-", self.gm)):
                t = self.extreme(g)
                slope = (t[1] - one[1]) / (t[0] - one[0])
                self.lines[sign] = (slope, one[1] - slope * one[0], t[0])
            # Affine sheet a2*x1 + b2*x2 + c2 through the three anchors.
            rows = [[*self.unit(v), 1] for v in (mpf(1), self.vm, self.vp)]
            self.a2, self.b2, self.c2 = mpmath.lu_solve(mpmath.matrix(rows),
                                                        mpmath.matrix([1, 0, 1]))
            if self.limiting:
                self.A = 1 / self.gp
            else:
                self.A = self.q ** (-self.p2) * self.gp ** (self.p2 - self.p1)
        self.gmf, self.gpf = float(self.gm), float(self.gp)
        self.vmf, self.vpf, self.lqf = float(self.vm), float(self.vp), float(self.lq)
        self.lines_f = {k: tuple(float(t) for t in v) for k, v in self.lines.items()}

    # -- curves ------------------------------------------------------------
    def unit(self, v):
        if self.limiting:
            return (v, mpmath.log(v))
        return (v ** self.p1, v ** self.p2)

    def extreme(self, a):
        if self.limiting:
            return (a, mpmath.log(a) - self.lq)
        return (a ** self.p1, self.q ** (-self.p2) * a ** self.p2)

    # -- constants ---------------------------------------------------------
    def _gammas(self):
        if self.limiting:
            target = 1 + self.lq
            gdg = lambda s: (s + mpmath.exp(-s) - target, 1 - mpmath.exp(-s))   # s = log t
            tf = 1.0 + math.log(self.qf)
            gf = lambda s: s + math.exp(-s) - tf
        else:
            p1, p2, q = self.p1, self.p2, self.q
            r = p2 / p1
            target = q ** p2
            def gdg(s):
                e2, e21 = mpmath.exp(p2 * s), mpmath.exp((p2 - p1) * s)
                return (((1 - r) * e2 + r * e21 - target) * self.s2,
                        ((1 - r) * p2 * e2 + r * (p2 - p1) * e21) * self.s2)
            p1f, p2f, rf, tf = self.p1f, self.p2f, self.p2f / self.p1f, self.qf ** self.p2f
            gf = lambda s: ((1 - rf) * math.exp(p2f * s) + rf * math.exp((p2f - p1f) * s)
                            - tf) * self.s2
        # g < 0 at s = 0 and g > 0 beyond each root (the left side grows away from 1).
        s_lo = -_expand(lambda s: gf(-s), 0.5, 2.0)
        s_hi = _expand(gf, 0.5, 2.0)
        roots = []
        for a, b in ((s_lo, 0.0), (0.0, s_hi)):
            s0 = _bisect(gf, a, b)
            roots.append(mpmath.exp(_polish(gdg, s0, mpf(a) * 1.01 - 1, mpf(b) * 1.01 + 1)))
        return roots[0], roots[1]

    # -- geometry ----------------------------------------------------------
    def log_ratio(self, x1, x2):
        """In [0, log Q] on the domain: log(x1**(1/p1)/x2**(1/p2)), or log(x1) - x2."""
        if self.limiting:
            return mpmath.log(x1) - x2
        return mpmath.log(x1) / self.p1 - mpmath.log(x2) / self.p2

    def split(self, x1, x2):
        """Signed, sign-normalized distances (d_plus, d_minus, e_plus, e_minus)."""
        out = []
        for sign in ("+", "-"):
            slope, icpt, _ = self.lines[sign]
            out.append(self.s2 * (x2 - (slope * x1 + icpt)))
        for sign in ("+", "-"):
            out.append(self.s1 * (x1 - self.lines[sign][2]))
        return out

    @staticmethod
    def _decide(d_plus, d_minus, e_plus, e_minus) -> str:
        if d_plus > 0 or e_plus > 0:
            return "I"
        if d_minus >= 0:
            return "III"
        if e_minus > 0:
            return "II"
        return "IV"

    def region(self, x1: float, x2: float, rel: float = 1e-10):
        """(label, near): near is True when x is within `rel` (relative) of a
        split line, where rounding in the program may pick either side."""
        x1, x2 = float(x1), float(x2)
        dists, margin = [], math.inf
        for sign in ("+", "-"):
            slope, icpt, _ = self.lines_f[sign]
            d = self.s2 * (x2 - (slope * x1 + icpt))
            margin = min(margin, abs(d) / max(1.0, abs(x2), abs(slope * x1), abs(icpt)))
            dists.append(d)
        for sign in ("+", "-"):
            touch = self.lines_f[sign][2]
            e = self.s1 * (x1 - touch)
            margin = min(margin, abs(e) / max(1.0, abs(x1), abs(touch)))
            dists.append(e)
        if margin > _FLOAT_MARGIN:
            return self._decide(*dists), False
        with mpmath.workdps(DPS):
            return self._decide(*self.split(mpf(x1), mpf(x2))), margin <= rel

    def above_upper_tangent(self, x1: float, x2: float) -> bool:
        """Strictly beyond the upper tangent line from U(1) (sign-normalized)."""
        slope, icpt, _ = self.lines_f["+"]
        return self.s2 * (float(x2) - (slope * float(x1) + icpt)) > 0.0

    def on_unit_curve(self, x1, x2) -> bool:
        """Within 1e-12 (relative to max(1, log Q)) of the unit curve."""
        x1f, x2f = float(x1), float(x2)
        tf = math.log(x1f) - x2f if self.limiting else \
            math.log(x1f) / self.p1f - math.log(x2f) / self.p2f
        if abs(tf) > 1e-9 * max(1.0, self.lqf):
            return False
        with mpmath.workdps(DPS):
            return abs(self.log_ratio(mpf(x1), mpf(x2))) <= mpf("1e-12") * max(1, self.lq)

    def radius(self, x1):
        """Unit-curve parameter r with U(r)_1 = x1."""
        return x1 if self.limiting else x1 ** (1 / self.p1)

    # -- the bound ---------------------------------------------------------
    def bound(self, x1, x2):
        """B(x) at 50 digits for a point x of the domain."""
        with mpmath.workdps(DPS):
            label, _ = self.region(x1, x2)
            x1, x2 = mpf(x1), mpf(x2)
            if self.on_unit_curve(x1, x2):
                return mpf(1) if self.radius(x1) >= 1 else mpf(0)
            if label == "I":
                return mpf(1)
            if label == "II":
                return self.a2 * x1 + self.b2 * x2 + self.c2
            if label == "III":
                return self._bound_iii(x1, x2)
            return self._bound_iv(x1, x2)

    def _chord_u(self, x1, x2):
        # (U(v)_1 - U(1)_1) (x2 - U(1)_2) = (U(v)_2 - U(1)_2) (x1 - 1) in u = log v < 0,
        # which also has the trivial root u = 0.
        a, b = x2 - (0 if self.limiting else 1), x1 - 1
        af, bf = float(a), float(b)
        if self.limiting:
            def gdg(u):
                e = mpmath.exp(u)
                return (e - 1) * a - u * b, e * a - b
            gf = lambda u: math.expm1(u) * af - u * bf
        else:
            p1, p2, p1f, p2f = self.p1, self.p2, self.p1f, self.p2f

            def gdg(u):
                e1, e2 = mpmath.exp(p1 * u), mpmath.exp(p2 * u)
                return (e1 - 1) * a - (e2 - 1) * b, p1 * e1 * a - p2 * e2 * b
            gf = lambda u: math.expm1(p1f * u) * af - math.expm1(p2f * u) * bf
        hi, lo = -1e-8, -0.5
        s_hi = gf(hi) > 0.0
        for _ in range(60):
            if (gf(lo) > 0.0) != s_hi:
                break
            hi, lo = lo, 2.0 * lo
        else:
            raise ArithmeticError(f"no chord through ({x1}, {x2})")
        return _polish(gdg, _bisect(gf, lo, hi), mpf(lo) - 1, mpf(0))

    def _bound_iii(self, x1, x2):
        v1 = mpmath.exp(self.p1 * self._chord_u(x1, x2))     # U(v)_1; p1 = 1 when limiting
        return (x1 - v1) / (1 - v1)

    def _tangent_u(self, x1, x2):
        """u = log v for the region-IV tangent base, u in [log r - log gp, log r]."""
        if self.limiting:
            gp = self.gp

            def gdg(u):
                v = mpmath.exp(u)
                return (x1 - v) / gp + v * u - v * x2, v * (u + 1 - x2 - 1 / gp)
            x1f, x2f, gpf = float(x1), float(x2), self.gpf
            gf = lambda u: (x1f - math.exp(u)) / gpf + math.exp(u) * (u - x2f)
            hi = mpmath.log(x1)
        else:
            p1, p2 = self.p1, self.p2
            c0 = (p2 / p1) * self.A
            k1, k2 = c0 * x1, 1 - c0

            def gdg(u):
                e1, e2 = mpmath.exp((p2 - p1) * u), mpmath.exp(p2 * u)
                return k1 * e1 + k2 * e2 - x2, k1 * (p2 - p1) * e1 + k2 * p2 * e2
            p1f, p2f, x2f, k1f, k2f = self.p1f, self.p2f, float(x2), float(k1), float(k2)
            gf = lambda u: k1f * math.exp((p2f - p1f) * u) + k2f * math.exp(p2f * u) - x2f
            hi = mpmath.log(x1) / p1
        lo = hi - mpmath.log(self.gp)
        lof, hif = float(lo), float(hi)
        if (gf(lof) > 0.0) != (gf(hif) > 0.0):
            try:
                return _polish(gdg, _bisect(gf, lof, hif), lo, hi)
            except ArithmeticError:
                pass
        # Near the extreme curve the root is (nearly) double and Newton stalls;
        # off the curve by rounding it has no root.  The IV formula is stationary
        # in u at fixed x (B is affine along the tangents), so an endpoint, or
        # bisection to 2**-80 of the bracket, still gives B to working precision.
        glo, ghi = gdg(lo)[0], gdg(hi)[0]
        if (glo > 0) == (ghi > 0) or min(abs(glo), abs(ghi)) == 0:
            return lo if abs(glo) <= abs(ghi) else hi
        for _ in range(80):
            mid = (lo + hi) / 2
            gm = gdg(mid)[0]
            if (gm > 0) == (glo > 0):
                lo, glo = mid, gm
            else:
                hi = mid
        return (lo + hi) / 2

    def _bound_iv(self, x1, x2):
        u = self._tangent_u(x1, x2)
        v = mpmath.exp(u)
        if self.limiting:
            gp = self.gp
            return (gp / (gp - 1) / (1 - self.vm) * (x1 - x2 * v - v * (1 - u))
                    * mpmath.exp((u - mpmath.log(self.vm)) / (gp - 1)))
        p1, p2, A, vm = self.p1, self.p2, self.A, self.vm
        e = (p1 - p2) / (1 - A)
        pre = mpmath.exp(e * (u - A * mpmath.log(vm))) / ((1 - A) * (1 - vm ** p1))
        return pre * ((p1 - p2) / p2 * mpmath.exp(p2 * u)
                      + x1 * mpmath.exp((p2 - p1) * u) - (p1 / p2) * x2)

    # -- sampling ------------------------------------------------------------
    def strip_point(self, r: float, qfrac: float):
        """Double-precision point with unit-curve radius r at fraction qfrac of
        the way (in log) from the unit curve to the extreme curve."""
        if self.limiting:
            return (r, math.log(r) - qfrac * math.log(self.qf))
        return (r ** self.p1f, (r * self.qf ** (-qfrac)) ** self.p2f)


# ---------------------------------------------------------------------------
# Piecewise weights, as JSON documents {"pieces": [{"kind": ...}, ...]}
# ---------------------------------------------------------------------------

def weight_moment(doc: dict, p: float):
    """<w**p> over [0, 1] from the const/power pieces, at 50 digits."""
    with mpmath.workdps(DPS):
        p = mpf(p)
        total = mpf(0)
        for pc in doc["pieces"]:
            lo, hi = mpf(pc["lo"]), mpf(pc["hi"])
            if pc["kind"] == "const":
                total += mpf(pc["value"]) ** p * (hi - lo)
                continue
            e = mpf(pc["exponent"]) * p
            cp = mpf(pc["coef"]) ** p
            if lo == 0:
                if e >= 1:
                    return mpmath.inf
                total += cp * hi ** (1 - e) / (1 - e)
            elif e == 1:
                total += cp * mpmath.log(hi / lo)
            else:
                total += cp * (hi ** (1 - e) - lo ** (1 - e)) / (1 - e)
        return total


def weight_measure_at_least(doc: dict, level: float = 1.0):
    """|{t in [0, 1] : w(t) >= level}| from the const/power pieces, at 50 digits."""
    with mpmath.workdps(DPS):
        level = mpf(level)
        total = mpf(0)
        for pc in doc["pieces"]:
            lo, hi = mpf(pc["lo"]), mpf(pc["hi"])
            if pc["kind"] == "const":
                if mpf(pc["value"]) >= level:
                    total += hi - lo
                continue
            e, coef = mpf(pc["exponent"]), mpf(pc["coef"])
            if e == 0:
                total += (hi - lo) if coef >= level else 0
                continue
            t_star = (coef / level) ** (1 / e)
            if e > 0:      # decreasing: w >= level on t <= t_star
                total += max(mpf(0), min(hi, t_star) - lo)
            else:          # increasing: w >= level on t >= t_star
                total += max(mpf(0), hi - max(lo, t_star))
        return total


def alpha0(q: float):
    """Critical self-improvement exponent sqrt(Q/(Q-1)) - 1 of the (1, -1) class."""
    with mpmath.workdps(DPS):
        q = mpf(q)
        return mpmath.sqrt(q / (q - 1)) - 1
