"""Independent numerical evidence campaigns for the sharp-bound surface.

Campaigns (all deterministic given a seed; a report passes iff its worst
normalized excess over the stated tolerances is <= 0):

* check_concavity: finite-difference Hessians at interior points per region
  (max eigenvalue below noise, determinant degenerate) plus midpoint-concavity
  straddles across the internal boundaries, standing in for the distributional
  jump analysis.
* oracle_max: brute-force realization of the defining supremum over gridded
  step weights with a relative moment band; always a lower estimate up to the
  band's Lipschitz correction.  The search is exhaustive, but the last
  piece's value is found by binary search in the monotone power tables, so
  it costs C(break_grid, n-1) * V**(n-1) * log V for n pieces on V values.
* check_majorization: random dyadic splitting trees whose chords stay inside
  the domain, closed at the leaves with exact unit-curve decompositions
  (extremal.decompose); every generated step weight must satisfy
  |{w >= 1}| <= B(moments(w)) and every recorded split the chord inequality.
  Each tree node is evaluated once, and a leaf is decomposed from its
  node's value, so no region or implicit parameter is found twice.
* check_dv_signs: the monotonicity diagnostics of the implicit parameter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bellman import BellmanValue, evaluate, evaluate_region_formula
from .errors import DomainError, SolveError
from .extremal import decompose
from .geometry import (Point, Region, classify, gamma1_point, gammaq_point, in_domain,
                       segment_in_domain)
from .implicit_v import _solve_v, dv_sign_check, tangent_pi
from .params import DerivedConstants, Params, require_powers
from .weights import apq_norm, step_weight


_DETAIL_CAP = 10


@dataclass
class VerifyReport:
    """A campaign's tally: the samples tested, the worst normalized excess
    over the campaign's tolerances, and the _DETAIL_CAP largest positive
    excesses, largest first."""

    campaign: str
    samples: int = 0
    worst_violation: float = -math.inf
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.worst_violation <= 0.0

    def note(self, pt: Point, exc: float, label: str) -> None:
        """Tally one excess at pt; a positive one is a violation."""
        if exc > self.worst_violation:
            self.worst_violation = exc
        if exc > 0.0:
            self.details.append((pt, exc, label))
            self.details.sort(key=lambda item: -item[1])
            del self.details[_DETAIL_CAP:]

    def as_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "samples": self.samples,
            "worst_violation": self.worst_violation,
            "pass": self.passed,
            "details": [{"point": list(pt), "statistic": s, "label": lbl}
                        for (pt, s, lbl) in self.details],
        }


# Concavity: the largest Hessian eigenvalue and |det| count as violations
# past these, and a midpoint straddle past _MIDPOINT_TOL.
_EIG_TOL = 1e-6
_DET_TOL = 1e-5
_MIDPOINT_TOL = 1e-9
# Majorization: slack of the chord inequality and of the weight's bound.
_MAJORIZATION_TOL = 1e-9
# The oracle's relative moment band, which lipschitz_slack also covers, and
# its relative slack on the class-norm cap.
_MOMENT_BAND = 2e-3
_NORM_SLACK = 1e-6
# Rejection-sampling budget of sample_region_point.
_SAMPLE_TRIES = 20000


def sample_point(rng: np.random.Generator, c: DerivedConstants, p: Params,
                 r_lo: float | None = None, r_hi: float | None = None) -> Point:
    """Random in-domain point in strip coordinates (log-uniform radius).

    A draw whose power moments leave the double range is drawn again from
    the same generator; SolveError after _SAMPLE_TRIES draws."""
    if r_lo is None:
        r_lo = c.v_minus * c.gamma_minus / 16.0
    if r_hi is None:
        r_hi = 4.0 * c.v_plus
    for _ in range(_SAMPLE_TRIES):
        r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        qfrac = rng.uniform(0.0, 1.0)
        x1, x2 = r**p.p1, p.power2(r * p.q ** (-qfrac))
        if 0.0 < x1 < math.inf and math.isfinite(x2) and (x2 > 0.0 or p.p2 == 0.0):
            return (x1, x2)
    raise SolveError(f"could not draw a representable point in [{r_lo}, {r_hi}]")


def sample_region_point(rng: np.random.Generator, c: DerivedConstants, p: Params,
                        region: Region, stencil: float | None = None) -> Point:
    """Rejection-sample a point of the region; optionally require that the
    full finite-difference stencil with relative step `stencil` stays inside."""
    for _ in range(_SAMPLE_TRIES):
        x = sample_point(rng, c, p)
        if classify(x, c, p) != region:
            continue
        if stencil is None:
            return x
        h1 = stencil * max(1.0, abs(x[0]))
        h2 = stencil * max(1.0, abs(x[1]))
        ok = True
        for dx, dy in ((2, 0), (-2, 0), (0, 2), (0, -2),
                       (2, 2), (2, -2), (-2, 2), (-2, -2)):
            pt = (x[0] + dx * h1, x[1] + dy * h2)
            if classify(pt, c, p) != region:
                ok = False
                break
        if ok:
            return x
    raise SolveError(f"could not sample region {region} (tries exhausted)")


def _region_evaluator(x: Point, c: DerivedConstants, p: Params):
    """Surface evaluator pinned to x's region, warm-starting the implicit
    solves from the center's parameter; valid on stencils that stay in the
    region (the samplers enforce that)."""
    region = classify(x, c, p)
    v0 = _solve_v(x, region, c, p)
    return lambda pt: evaluate_region_formula(pt, region, c, p, _solve_v(pt, region, c, p, v0))


_D1_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_D1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def _fd_hessian(x: Point, c: DerivedConstants, p: Params, step: float = 1e-4):
    """Fourth-order central-difference Hessian (fxx, fxy, fyy)."""
    h1 = step * max(1.0, abs(x[0]))
    h2 = step * max(1.0, abs(x[1]))
    b = _region_evaluator(x, c, p)
    f0 = b(x)

    def second(h: float, axis: int) -> float:
        vals = []
        for o in (-2.0, -1.0, 1.0, 2.0):
            pt = (x[0] + o * h, x[1]) if axis == 0 else (x[0], x[1] + o * h)
            vals.append(b(pt))
        fm2, fm1, fp1, fp2 = vals
        return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)

    fxx = second(h1, 0)
    fyy = second(h2, 1)
    fxy = 0.0
    for oi, wi in zip(_D1_OFFSETS, _D1_WEIGHTS):
        for oj, wj in zip(_D1_OFFSETS, _D1_WEIGHTS):
            fxy += wi * wj * b((x[0] + oi * h1, x[1] + oj * h2))
    fxy /= h1 * h2
    return fxx, fxy, fyy


def _boundary_ends(c: DerivedConstants, p: Params, which: str) -> tuple[Point, Point]:
    """Ends of an internal boundary segment: 'plus' (I/II) and 'minus' (II/III)
    run between their tangent's anchors, U(1) and the touch point; 'iii_iv'
    (III/IV) from the lower touch point to U(v_minus)."""
    if which == "iii_iv":
        return gammaq_point(c.gamma_minus, p), gamma1_point(c.v_minus, p)
    return gamma1_point(1.0, p), gammaq_point(c.gamma_plus if which == "plus" else c.gamma_minus, p)


def _boundary_points(c: DerivedConstants, p: Params, which: str, n: int):
    """n points on an internal boundary segment, away from its ends."""
    a, b = _boundary_ends(c, p, which)
    return [(a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))
            for s in ((k + 0.5) / n * 0.9 + 0.05 for k in range(n))]


def _boundary_normal(c: DerivedConstants, p: Params, which: str) -> tuple[float, float]:
    """Unit normal of the tangent 'plus' or 'minus' from U(1), from its anchors."""
    a, b = _boundary_ends(c, p, which)
    d1, d2 = b[0] - a[0], b[1] - a[1]
    nrm = math.hypot(d1, d2)
    return (-d2 / nrm, d1 / nrm)


_EPS = 2.2e-16


def _certified_hessian(x: Point, c: DerivedConstants, p: Params, step: float = 1e-4):
    """FD Hessian with a step-halving error estimate; None when the point is
    too ill-conditioned to test the tolerances (second derivatives blow up at
    the unit-curve corner and at the extreme curve in region IV).

    The acceptance rule uses only the measurement uncertainty, never the
    measured value, so well-measured violations are always reported.
    """
    h1 = step * max(1.0, abs(x[0]))
    h2 = step * max(1.0, abs(x[1]))
    big = _fd_hessian(x, c, p, step)
    small = _fd_hessian(x, c, p, 0.5 * step)
    floors = (4 * _EPS / (h1 * h1), 4 * _EPS / (h1 * h2), 4 * _EPS / (h2 * h2))
    errs = tuple((4.0 / 3.0) * abs(a - b) + fl for a, b, fl in zip(big, small, floors))
    fxx, fxy, fyy = small
    exx, exy, eyy = errs
    eig_unc = max(exx + exy, eyy + exy)
    det_unc = abs(fyy) * exx + abs(fxx) * eyy + 2.0 * abs(fxy) * exy + exx * eyy
    if eig_unc > _EIG_TOL or det_unc > _DET_TOL:
        return None
    return fxx, fxy, fyy


def check_concavity(c: DerivedConstants, p: Params, n_interior: int = 500,
                    n_boundary: int = 100, seed: int = 0) -> VerifyReport:
    """Hessian checks at n_interior points per region and midpoint checks
    at n_boundary points per internal boundary.

    A `worst_violation` below about 1e-7 says nothing about curvature: it is
    the roundoff, about eps/h**2, of the fourth-order stencil with step
    h = 1e-4, and moves when only the last bits of the surface change.
    """
    if n_interior < 0 or n_boundary < 0 or n_interior + n_boundary < 1:
        raise DomainError("check_concavity needs n_interior, n_boundary >= 0 and at "
                          f"least one sample, got {n_interior} and {n_boundary}")
    rng = np.random.default_rng(seed)
    rep = VerifyReport("concavity")

    for region in (Region.I, Region.II, Region.III, Region.IV):
        for _ in range(n_interior):
            got = None
            for _ in range(400):
                x = sample_region_point(rng, c, p, region, stencil=1e-4)
                got = _certified_hessian(x, c, p)
                if got is not None:
                    break
            if got is None:
                raise SolveError(f"no certifiable interior point found in {region}")
            fxx, fxy, fyy = got
            half_tr = 0.5 * (fxx + fyy)
            rad = math.hypot(0.5 * (fxx - fyy), fxy)
            eig_max = half_tr + rad
            det = fxx * fyy - fxy * fxy
            rep.samples += 1
            rep.note(x, eig_max - _EIG_TOL, f"hessian-eig-{region.value}")
            rep.note(x, abs(det) - _DET_TOL, f"hessian-det-{region.value}")

    for which in ("plus", "minus", "iii_iv"):
        nx, ny = _boundary_normal(c, p, "plus" if which == "plus" else "minus")
        for z in _boundary_points(c, p, which, n_boundary):
            delta = 1e-3 * max(1.0, abs(z[0]), abs(z[1]))
            y1 = y2 = None
            for _ in range(6):
                cand1 = (z[0] + delta * nx, z[1] + delta * ny)
                cand2 = (z[0] - delta * nx, z[1] - delta * ny)
                if in_domain(cand1, p) and in_domain(cand2, p):
                    y1, y2 = cand1, cand2
                    break
                delta *= 0.25
            if y1 is None:
                continue
            mid_gap = 0.5 * (evaluate(y1, c, p).value + evaluate(y2, c, p).value) \
                - evaluate(z, c, p).value
            rep.samples += 1
            rep.note(z, mid_gap - _MIDPOINT_TOL, f"midpoint-{which}")
    return rep


def _fd_slope_bound(x: Point, c: DerivedConstants, p: Params, idx: int) -> float:
    """Largest one-sided slope magnitude of the surface in coordinate idx;
    one-sided slopes are kept separate because the surface kinks on the
    tangent lines."""
    h = 1e-6 * max(1.0, abs(x[idx]))
    b = lambda pt: evaluate(pt, c, p).value
    f0 = b(x)
    slopes = []
    for sgn in (1.0, -1.0):
        pt = (x[0] + sgn * h, x[1]) if idx == 0 else (x[0], x[1] + sgn * h)
        if in_domain(pt, p):
            slopes.append(abs((b(pt) - f0) / h))
    return max(slopes) if slopes else 0.0


def lipschitz_slack(x: Point, c: DerivedConstants, p: Params) -> float:
    """First-order bound on how much the surface can move inside the oracle's
    relative moment band, from finite-difference slope estimates."""
    t1 = _fd_slope_bound(x, c, p, 0)
    t2 = _fd_slope_bound(x, c, p, 1)
    return t1 * _MOMENT_BAND * abs(x[0]) + t2 * _MOMENT_BAND * abs(x[1])


def _band_range(rest: np.ndarray, tab: np.ndarray, half: float):
    """Index range [lo, hi) of the entries of the monotone table `tab` within
    `half` of each entry of `rest`, by binary search (on the reversed table
    when it falls)."""
    falling = tab[0] > tab[-1]
    if falling:
        tab = tab[::-1]
    lo = np.searchsorted(tab, rest - half, side="left")
    hi = np.searchsorted(tab, rest + half, side="right")
    if falling:
        return len(tab) - hi, len(tab) - lo
    return lo, hi


def oracle_max(x: Point, c: DerivedConstants, p: Params, n_pieces: int = 3,
               value_grid: int = 40, break_grid: int = 20) -> float:
    """Brute-force lower realization of the defining supremum at x.

    Maximizes |{w >= 1}| over step weights with n_pieces pieces, values on a
    log-uniform grid spanning [v_minus*gamma_minus, v_plus*gamma_plus],
    breakpoints on a uniform grid, subject to a relative moment band and the
    class-norm cap.  Returns -inf when nothing is feasible.

    The search is exhaustive: for each choice of cuts and of the first
    n_pieces - 1 values, the last value's admissible indices form one range
    of each monotone power table, found by binary search and widened past
    rounding, and every row in it gets the full moment test.  With V grid
    values that costs C(break_grid, n_pieces - 1) * V**(n_pieces - 1) * log V
    instead of the V**n_pieces of the whole value product, and finds the
    same candidates in the same order.
    """
    require_powers(p, "oracle_max")
    if n_pieces < 1 or value_grid < 2 or break_grid < n_pieces - 1:
        raise DomainError("oracle_max needs n_pieces >= 1, value_grid >= 2 and "
                          f"break_grid >= n_pieces - 1, got {n_pieces}, {value_grid} "
                          f"and {break_grid}")
    if n_pieces > 4:
        raise SolveError("combinatorial budget: n_pieces <= 4")
    vals = np.exp(np.linspace(math.log(c.v_minus * c.gamma_minus),
                              math.log(c.v_plus * c.gamma_plus), value_grid))
    # The threshold value and the two secondary-crossing values are always
    # candidates; without them the moment band is nearly unreachable on a
    # coarse log grid.
    vals = np.unique(np.concatenate([vals, [1.0, c.v_minus, c.v_plus]]))
    v1 = vals**p.p1
    v2 = vals**p.p2
    ind = (vals >= 1.0).astype(float)
    breaks = np.arange(1, break_grid + 1) / (break_grid + 1.0)

    # Value indices of all pieces but the last, in itertools.product order
    # (one empty prefix for a single piece).
    if n_pieces == 1:
        prefix = np.zeros((1, 0), dtype=np.intp)
    else:
        prefix = np.indices((len(vals),) * (n_pieces - 1)).reshape(n_pieces - 1, -1).T
    pre1, pre2 = v1[prefix], v2[prefix]
    cand: list[tuple[float, tuple, tuple]] = []
    for cuts in itertools.combinations(breaks, n_pieces - 1):
        ts = np.array([0.0, *cuts, 1.0])
        lens = np.diff(ts)
        # The last piece must bring each moment into its band.  The widening
        # by 1e-9 of the band and 1e-12 |x_k| covers rounding, so the range
        # holds every row the moment test below accepts.
        lo, hi = 0, len(vals)
        for xk, tab, pre in ((x[0], v1, pre1), (x[1], v2, pre2)):
            band = _MOMENT_BAND * abs(xk)
            a, b = _band_range(xk - pre @ lens[:-1], lens[-1] * tab,
                               band + 1e-9 * band + 1e-12 * abs(xk))
            lo, hi = np.maximum(lo, a), np.minimum(hi, b)
        counts = np.maximum(hi - lo, 0)
        owner = np.repeat(np.arange(len(prefix)), counts)
        if not len(owner):
            continue
        # Each prefix's last index runs through its range: product order.
        last = lo[owner] + np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
        combos = np.column_stack([prefix[owner], last])
        m1 = v1[combos] @ lens
        m2 = v2[combos] @ lens
        feas = (np.abs(m1 - x[0]) <= _MOMENT_BAND * abs(x[0])) \
            & (np.abs(m2 - x[1]) <= _MOMENT_BAND * abs(x[1]))
        if not feas.any():
            continue
        obj = ind[combos[feas]] @ lens
        for row, ob in zip(combos[feas], obj):
            cand.append((float(ob), tuple(cuts), tuple(vals[row])))

    cand.sort(key=lambda t: -t[0])
    for ob, cuts, values in cand:
        w = step_weight(list(cuts), list(values))
        if apq_norm(w, p) <= p.q * (1.0 + _NORM_SLACK):
            return ob
    return -math.inf


# ---------------------------------------------------------------------------
# Dyadic majorization campaign
# ---------------------------------------------------------------------------

def _random_split(x: Point, p: Params, rng: np.random.Generator):
    """Random chord split x = alpha*xm + (1-alpha)*xp with the segment in the
    domain; the half-length shrinks on rejection, degenerating gracefully.

    The segment gets no slack past the domain: as Q -> 1 in_domain's slack is
    a visible share of the domain's width, and no unit-curve chord passes
    through a leaf beyond the extreme curve."""
    scale = 0.25 * min(1.0, abs(x[0]), abs(x[1]))
    for _ in range(60):
        alpha = rng.uniform(0.2, 0.8)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        d = (math.cos(phi) * max(1.0, abs(x[0])), math.sin(phi) * max(1.0, abs(x[1])))
        t = scale * rng.uniform(0.2, 1.0)
        xm = (x[0] - (1.0 - alpha) * t * d[0], x[1] - (1.0 - alpha) * t * d[1])
        xp = (x[0] + alpha * t * d[0], x[1] + alpha * t * d[1])
        if segment_in_domain(xm, xp, p, 0.0):
            return alpha, xm, xp
        scale *= 0.5
    return None


def check_majorization(c: DerivedConstants, p: Params, n_weights: int = 1000,
                       seed: int = 7, depth: int = 8) -> VerifyReport:
    """Chord inequality at every split of random dyadic trees, and the bound
    at the step weight their leaves make.

    Each tree starts at a sampled root and splits each node along a random
    chord inside the domain, depth times.  A node's BellmanValue is computed
    once, by its parent (the root's before the tree), and serves both the
    chord test at its own split and, at a leaf, extremal.decompose, which
    reads its region, value and v.  So there are two evaluate calls per
    sample: a split's two children, or a tree's root and its final weight.
    """
    require_powers(p, "check_majorization")
    if n_weights < 1 or depth < 0:
        raise DomainError("check_majorization needs n_weights >= 1 and depth >= 0, "
                          f"got {n_weights} and {depth}")
    rng = np.random.default_rng(seed)
    rep = VerifyReport("majorization")

    for _ in range(n_weights):
        root = sample_point(rng, c, p, r_lo=c.v_minus * c.gamma_minus / 2.0,
                            r_hi=2.0 * c.v_plus)
        segments: list[tuple[float, float, float]] = []  # (lo, hi, value)

        def emit_leaf(x: Point, bx: BellmanValue, lo: float, hi: float) -> None:
            span = hi - lo
            pos = lo
            for frac, val in decompose(x, c, p, bx)[1]:
                if frac > 0.0:
                    nxt = pos + frac * span
                    segments.append((pos, nxt, val))
                    pos = nxt

        def grow(x: Point, bx: BellmanValue, lo: float, hi: float, level: int):
            if level == 0:
                emit_leaf(x, bx, lo, hi)
                return
            split = _random_split(x, p, rng)
            if split is None:
                emit_leaf(x, bx, lo, hi)
                return
            alpha, xm, xp = split
            bm = evaluate(xm, c, p)
            bp = evaluate(xp, c, p)
            rep.samples += 1
            rep.note(x, alpha * bm.value + (1.0 - alpha) * bp.value - bx.value
                     - _MAJORIZATION_TOL, "chord-split")
            mid = lo + alpha * (hi - lo)
            grow(xm, bm, lo, mid, level - 1)
            grow(xp, bp, mid, hi, level - 1)

        grow(root, evaluate(root, c, p), 0.0, 1.0, depth)

        total_above = sum(hi - lo for lo, hi, val in segments if val >= 1.0)
        m1 = sum((hi - lo) * val**p.p1 for lo, hi, val in segments)
        m2 = sum((hi - lo) * val**p.p2 for lo, hi, val in segments)
        bound = evaluate((m1, m2), c, p).value
        rep.samples += 1
        rep.note((m1, m2), total_above - bound - _MAJORIZATION_TOL, "weight-vs-bound")
    return rep


def check_dv_signs(c: DerivedConstants, p: Params, n_points: int = 200,
                   seed: int = 3) -> VerifyReport:
    rng = np.random.default_rng(seed)
    rep = VerifyReport("dv-signs")
    for region in (Region.III, Region.IV):
        for _ in range(n_points):
            x = sample_region_point(rng, c, p, region, stencil=1e-3)
            rep.samples += 1
            rep.note(x, 0.0 if dv_sign_check(x, region, p, c) else 1.0,
                     f"dv-sign-{region.value}")
            if region == Region.IV:
                rep.samples += 1
                rep.note(x, tangent_pi(x, c, p), "pi-sign-IV")  # pi < 0 in IV
    return rep
