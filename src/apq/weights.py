"""Exact calculus for piecewise weights on [0, 1].

A Weight is an ordered list of pieces tiling [0, 1].  Every piece is a power
profile w(t) = value * t**(-exponent); a constant is the exponent-0 member of
the family, and the wire format writes it as kind "const".  Moments, the
distribution function |{w >= level}|, and level cutoffs are all exact closed
forms; the class norm, sup over subintervals of
<w**p1>**(1/p1) * <w**p2>**(-1/p2), is exact for step weights and a
grid-plus-refinement lower estimate for weights with power pieces.

Weights are immutable; cutoffs and scalings build new values, so sharing
across verification threads is safe.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from ._roots import golden_max
from .errors import DomainError, NonIntegrableError
from .geometry import segment_log_ratio_range
from .params import Params, require_powers


@dataclass(frozen=True)
class Piece:
    """w(t) = value * t**(-exponent) on [lo, hi); value is w(1), and a
    constant piece has exponent 0."""

    lo: float
    hi: float
    value: float
    exponent: float = 0.0

    def to_json(self) -> dict:
        if self.exponent == 0.0:
            return {"kind": "const", "value": self.value, "lo": self.lo, "hi": self.hi}
        return {"kind": "power", "coef": self.value, "exponent": self.exponent,
                "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class Weight:
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise DomainError("weight needs at least one piece")
        if abs(self.pieces[0].lo) > 1e-15 or abs(self.pieces[-1].hi - 1.0) > 1e-15:
            raise DomainError("pieces must tile [0, 1]")
        prev_hi = self.pieces[0].lo
        for pc in self.pieces:
            if not pc.hi > pc.lo:
                raise DomainError(f"piece [{pc.lo}, {pc.hi}) is empty or reversed")
            if abs(pc.lo - prev_hi) > 1e-15:
                raise DomainError("pieces must be contiguous")
            prev_hi = pc.hi
            if not pc.value > 0.0:
                raise DomainError("pieces need a positive value")

    def value_at(self, t: float) -> float:
        """w(t); a decreasing power head is infinite at t = 0."""
        for pc in self.pieces:
            if pc.lo <= t <= pc.hi:
                if t == 0.0 and pc.exponent > 0.0:
                    return math.inf
                return pc.value * t ** (-pc.exponent)
        raise DomainError(f"t={t} outside [0, 1]")

    def breakpoints(self) -> list[float]:
        return [self.pieces[0].lo] + [pc.hi for pc in self.pieces]


def constant_weight(value: float) -> Weight:
    return Weight((Piece(0.0, 1.0, value),))


def step_weight(breaks: list[float], values: list[float]) -> Weight:
    """Step weight with the given interior breakpoints (0 and 1 implied)."""
    ts = [0.0] + list(breaks) + [1.0]
    if len(values) != len(ts) - 1:
        raise DomainError("need one value per step")
    pieces = [Piece(ts[i], ts[i + 1], values[i]) for i in range(len(values))
              if ts[i + 1] > ts[i]]
    return Weight(tuple(pieces))


def _piece_integral(pc: Piece, p: float, lo: float | np.ndarray,
                    hi: float | np.ndarray) -> float | np.ndarray:
    """Integral of w**p over [lo, hi] inside the piece (no averaging); lo and
    hi may be numpy arrays that broadcast, a column of starts by a row of ends."""
    try:
        e = pc.exponent * p
        cp = pc.value**p
        if e == 0.0:
            return cp * (hi - lo)
        if e >= 1.0 and np.any(lo <= 0.0):
            raise NonIntegrableError(
                f"moment p={p} diverges: power piece at 0 with exponent*p={e}")
        if abs(1.0 - e) < 1e-13 and np.all(lo > 0.0):
            return cp * np.log(hi / lo)
        # At lo = 0 the lower term is 0.0**(1 - e) = 0.0 exactly.
        return cp * (hi ** (1.0 - e) - lo ** (1.0 - e)) / (1.0 - e)
    except OverflowError:
        raise NonIntegrableError(
            f"moment p={p} overflows double precision on piece {pc}")


def moment(w: Weight, p: float, interval: tuple[float, float] = (0.0, 1.0)) -> float:
    """Average of w**p over the interval, from the per-piece closed forms."""
    alpha, beta = interval
    if not 0.0 <= alpha < beta <= 1.0 + 1e-15:
        raise DomainError(f"bad interval [{alpha}, {beta}]")
    total = 0.0
    for pc in w.pieces:
        lo = max(alpha, pc.lo)
        hi = min(beta, pc.hi)
        if hi > lo:
            total += _piece_integral(pc, p, lo, hi)
    return total / (beta - alpha)


def _at_least(pc: Piece, level: float) -> tuple[float, float]:
    """The part [a, b) of the piece where w >= level, a <= b clipped to it.

    A power profile crosses the level once, at t_star; a crossing past the
    double range lies beyond the piece."""
    e = pc.exponent
    if e == 0.0:
        return (pc.lo, pc.hi) if pc.value >= level else (pc.hi, pc.hi)
    try:
        t_star = (pc.value / level) ** (1.0 / e)
    except (OverflowError, ZeroDivisionError):
        t_star = math.inf
    if e > 0.0:  # decreasing: w >= level iff t <= t_star
        return pc.lo, max(pc.lo, min(pc.hi, t_star))
    return min(pc.hi, max(pc.lo, t_star)), pc.hi  # increasing: iff t >= t_star


def distribution(w: Weight, level: float) -> float:
    """Exact measure of {t in [0,1] : w(t) >= level}."""
    if level <= 0.0:
        return 1.0
    total = 0.0
    for pc in w.pieces:
        a, b = _at_least(pc, level)
        total += b - a
    return total


def scale_weight(w: Weight, s: float) -> Weight:
    """Pointwise s*w for s > 0."""
    if not s > 0.0:
        raise DomainError("scale factor must be positive")
    return Weight(tuple(replace(pc, value=pc.value * s) for pc in w.pieces))


def _cut_piece(pc: Piece, level: float, keep_below: bool) -> list[Piece]:
    """min(w, level) on the piece when keep_below, else max(w, level): the
    level replaces w on the part at or above it, or on the parts below it."""
    a, b = _at_least(pc, level)
    parts = ((pc.lo, a, not keep_below), (a, b, keep_below), (b, pc.hi, not keep_below))
    return [Piece(lo, hi, level) if clamp else replace(pc, lo=lo, hi=hi)
            for lo, hi, clamp in parts if hi > lo]


def _cutoff(w: Weight, level: float, keep_below: bool) -> Weight:
    """The pieces cut one by one; neighbouring constants of one value merge."""
    if not level > 0.0:
        raise DomainError("cutoff level must be positive")
    out: list[Piece] = []
    for pc in w.pieces:
        for part in _cut_piece(pc, level, keep_below):
            if (out and part.exponent == 0.0 and out[-1].exponent == 0.0
                    and out[-1].value == part.value):
                out[-1] = replace(out[-1], hi=part.hi)
            else:
                out.append(part)
    return Weight(tuple(out))


def cutoff_below(w: Weight, level: float) -> Weight:
    """Pointwise min(w, level) as a valid piece list."""
    return _cutoff(w, level, keep_below=True)


def cutoff_above(w: Weight, level: float) -> Weight:
    """Pointwise max(w, level) as a valid piece list."""
    return _cutoff(w, level, keep_below=False)


# ---------------------------------------------------------------------------
# Class-norm estimation
# ---------------------------------------------------------------------------

def _candidate_points(w: Weight, resolution: int) -> np.ndarray:
    pts = set(w.breakpoints())
    for pc in w.pieces:
        lo = pc.lo if pc.lo > 0.0 else pc.hi * 1e-6
        if lo >= pc.hi:
            continue
        ratio = pc.hi / lo
        for k in range(1, resolution + 1):
            pts.add(lo * ratio ** (k / (resolution + 1.0)))
        if pc.lo == 0.0:
            pts.add(0.0)
    return np.array(sorted(pts))


def _piece_table(w: Weight, p: Params) -> list[tuple[float, float, float]]:
    """(integral of w**p1, integral of w**p2, length) over each whole piece;
    NonIntegrableError where an integral underflows to 0 or overflows."""
    table = []
    for pc in w.pieces:
        i1, i2 = _piece_integral(pc, p.p1, pc.lo, pc.hi), _piece_integral(pc, p.p2, pc.lo, pc.hi)
        _check_integrals(i1, i2, p, pc)
        table.append((i1, i2, pc.hi - pc.lo))
    return table


def _check_integrals(i1: float, i2: float, p: Params, where: object) -> None:
    """NonIntegrableError unless both integrals are positive and finite: their
    logs, which the class ratio takes, exist."""
    if not (0.0 < i1 < math.inf and 0.0 < i2 < math.inf):
        raise NonIntegrableError(f"moments p={p.p1}, {p.p2} leave double precision on {where}")


def _exp_norm(log_norm: float) -> float:
    """The class norm from its log; NonIntegrableError past the double range."""
    try:
        return math.exp(log_norm)
    except OverflowError:
        raise NonIntegrableError(f"class norm exp({log_norm}) overflows double precision")


def _sweep(w: Weight, p: Params, table: list[tuple[float, float, float]], fixed: float,
           left: bool):
    """t -> the class ratio <w**p1>**(1/p1) * <w**p2>**(-1/p2) over [t, fixed]
    (left) or [fixed, t], one golden-refinement step.

    Each call integrates only the piece that holds t; the pieces between come
    from the whole-piece table and the fixed end's piece from a cache.  The
    terms are summed in moment's left-to-right order (its fold from 0.0 adds
    the first term exactly), so on pieces that meet exactly, as all the
    package builds do, the value is bit for bit what moment's averages give.
    """
    pieces = w.pieces
    los = [pc.lo for pc in pieces]
    his = [pc.hi for pc in pieces]
    p1, p2 = p.p1, p.p2
    # A left end t lies in the piece with lo <= t < hi, a right end in the
    # piece with lo < t <= hi; the fixed end's piece is clipped at that end.
    kf = bisect.bisect_left(los, fixed) - 1 if left else bisect.bisect_right(his, fixed)
    pc = pieces[kf]
    span = (pc.lo, min(fixed, pc.hi)) if left else (max(fixed, pc.lo), pc.hi)
    f1, f2 = _piece_integral(pc, p1, *span), _piece_integral(pc, p2, *span)

    def ratio(t: float) -> float:
        if left:
            a, b, k = t, fixed, bisect.bisect_right(his, t)
        else:
            a, b, k = fixed, t, bisect.bisect_left(los, t) - 1
        pc = pieces[k]
        lo, hi = max(a, pc.lo), min(b, pc.hi)
        m1, m2 = _piece_integral(pc, p1, lo, hi), _piece_integral(pc, p2, lo, hi)
        if k == kf:
            i1, i2 = m1, m2
        else:
            (i1, i2), (e1, e2) = ((m1, m2), (f1, f2)) if left else ((f1, f2), (m1, m2))
            for d1, d2, _ in table[min(k, kf) + 1:max(k, kf)]:
                i1 += d1
                i2 += d2
            i1, i2 = i1 + e1, i2 + e2
        _check_integrals(i1, i2, p, (a, b))
        length = b - a
        return _exp_norm(math.log(i1 / length) / p1 - math.log(i2 / length) / p2)

    return ratio


def _grid_averages(w: Weight, p: Params, ts: np.ndarray) -> np.ndarray:
    """Averages of w**p1 and w**p2 over each candidate interval [ts[i], ts[j]],
    i < j, as a (2, n, n) array: moment's closed forms, summed in its order.
    The intervals that overlap a piece form one block, the starts before its
    end by the ends after its start."""
    ints = np.zeros((2, len(ts), len(ts)))
    with np.errstate(all="ignore"):
        for pc in w.pieces:
            rows = int(np.searchsorted(ts, pc.hi))
            cols = int(np.searchsorted(ts, pc.lo, side="right"))
            lo = np.maximum(ts[:rows], pc.lo)[:, None]
            hi = np.minimum(ts[cols:], pc.hi)[None, :]
            ints[0, :rows, cols:] += _piece_integral(pc, p.p1, lo, hi)
            ints[1, :rows, cols:] += _piece_integral(pc, p.p2, lo, hi)
        return ints / (ts[None, :] - ts[:, None])


def _step_log_norm(w: Weight, p: Params) -> float:
    """log of the exact class norm of a weight made of constant pieces.

    One endpoint of a best interval sits on a breakpoint: with both inside
    pieces, nearby averages lie on the tangent to the ratio's level curve, so
    the interval slides at a constant ratio until one reaches a breakpoint.
    With one endpoint fixed, sliding the other across a piece moves the
    averages along a segment, whose extremum is closed-form.  The whole-piece
    integrals come from the table apq_norm's refinement also reads.
    """
    ints = _piece_table(w, p)
    best = -math.inf
    n = len(w.pieces)
    for fixed in range(n):
        for order in (range(fixed, n), range(fixed, -1, -1)):
            i1 = i2 = length = 0.0
            start = (ints[fixed][0] / ints[fixed][2], ints[fixed][1] / ints[fixed][2])
            for k in order:
                i1, i2, length = i1 + ints[k][0], i2 + ints[k][1], length + ints[k][2]
                end = (i1 / length, i2 / length)
                best = max(best, segment_log_ratio_range(start, end, p)[1])
                start = end
    return best


def apq_norm(w: Weight, p: Params, resolution: int = 16) -> float:
    """Class norm: sup over subintervals of <w**p1>**(1/p1) * <w**p2>**(-1/p2).

    Exact for step weights (every exponent 0).  With power pieces it
    is a lower estimate: candidate endpoints are all breakpoints plus
    `resolution` geometric subdivisions per piece, and the best grid cell
    gets one coordinate-wise golden-section refinement.  Grid and refinement
    integrate each interval from the closed forms of its own pieces, as
    moment does.  Each refinement step integrates only the piece that holds
    the moving endpoint: whole pieces come from one per-piece table, the
    fixed endpoint's piece from a cache.  A whole-piece integral or a norm
    outside the double range raises NonIntegrableError.
    """
    require_powers(p, "apq_norm")
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    if all(pc.exponent == 0.0 for pc in w.pieces):
        return _exp_norm(_step_log_norm(w, p))
    # The whole-piece table first: a divergent or unrepresentable piece raises here.
    table = _piece_table(w, p)
    ts = _candidate_points(w, resolution)
    n = len(ts)

    m1, m2 = _grid_averages(w, p, ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        logr = np.log(m1) / p.p1 - np.log(m2) / p.p2
    logr[~np.triu(np.isfinite(logr), k=1)] = -np.inf
    i, j = np.unravel_index(int(np.argmax(logr)), logr.shape)
    best = _exp_norm(logr[i, j])

    # One local refinement of each endpoint inside its neighbor cells.
    alpha, beta = float(ts[i]), float(ts[j])
    a_lo = float(ts[i - 1]) if i > 0 else alpha
    a_hi = min(float(ts[i + 1]), beta * (1.0 - 1e-12)) if i + 1 < n else alpha
    if a_hi > a_lo:
        a_new, val = golden_max(_sweep(w, p, table, beta, True), a_lo, a_hi, 60)
        if val > best:
            best, alpha = val, a_new
    b_lo = max(float(ts[j - 1]), alpha + 1e-15) if j > 0 else beta
    b_hi = float(ts[j + 1]) if j + 1 < n else beta
    if b_hi > b_lo:
        _, val = golden_max(_sweep(w, p, table, alpha, False), b_lo, b_hi, 60)
        if val > best:
            best = val
    return best


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def weight_to_json(w: Weight) -> dict:
    return {"pieces": [pc.to_json() for pc in w.pieces]}


def weight_from_json(doc: dict) -> Weight:
    try:
        raw = doc["pieces"]
    except (KeyError, TypeError):
        raise DomainError("weight document needs a 'pieces' array")
    pieces: list[Piece] = []
    for item in raw:
        kind = item.get("kind")
        if kind == "const":
            pieces.append(Piece(float(item["lo"]), float(item["hi"]), float(item["value"])))
        elif kind == "power":
            pieces.append(Piece(float(item["lo"]), float(item["hi"]),
                                float(item["coef"]), float(item["exponent"])))
        else:
            raise DomainError(f"unknown piece kind {kind!r}")
    return Weight(tuple(pieces))
