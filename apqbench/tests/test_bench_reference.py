"""The 50-digit reference satisfies the method's own properties.

Run with:  python3 -m pytest apqbench/tests
"""

import math
import sys
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from reference import Reference, weight_measure_at_least, weight_moment  # noqa: E402

CLASSES = [(1.0, -1.0, 2.0), (2.0, 1.0, 3.0), (2.0, -1.0, 1.1), (-0.5, -2.0, 30.0),
           (1.0, 0.0, 2.0), (1.0, 0.0, 25.0)]


@pytest.mark.parametrize("p1,p2,q", CLASSES)
def test_tangency_roots_solve_their_equation(p1, p2, q):
    ref = Reference(p1, p2, q)
    with mpmath.workdps(50):
        for g in (ref.gm, ref.gp):
            if ref.limiting:
                res = mpmath.log(g) + 1 / g - 1 - ref.lq
            else:
                r = ref.p2 / ref.p1
                res = (1 - r) * g ** ref.p2 + r * g ** (ref.p2 - ref.p1) - ref.q ** ref.p2
            assert abs(res) < mpmath.mpf(10) ** -40
    assert ref.gm < 1 < ref.gp


def test_closed_form_roots_of_the_a2_class():
    for q in (1.2, 2.0, 8.0):
        ref = Reference(1.0, -1.0, q)
        with mpmath.workdps(50):
            d = mpmath.sqrt(mpmath.mpf(q) ** 2 - q)
            assert abs(ref.gm - (q - d)) < mpmath.mpf(10) ** -40
            assert abs(ref.gp - (q + d)) < mpmath.mpf(10) ** -40


@pytest.mark.parametrize("p1,p2,q", CLASSES)
def test_unit_curve_carries_the_indicator(p1, p2, q):
    ref = Reference(p1, p2, q)
    for k in range(41):
        r = math.exp(-2.0 + 4.0 * k / 40)
        if abs(r - 1.0) < 1e-9:
            continue
        assert ref.bound(*ref.strip_point(r, 0.0)) == (1 if r >= 1.0 else 0)


@pytest.mark.parametrize("p1,p2,q", CLASSES)
def test_affine_sheet_hits_its_anchors(p1, p2, q):
    ref = Reference(p1, p2, q)
    with mpmath.workdps(50):
        for v, want in ((mpmath.mpf(1), 1), (ref.vm, 0), (ref.vp, 1)):
            x1, x2 = ref.unit(v)
            assert abs(ref.a2 * x1 + ref.b2 * x2 + ref.c2 - want) < mpmath.mpf(10) ** -40


def _boundary_points(ref, n=12):
    """Points inside the three internal boundary segments, keyed by the two
    regions they separate: the upper tangent from U(1) (I/II), the lower
    tangent from U(1) (II/III) and its continuation from the touch point
    to U(v_minus) (III/IV)."""
    with mpmath.workdps(50):
        one = ref.unit(mpmath.mpf(1))
        segments = {("I", "II"): (one, ref.extreme(ref.gp)),
                    ("II", "III"): (one, ref.extreme(ref.gm)),
                    ("III", "IV"): (ref.extreme(ref.gm), ref.unit(ref.vm))}
        out = []
        for pair, (a, b) in segments.items():
            for k in range(n):
                s = 0.05 + 0.9 * (k + 0.5) / n
                out.append((pair, (float(a[0] + s * (b[0] - a[0])),
                                   float(a[1] + s * (b[1] - a[1]))), (a, b)))
        return out


@pytest.mark.parametrize("p1,p2,q", CLASSES)
def test_continuity_across_region_boundaries(p1, p2, q):
    ref = Reference(p1, p2, q)
    for pair, z, (a, b) in _boundary_points(ref):
        # Step off the segment along its normal, to either side.
        dx, dy = float(b[0] - a[0]), float(b[1] - a[1])
        norm = math.hypot(dx, dy)
        nx, ny = -dy / norm, dx / norm
        h = 1e-7 * max(1.0, abs(z[0]), abs(z[1]))
        sides = [(z[0] + h * nx, z[1] + h * ny), (z[0] - h * nx, z[1] - h * ny)]
        labels = {ref.region(*x)[0] for x in sides}
        assert labels == set(pair), (pair, labels)
        b1, b2 = (ref.bound(*x) for x in sides)
        assert abs(b1 - b2) < 1e-4 * max(1.0, abs(z[0]), abs(z[1])), (pair, z, b1, b2)


@pytest.mark.parametrize("q", [1.1, 2.0, 5.0, 50.0])
def test_limiting_class_matches_small_exponent(q):
    """B of (1, 0) at (x1, y) against B of (1, p2) at (x1, 1 + p2*y), p2 -> 0."""
    lim = Reference(1.0, 0.0, q)
    gen = {p2: Reference(1.0, p2, q) for p2 in (-1e-6, 1e-6)}
    seen = set()
    for i in range(9):
        for j in range(1, 9):
            x1, y = lim.strip_point(lim.vmf * lim.gmf * (lim.vpf * lim.gpf / (lim.vmf * lim.gmf))
                                    ** (i / 8), j / 9)
            label, near = lim.region(x1, y)
            if near:
                continue
            seen.add(label)
            want = lim.bound(x1, y)
            for p2, ref in gen.items():
                assert abs(ref.bound(x1, 1.0 + p2 * y) - want) < 1e-4, (x1, y, p2)
    assert seen == {"I", "II", "III", "IV"}


def test_weight_calculus_from_pieces():
    doc = {"pieces": [{"kind": "const", "value": 2.0, "lo": 0.0, "hi": 0.25},
                      {"kind": "power", "coef": 0.5, "exponent": 0.5, "lo": 0.25, "hi": 1.0}]}
    # <w> = 2/4 + 0.5 * int_{1/4}^1 t^-1/2 dt = 0.5 + 0.5 * 2 * (1 - 1/2) = 1
    assert abs(weight_moment(doc, 1.0) - 1) < 1e-40
    # w >= 1 on [0, 1/4] and where 0.5 t^-1/2 >= 1, i.e. t <= 1/4: measure 1/4
    assert abs(weight_measure_at_least(doc, 1.0) - 0.25) < 1e-40
    tail = {"pieces": [{"kind": "power", "coef": 1.0, "exponent": 0.5, "lo": 0.0, "hi": 1.0}]}
    assert abs(weight_moment(tail, 1.0) - 2) < 1e-40
    assert weight_moment(tail, 2.0) == mpmath.inf
