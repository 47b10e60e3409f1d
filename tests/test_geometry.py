import math

import numpy as np
import pytest

from apq import DomainError, Params, Region, SolveError, classify, in_domain
from apq.geometry import (gamma1_point, gammaq_point, log_ratio, on_gamma1, on_gammaq,
                          segment_in_domain, segment_log_ratio_range, side)

from conftest import CASES, random_in_domain, setup


def test_in_domain_examples(a2_setup):
    p, c = a2_setup
    assert in_domain((1.2, 1.2), p)           # product 1.44 in [1, 2]
    assert in_domain((1.0, 1.0), p)           # on the unit curve
    assert not in_domain((3.0, 1.0), p)       # product 3 > Q
    assert not in_domain((0.5, 1.0), p)       # product 0.5 < 1
    with pytest.raises(DomainError):
        in_domain((math.nan, 1.0), p)


def _tangent_anchors(v, gamma, p):
    """The tangent from U(v) to the extreme curve, as its anchors: U(v) and
    the touch point E(gamma*v)."""
    return gamma1_point(v, p), gammaq_point(gamma * v, p)


def _sine(x, a, b):
    """side(x, a, b) over |x - a| |b - a|: the sine of the angle at a."""
    return side(x, a, b) / (math.hypot(x[0] - a[0], x[1] - a[1])
                            * math.hypot(b[0] - a[0], b[1] - a[1]))


def test_tangent_line_examples(a2_setup):
    # In the class (1, -1) the tangents from U(1) have slopes -Q/gamma**2:
    # -v_minus for the upper one, -2/gamma_minus**2 for the lower one.
    p, c = a2_setup
    for gamma, slope in ((c.gamma_plus, -c.v_minus), (c.gamma_minus, -2.0 / c.gamma_minus**2)):
        one, touch = _tangent_anchors(1.0, gamma, p)
        assert one == (1.0, 1.0)
        for t in (-0.5, 0.5, 2.0):
            assert abs(_sine((1.0 + t, 1.0 + slope * t), one, touch)) <= 1e-12


def test_tangent_touch_and_base_points():
    # The line through U(v) and E(gamma_sign*v) meets the unit curve again at
    # U(v*v_plus) for the upper tangent and at U(v*v_minus) for the lower one.
    rng = np.random.default_rng(3)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for _ in range(100):
            v = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            for gamma, w in ((c.gamma_plus, c.v_plus), (c.gamma_minus, c.v_minus)):
                a, b = _tangent_anchors(v, gamma, p)
                assert side(a, a, b) == 0.0 and side(b, a, b) == 0.0
                assert abs(_sine(gamma1_point(v * w, p), a, b)) <= 1e-10
        # v = 1: the second crossings are the parameters' v_plus and v_minus.
        for gamma, w in ((c.gamma_plus, c.v_plus), (c.gamma_minus, c.v_minus)):
            assert abs(_sine(gamma1_point(w, p), *_tangent_anchors(1.0, gamma, p))) <= 1e-12


def test_tangency_double_root():
    # Along the extreme curve E(gamma*v*exp(h)), side vanishes to second
    # order at h = 0 (it quarters when h halves), and it has one sign on both
    # sides of the touch point: the line is tangent there.
    rng = np.random.default_rng(4)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for _ in range(100):
            v = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            gamma = c.gamma_plus if rng.uniform() < 0.5 else c.gamma_minus
            a, b = _tangent_anchors(v, gamma, p)
            at = lambda h: side(gammaq_point(gamma * v * math.exp(h), p), a, b)
            for h in (1e-3, -1e-3):
                assert abs(at(h) / at(2.0 * h) - 0.25) <= 1e-2
            signs = {math.copysign(1.0, at(h)) for h in (-1.0, -0.1, -1e-3, 1e-3, 0.1, 1.0)}
            assert len(signs) == 1


def test_side_overflow_is_solve_error():
    # Products past the largest float: one alone, and two meeting as inf - inf.
    for x, a, b in [((1.0, 2.0), (0.0, 0.0), (1e308, 1e308)),
                    ((1e300, 1e300), (0.0, 0.0), (1e10, 1e10))]:
        with pytest.raises(SolveError):
            side(x, a, b)


def test_classify_examples(a2_setup):
    p, c = a2_setup
    assert classify((2.0, 0.55), c, p) == Region.I
    assert classify((1.5, 1.0), c, p) == Region.II
    assert classify((0.75, 1.5), c, p) == Region.III
    x_iv = (c.gamma_plus * 0.08, 2.0 / (c.gamma_plus * 0.08))  # on the extreme curve
    assert classify(x_iv, c, p) == Region.IV
    assert classify((3.0, 1.0), c, p) == Region.OUTSIDE


def test_region_cover():
    rng = np.random.default_rng(5)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for x in random_in_domain(rng, c, p, 10000):
            assert classify(x, c, p) in (Region.I, Region.II, Region.III, Region.IV)


def _exactly_on(a, b, s):
    """A point within a few ulps of a + s*(b - a) where side(x, a, b) is 0
    exactly."""
    x1, x2 = a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])
    for k in range(64):
        for j in range(-8, 9):
            for kk in (k, -k):
                x = (x1 + j * math.ulp(x1), x2 + kk * math.ulp(x2))
                if side(x, a, b) == 0.0:
                    return x
    raise AssertionError(f"no point exactly on the line near s = {s}")


def test_boundary_tie_breaks(a2_setup):
    p, c = a2_setup
    one = gamma1_point(1.0, p)
    # On the upper tangent, strictly between base and touch point, and at the
    # touch point: II.
    upper = gammaq_point(c.gamma_plus, p)
    for x in [_exactly_on(one, upper, s) for s in (0.25, 0.5, 0.75)] + [upper]:
        assert side(x, one, upper) == 0.0
        assert classify(x, c, p) == Region.II
    # On the lower tangent: III, both on its II-facing (s < 1) and IV-facing
    # (s > 1) segments, and at the touch point between them.
    lower = gammaq_point(c.gamma_minus, p)
    for x in [_exactly_on(one, lower, s) for s in (0.25, 0.5, 1.25, 1.5)] + [lower]:
        assert side(x, one, lower) == 0.0
        assert classify(x, c, p) == Region.III
    # The touch points keep their tags in every sign case.
    for p1, p2 in CASES:
        q, cq = setup(p1, p2)
        assert classify(gammaq_point(cq.gamma_plus, q), cq, q) == Region.II
        assert classify(gammaq_point(cq.gamma_minus, q), cq, q) == Region.III


def test_curve_membership_queries(a2_setup):
    p, c = a2_setup
    assert on_gamma1((1.3, 1.0 / 1.3), p)
    assert on_gammaq((1.3, 2.0 / 1.3), p)
    assert not on_gamma1((1.3, 1.2), p)
    assert abs(log_ratio((1.3, 2.0 / 1.3), p) - math.log(2.0)) <= 1e-12


SIGN_CASES = [(1.0, -1.0), (2.0, 1.0), (2.0, -1.0), (-0.5, -2.0)]


def test_segment_range_brackets_dense_samples():
    rng = np.random.default_rng(8)
    s = np.linspace(0.0, 1.0, 4097)
    for p1, p2 in SIGN_CASES:
        p, c = setup(p1, p2, 3.0)
        for _ in range(50):
            a, b = random_in_domain(rng, c, p, 2)
            if rng.uniform() < 0.5:  # endpoints off the domain too
                b = (b[0] * rng.uniform(0.3, 3.0), b[1])
            lo, hi = segment_log_ratio_range(a, b, p)
            x1 = a[0] + s * (b[0] - a[0])
            x2 = a[1] + s * (b[1] - a[1])
            x1[-1], x2[-1] = b  # a + (b - a) need not round to b
            r = np.log(x1) / p1 - np.log(x2) / p2
            tol = 1e-12 * max(1.0, float(np.abs(r).max()))
            assert lo <= r.min() + tol
            assert hi >= r.max() - tol


def test_segment_range_on_tangent_chord():
    # The tangent from unit-curve parameter v meets the unit curve again at
    # v/v_minus and touches the extreme curve in between.
    for p1, p2 in SIGN_CASES:
        for q in (1.3, 2.0, 20.0):
            p, c = setup(p1, p2, q)
            lq = math.log(q)
            for v in (0.3, 1.0, 2.5):
                a, b = gamma1_point(v, p), gamma1_point(v / c.v_minus, p)
                lo, hi = segment_log_ratio_range(a, b, p)
                assert abs(hi - lq) <= 1e-13 * max(1.0, lq)
                assert abs(lo) <= 1e-13 * max(1.0, lq)
                assert segment_in_domain(a, b, p)


def test_segment_range_is_the_same_in_both_directions():
    # The interior maximum of this chord (1.9768, above log 3) sits within
    # 2.2e-18 of U(u) in parameter measured from U(1), which rounds onto U(u).
    p = Params(5.0, 4.0, 3.0)
    a, b = gamma1_point(1.0, p), gamma1_point(36664.821168786584, p)
    assert segment_log_ratio_range(a, b, p) == segment_log_ratio_range(b, a, p)
    assert segment_log_ratio_range(a, b, p)[1] > 1.9
    assert not segment_in_domain(a, b, p) and not segment_in_domain(b, a, p)


def test_segment_in_domain_edge_inputs(a2_setup):
    p, c = a2_setup
    assert not segment_in_domain((1.0, 1.0), (-0.5, 1.0), p)
    assert not segment_in_domain((1.0, 1.0), (3.0, 1.0), p)  # ends outside
    with pytest.raises(DomainError):
        segment_in_domain((1.0, 1.0), (math.inf, 1.0), p)


def _segment_in_domain_by_ends(a, b, p, slack):
    # in_domain at both ends, then the exact range against the same window.
    if not (in_domain(a, p, slack) and in_domain(b, p, slack)):
        return False
    lo, hi = segment_log_ratio_range(a, b, p)
    lq = math.log(p.q)
    s = slack * max(1.0, lq)
    return -s <= lo and hi <= lq + s


def test_segment_in_domain_equals_end_tests_and_range():
    # Reading each end's log_ratio once changes no answer: ends inside and
    # outside the domain, ends with a non-positive moment, and a non-finite
    # end, which raises whenever the end tests reach it.
    rng = np.random.default_rng(21)
    seen = {True: 0, False: 0, DomainError: 0}
    for p1, p2 in SIGN_CASES:
        p, c = setup(p1, p2, 3.0)
        for k in range(120):
            a, b = random_in_domain(rng, c, p, 2)
            kind = k % 6
            if kind == 1:  # an end past either curve
                b = (b[0] * rng.uniform(0.3, 3.0), b[1])
            elif kind == 2:  # a non-positive moment
                b = (b[0], -rng.uniform(0.0, 1.0) * b[1]) if k % 12 == 2 else (0.0, b[1])
            elif kind == 3:  # a non-finite end
                b = (math.nan, b[1]) if k % 12 == 3 else (b[0], math.inf)
            if rng.uniform() < 0.5:
                a, b = b, a
            for slack in (0.0, 1e-12, 1e-10):
                try:
                    want = _segment_in_domain_by_ends(a, b, p, slack)
                except DomainError:
                    want = DomainError
                if want is DomainError:
                    with pytest.raises(DomainError):
                        segment_in_domain(a, b, p, slack)
                else:
                    assert segment_in_domain(a, b, p, slack) is want
                seen[want] += 1
    assert min(seen.values()) >= 50
