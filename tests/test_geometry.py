import math

import numpy as np
import pytest

from apq import DomainError, Region, classify, in_domain, tangent_line
from apq.geometry import (gamma1_point, gammaq_point, log_ratio, on_gamma1, on_gammaq,
                          segment_in_domain, segment_log_ratio_range)

from conftest import CASES, random_in_domain, setup


def test_in_domain_examples(a2_setup):
    p, c = a2_setup
    assert in_domain((1.2, 1.2), p)           # product 1.44 in [1, 2]
    assert in_domain((1.0, 1.0), p)           # on the unit curve
    assert not in_domain((3.0, 1.0), p)       # product 3 > Q
    assert not in_domain((0.5, 1.0), p)       # product 0.5 < 1
    with pytest.raises(DomainError):
        in_domain((math.nan, 1.0), p)


def test_tangent_line_examples(a2_setup):
    p, c = a2_setup
    plus = tangent_line(1.0, "+", c, p)
    assert abs(plus.slope - (-c.v_minus)) <= 1e-12          # -Q/gamma_plus**2
    assert abs(plus.intercept - (1.0 - plus.slope)) <= 1e-12
    minus = tangent_line(1.0, "-", c, p)
    assert abs(minus.slope - (-2.0 / c.gamma_minus**2)) <= 1e-12
    assert abs(minus.at(1.0) - 1.0) <= 1e-12


def test_tangent_touch_and_base_points():
    rng = np.random.default_rng(3)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for _ in range(100):
            v = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            for sign, gamma in (("+", c.gamma_plus), ("-", c.gamma_minus)):
                line = tangent_line(v, sign, c, p)
                bx, by = gamma1_point(v, p)
                assert abs(line.at(bx) - by) <= 1e-12 * max(1.0, abs(by))
                tx, ty = gammaq_point(gamma * v, p)
                assert abs(line.at(tx) - ty) <= 1e-10 * max(1.0, abs(ty))


def test_tangency_double_root():
    # Extreme curve minus tangent line has value and first derivative ~ 0 at
    # the touch point (finite differences).
    rng = np.random.default_rng(4)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for _ in range(100):
            v = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            sign = "+" if rng.uniform() < 0.5 else "-"
            gamma = c.gamma_plus if sign == "+" else c.gamma_minus
            line = tangent_line(v, sign, c, p)
            curve = lambda x1: p.q ** (-p.p2) * x1 ** (p.p2 / p.p1)
            gap = lambda x1: curve(x1) - line.at(x1)
            t = (gamma * v) ** p.p1
            h = 1e-4 * abs(t)
            assert abs(gap(t)) <= 1e-6 * max(1.0, abs(curve(t)))
            assert abs((gap(t + h) - gap(t - h)) / (2 * h)) <= 1e-6 * max(
                1.0, abs(curve(t) / t))
            assert gap(t + 50 * h) * gap(t - 50 * h) > 0.0  # same side: tangent


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


def test_boundary_tie_breaks(a2_setup):
    p, c = a2_setup
    # On the upper tangent segment (strictly between base and touch): II.
    line = tangent_line(1.0, "+", c, p)
    x1 = 1.0 + 0.5 * (c.gamma_plus**p.p1 - 1.0)
    assert classify((x1, line.at(x1)), c, p) == Region.II
    # On the lower tangent: III, both on its II-facing and IV-facing segments.
    line = tangent_line(1.0, "-", c, p)
    x1 = 1.0 + 0.5 * (c.gamma_minus**p.p1 - 1.0)
    assert classify((x1, line.at(x1)), c, p) == Region.III
    x1 = c.gamma_minus**p.p1 + 0.5 * (c.v_minus**p.p1 - c.gamma_minus**p.p1)
    assert classify((x1, line.at(x1)), c, p) == Region.III


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


def test_segment_in_domain_edge_inputs(a2_setup):
    p, c = a2_setup
    assert not segment_in_domain((1.0, 1.0), (-0.5, 1.0), p)
    assert not segment_in_domain((1.0, 1.0), (3.0, 1.0), p)  # ends outside
    with pytest.raises(DomainError):
        segment_in_domain((1.0, 1.0), (math.inf, 1.0), p)
