import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from apq import (DomainError, Region, evaluate, evaluate_a2, evaluate_ainf,
                 evaluate_lambda, gradient)
from apq.bellman import evaluate_region_formula, gradient_IV
from apq import geometry
from apq.cli import main
from apq.geometry import gammaq_point
from apq.implicit_v import solve_v_III, solve_v_IV
from apq.params import ainf_constants

from conftest import CASES, boundary_samples, gamma1, random_in_domain, \
    random_in_region, setup

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "apqbench"))
from reference import Reference  # noqa: E402


def test_evaluate_takes_one_log_ratio(monkeypatch):
    calls = []
    real = geometry.log_ratio

    def counted(x, p):
        calls.append(x)
        return real(x, p)

    monkeypatch.setattr(geometry, "log_ratio", counted)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for x in (gamma1(0.7, p), gamma1(1.3, p)):
            calls.clear()
            assert evaluate(x, c, p).value == (1.0 if x[0] ** (1.0 / p1) >= 1.0 else 0.0)
            assert len(calls) == 1


def _iv_boundary_oracle(v, c, p):
    # Measure of the top step of the extreme-curve profile: rho * a with
    # a = (v/v_minus)**(1/nu), rho = (gm**p1 - vm**p1)/(1 - vm**p1).
    a = (v / c.v_minus) ** (1.0 / c.nu)
    rho = (c.gamma_minus**p.p1 - c.v_minus**p.p1) / (1.0 - c.v_minus**p.p1)
    return rho * a


def test_evaluate_examples(a2_setup):
    p, c = a2_setup
    assert evaluate((2.0, 0.55), c, p).value == 1.0
    assert abs(evaluate((0.75, 1.5), c, p).value - 0.5) <= 1e-12  # (x1*x2-1)/(x1+x2-2)
    want = c.a2 * 1.5 + c.b2 * 1.0 + c.c2
    assert abs(evaluate((1.5, 1.0), c, p).value - want) <= 1e-15
    assert abs(want - 0.9816941738241592) <= 1e-9
    assert evaluate((c.v_minus, c.v_plus), c, p).value == 0.0
    # Extreme-curve point from v = 0.08; oracle value rho*a = 0.169964459822774...
    x = (c.gamma_plus * 0.08, 2.0 / (c.gamma_plus * 0.08))
    got = evaluate(x, c, p)
    oracle = _iv_boundary_oracle(0.08, c, p)
    assert abs(oracle - 0.1699644598227743) <= 1e-14
    assert abs(got.value - oracle) <= 1e-12
    assert got.region == Region.IV and abs(got.v - 0.08) <= 1e-9


def test_unit_curve_boundary_data():
    rng = np.random.default_rng(0)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for _ in range(200):
            v = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
            got = evaluate(gamma1(v, p), c, p).value
            want = 1.0 if v >= 1.0 else 0.0
            assert abs(got - want) <= 1e-8


def test_evaluate_lambda(a2_setup):
    p, c = a2_setup
    assert evaluate_lambda((1.5, 1.0), -3.0, c, p).value == 1.0
    assert evaluate_lambda((0.75, 1.5), 0.0, c, p).value == 1.0
    x = (0.75, 1.5)
    assert evaluate_lambda(x, 1.0, c, p).value == evaluate(x, c, p).value
    # (1,-1) scaling: (x1, x2; lam) -> (x1/lam, lam*x2; 1).
    got = evaluate_lambda((1.5, 0.75), 2.0, c, p).value
    assert abs(got - 0.5) <= 1e-12
    with pytest.raises(DomainError):
        evaluate_lambda(x, math.nan, c, p)


def test_homogeneity():
    rng = np.random.default_rng(1)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for x in random_in_domain(rng, c, p, 100):
            lam = rng.uniform(0.2, 3.0)
            s = rng.uniform(0.2, 4.0)
            a = evaluate_lambda(x, lam, c, p).value
            b = evaluate_lambda((x[0] * s**p.p1, x[1] * s**p.p2), s * lam, c, p).value
            assert abs(a - b) <= 1e-12


def test_value_range():
    rng = np.random.default_rng(2)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for x in random_in_domain(rng, c, p, 10000):
            val = evaluate(x, c, p).value
            assert -1e-12 <= val <= 1.0 + 1e-12


def test_region_ii_at_most_one_at_upper_touch_point():
    # The affine sheet equals 1 at the upper touch point of region II; its
    # rounded coefficients once gave 1.0000000000000004 there.
    for q3 in ((3.0, 1.0, 1.3960884411018404), (2.0, 1.0, 3.7941284868494645)):
        p, c = setup(*q3)
        got = evaluate(gammaq_point(c.gamma_plus, p), c, p)
        assert got.region == Region.II
        assert 1.0 - 1e-14 <= got.value <= 1.0


def test_gradient_examples(a2_setup):
    p, c = a2_setup
    g = gradient((2.0, 0.55), c, p)
    assert g.t1 == 0.0 and g.t2 == 0.0
    g = gradient((1.5, 1.0), c, p)
    assert g.t1 == c.a2 and g.t2 == c.b2
    # Region III: compare against finite differences of the closed form.
    f = lambda x1, x2: (x1 * x2 - 1.0) / (x1 + x2 - 2.0)
    h = 1e-6
    g = gradient((0.75, 1.5), c, p)
    fd1 = (f(0.75 + h, 1.5) - f(0.75 - h, 1.5)) / (2 * h)
    fd2 = (f(0.75, 1.5 + h) - f(0.75, 1.5 - h)) / (2 * h)
    assert abs(g.t1 - fd1) <= 1e-6 * max(1.0, abs(fd1))
    assert abs(g.t2 - fd2) <= 1e-6 * max(1.0, abs(fd2))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for region in (Region.III, Region.IV):
            for x in random_in_region(rng, c, p, region, 20, stencil=1e-3):
                g = gradient(x, c, p)
                for idx, t in ((0, g.t1), (1, g.t2)):
                    h = 1e-6 * max(1.0, abs(x[idx]))
                    xp = (x[0] + h, x[1]) if idx == 0 else (x[0], x[1] + h)
                    xm = (x[0] - h, x[1]) if idx == 0 else (x[0], x[1] - h)
                    fd = (evaluate(xp, c, p).value - evaluate(xm, c, p).value) / (2 * h)
                    assert abs(t - fd) <= 1e-6 * max(1.0, abs(t))


def test_gradient_refuses_boundary_points(a2_setup):
    p, c = a2_setup
    line_val = 1.0 - c.v_minus * (1.7 - 1.0)  # on the upper tangent
    with pytest.raises(DomainError):
        gradient((1.7, line_val), c, p)


def test_boundary_continuity_all_cases():
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for z in boundary_samples(c, p, "plus", 100):
            assert abs(evaluate_region_formula(z, Region.II, c, p) - 1.0) <= 1e-8
        for z in boundary_samples(c, p, "minus", 100):
            a = evaluate_region_formula(z, Region.II, c, p)
            b = evaluate_region_formula(z, Region.III, c, p)
            assert abs(a - b) <= 1e-8
        for z in boundary_samples(c, p, "iii_iv", 100):
            a = evaluate_region_formula(z, Region.III, c, p)
            b = evaluate_region_formula(z, Region.IV, c, p)
            assert abs(a - b) <= 1e-8
            # gradient continuity across the III/IV interface
            v = solve_v_III(z, p)
            ups = p.p2 * v**p.p2 * (1 - z[0]) - p.p1 * v**p.p1 * (1 - z[1])
            t1 = p.p2 * (z[1] - 1.0) * (v**p.p2 / (v**p.p2 - 1.0)) / ups
            t2 = p.p1 * (z[0] - 1.0) * (v**p.p1 / (1.0 - v**p.p1)) / ups
            g4 = gradient_IV(solve_v_IV(z, c, p), c, p)
            assert abs(t1 - g4.t1) <= 1e-6 * max(1.0, abs(t1))
            assert abs(t2 - g4.t2) <= 1e-6 * max(1.0, abs(t2))


def test_affine_along_extremal_lines():
    # Second differences vanish along the chord through (1,1) in III and
    # along the upper tangent lines in IV.
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        x = None
        rng = np.random.default_rng(4)
        x = random_in_region(rng, c, p, Region.III, 1)[0]
        v = solve_v_III(x, p)
        a, b = (1.0, 1.0), gamma1(v, p)
        bv = lambda t: evaluate((a[0] + t * (b[0] - a[0]),
                                 a[1] + t * (b[1] - a[1])), c, p).value
        for t in (0.3, 0.5, 0.7):
            assert abs(bv(t + 0.02) - 2 * bv(t) + bv(t - 0.02)) <= 1e-7
        x = random_in_region(rng, c, p, Region.IV, 1)[0]
        v = solve_v_IV(x, c, p)
        a, b = gamma1(v, p), gammaq_point(c.gamma_plus * v, p)
        bv = lambda t: evaluate((a[0] + t * (b[0] - a[0]),
                                 a[1] + t * (b[1] - a[1])), c, p).value
        assert abs(bv(0.55) - 2 * bv(0.5) + bv(0.45)) <= 1e-7


def test_a2_equivalence(a2_setup):
    p, c = a2_setup
    rng = np.random.default_rng(5)
    for x in random_in_domain(rng, c, p, 1000):
        assert abs(evaluate_a2(x, 2.0).value - evaluate(x, c, p).value) <= 1e-9
    assert abs(evaluate_a2((0.75, 1.5), 2.0).value - 0.5) <= 1e-12
    assert evaluate_a2((1.0, 1.0), 2.0).value == 1.0
    # Touch point of the lower tangent: III and IV formulas agree there.
    x = (c.gamma_minus, c.gamma_plus)
    assert abs(evaluate_a2(x, 2.0).value - 0.5) <= 1e-9
    assert abs(evaluate_region_formula(x, Region.III, c, p) - 0.5) <= 1e-9
    assert abs(evaluate_region_formula(x, Region.IV, c, p) - 0.5) <= 1e-9


def test_ainf_examples():
    assert evaluate_ainf(1.0, 0.0, 2.0).value == 1.0
    got = evaluate_ainf(0.75, math.log(0.5) / 2.0, 2.0)
    assert got.region == Region.III
    assert abs(got.value - 0.5) <= 1e-9
    assert abs(got.v - 0.5) <= 1e-9
    # Large mean at fixed mean-log stays in the all-above-threshold region.
    assert evaluate_ainf(2.0, math.log(2.0) - 0.1, 2.0).value == 1.0
    with pytest.raises(DomainError):
        evaluate_ainf(0.75, 0.5, 2.0)  # mean-log above log(mean)
    with pytest.raises(DomainError):
        evaluate_ainf(1.0, -1.0, 2.0)  # ratio beyond Q


def test_ainf_matches_small_exponent_limit():
    # The limiting class is the p2 -> 0 limit of the general one, from both sides.
    for eps in (1e-5, -1e-5):
        p, c = setup(1.0, eps, 2.0)
        # Points covering all four regions, including deep region IV (0.2, -2.2).
        for x1, y in [(1.4, -0.15), (0.8, -0.5), (2.5, 0.4), (0.3, -1.6), (0.2, -2.2)]:
            a = evaluate_ainf(x1, y, 2.0).value
            b = evaluate((x1, math.exp(eps * y)), c, p).value
            assert abs(a - b) <= 5e-4


def test_ainf_matches_reference(capsys):
    # A region-IV point with tiny x1 at Q = 1e6: a bracket-end snap with an
    # absolute tolerance once returned x1 itself, 7.4368e-09.
    x1, x2 = 7.4369051616054005e-09, -19.173433563936406
    want = float(Reference(1.0, 0.0, 1e6).bound(x1, x2))
    assert main(["eval", "--p1", "1", "--p2", "0", "--q", "1e6",
                 "--x1", repr(x1), "--x2", repr(x2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["region"] == "IV"
    assert abs(doc["value"] - want) <= 1e-12 * want
    # Seeded points in strip coordinates (log-uniform radius, fraction of
    # the way from the unit curve to the extreme curve) over all regions.
    rng = np.random.default_rng(12)
    for q in (1.05, 2.0, 20.0, 1e3, 1e6):
        a, ref = ainf_constants(q), Reference(1.0, 0.0, q)
        lo, hi = math.log(a.v_minus * a.gamma_minus / 16.0), math.log(4.0 * a.v_plus)
        seen = set()
        for _ in range(150):
            r = math.exp(rng.uniform(lo, hi))
            x = (r, math.log(r) - rng.uniform(0.0, 1.0) * math.log(q))
            got = evaluate_ainf(*x, q)
            seen.add(got.region)
            assert abs(got.value - float(ref.bound(*x))) <= 1e-12, (q, x)
        assert seen == {Region.I, Region.II, Region.III, Region.IV}


def test_ainf_region_iv_continuity():
    from apq.params import ainf_constants
    a = ainf_constants(2.0)
    # Points on the lower tangent segment: III and IV formulas both apply.
    touch = (a.gamma_minus, math.log(a.gamma_minus) - math.log(2.0))
    vm_pt = (a.v_minus, math.log(a.v_minus))
    for k in range(20):
        s = (k + 0.5) / 20
        x1 = touch[0] + s * (vm_pt[0] - touch[0])
        x2 = touch[1] + s * (vm_pt[1] - touch[1])
        got = evaluate_ainf(x1, x2, 2.0)
        want = (x1 - a.v_minus) / (1.0 - a.v_minus)
        assert abs(got.value - want) <= 1e-8
