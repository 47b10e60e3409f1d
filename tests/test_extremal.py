import math

import numpy as np
import pytest

from apq import (DomainError, Region, Weight, apq_norm, build, classify, cutoff_above,
                 distribution, evaluate, moment)
from apq.extremal import (_boundary_iv_pieces, _tangent_mix, decompose, region1_chord,
                          region2_segment)
from apq.geometry import gamma1_point, segment_log_ratio_range
from apq.verify import sample_region_point

from conftest import CASES, gamma1, random_in_region, setup


def test_region_iii_example(a2_setup):
    p, c = a2_setup
    w, plan = build((0.75, 1.5), c, p)
    assert plan.region == Region.III
    assert [(q.lo, q.hi, q.value) for q in w.pieces] == [(0.0, 0.5, 1.0), (0.5, 1.0, 0.5)]
    assert distribution(w, 1.0) == 0.5


def test_lower_touch_point_example(a2_setup):
    # The touch point of the lower tangent: a = 1 degenerate power tail.
    p, c = a2_setup
    w, plan = build((c.gamma_minus, c.gamma_plus), c, p)
    vals = [(round(q.lo, 12), round(q.hi, 12)) for q in w.pieces]
    assert vals == [(0.0, 0.5), (0.5, 1.0)]
    assert w.pieces[0].value == 1.0
    assert abs(w.pieces[1].value - c.v_minus) <= 1e-12
    assert abs(distribution(w, 1.0) - 0.5) <= 1e-12


def test_extreme_curve_example(a2_setup):
    p, c = a2_setup
    v = 0.08
    x = (c.gamma_plus * v, 2.0 / (c.gamma_plus * v))
    w, plan = build(x, c, p)
    a = (v / c.v_minus) ** (1.0 / c.nu)
    rho = (c.gamma_minus - c.v_minus) / (1.0 - c.v_minus)
    assert abs(a - 0.3399289196455485) <= 1e-12
    assert abs(rho - 0.5) <= 1e-15
    assert abs(plan.data["a"] - a) <= 1e-9
    assert abs(plan.data["lambda_glue"] - 1.0) <= 1e-12
    assert w.pieces[-1].exponent == c.nu
    assert abs(distribution(w, 1.0) - rho * a) <= 1e-9
    assert abs(distribution(w, 1.0) - evaluate(x, c, p).value) <= 1e-7


def test_region_ii_example(a2_setup):
    p, c = a2_setup
    x = (1.5, 1.0)
    w, plan = build(x, c, p)
    vals = sorted({q.value for q in w.pieces})
    assert vals == sorted({c.v_minus, 1.0, c.v_plus} & set(vals))
    want = evaluate(x, c, p).value
    assert abs(want - 0.9816941738241592) <= 1e-9
    assert abs(distribution(w, 1.0) - want) <= 1e-9
    # Plan identity: lam + (1 - lam)*mu_minus equals the bound.
    lam, mu_m = plan.data["lam"], plan.data["mu_minus"]
    assert abs(lam + (1.0 - lam) * mu_m - want) <= 1e-9


def test_degenerate_inputs(a2_setup):
    p, c = a2_setup
    w, plan = build((1.0, 1.0), c, p)
    assert len(w.pieces) == 1 and w.pieces[0].value == 1.0
    w, plan = build(gamma1(0.6, p), c, p)
    assert len(w.pieces) == 1 and abs(w.pieces[0].value - 0.6) <= 1e-12
    assert plan.region == Region.GAMMA1


def test_decompose_steps_hit_moments():
    # The one split into unit-curve steps: in every region and on the unit
    # curve the lengths sum to 1 and hit both moments.
    rng = np.random.default_rng(11)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for region in (Region.I, Region.II, Region.III, Region.IV):
            for x in random_in_region(rng, c, p, region, 5):
                got, steps = decompose(x, c, p)
                assert got == region
                assert sum(length for length, _ in steps) == pytest.approx(1.0, abs=1e-12)
                for k, xk in ((p1, x[0]), (p2, x[1])):
                    assert abs(sum(length * v**k for length, v in steps) - xk) <= 1e-9 * abs(xk)
        region, steps = decompose(gamma1(0.6, p), c, p)
        assert region == Region.GAMMA1 and steps == [(1.0, pytest.approx(0.6, rel=1e-12))]
        with pytest.raises(DomainError):
            decompose((1.0, 0.25**p2), c, p)  # log_ratio = log 4 > log Q


def test_iv_moment_identities():
    # On the extreme curve x_k = v**p_k / (1 - nu*p_k).
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for v in (0.3 * c.v_minus, 0.7 * c.v_minus, 0.95 * c.v_minus):
            x = ((c.gamma_plus * v) ** p.p1,
                 p.q ** (-p.p2) * (c.gamma_plus * v) ** p.p2)
            for pk in (p.p1, p.p2):
                want = v**pk / (1.0 - c.nu * pk)
                assert abs((x[0] if pk == p.p1 else x[1]) - want) <= 1e-10 * abs(want)
            w, _ = build(x, c, p)
            for pk, xk in ((p.p1, x[0]), (p.p2, x[1])):
                assert abs(moment(w, pk) - xk) <= 1e-10 * abs(xk)


def test_glue_equals_cutoff_of_extended_profile():
    # The glued region-IV weight is the level-v floor (pointwise max) of the
    # dilated extreme-curve profile with its power tail continued to 1: the
    # tail crosses level v exactly at the glue point.
    rng = np.random.default_rng(0)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for x in random_in_region(rng, c, p, Region.IV, 10):
            w, plan = build(x, c, p)
            v = plan.data["v"]
            ext = Weight(tuple(_boundary_iv_pieces(v, c, p, _tangent_mix(x, v, c, p), 1.0)))
            cut = cutoff_above(ext, v)
            assert [q.lo for q in cut.pieces] == pytest.approx(
                [q.lo for q in w.pieces], abs=1e-12)
            for t in np.linspace(1e-3, 1.0, 101):
                t = float(t)
                assert abs(cut.value_at(t) - w.value_at(t)) <= 1e-12 * max(
                    1.0, w.value_at(t))


def test_attainment_sample():
    # Smaller version of the acceptance campaign: moments, class norm, and
    # distribution all reproduced.
    rng = np.random.default_rng(1)
    for p1, p2 in CASES:
        for q in (1.5, 2.0):
            p, c = setup(p1, p2, q)
            for region in (Region.I, Region.II, Region.III, Region.IV):
                for x in random_in_region(rng, c, p, region, 8):
                    w, plan = build(x, c, p)
                    assert abs(moment(w, p.p1) - x[0]) <= 1e-8 * abs(x[0])
                    assert abs(moment(w, p.p2) - x[1]) <= 1e-8 * abs(x[1])
                    assert apq_norm(w, p, 16) <= q * (1.0 + 1e-6)
                    b = evaluate(x, c, p).value
                    assert abs(distribution(w, 1.0) - b) <= 1e-7


def test_region_ii_extreme_points():
    # A 7e-4 length on the far anchor v_plus, whose p1 moment amplifies the
    # rounding of that length by v_plus**2 = 2.6e6, and a v_minus piece of
    # length 7e-10.
    for args, x in [((2.0, 1.0, 20.0), (0.0032021888142122106, 0.002997470745931452)),
                    ((0.5, -3.0, 200.0), (14.51102042850678, 0.4719008602477527))]:
        p, c = setup(*args)
        w, plan = build(x, c, p)
        assert plan.region == Region.II
        assert abs(moment(w, p.p1) - x[0]) <= 1e-12 * x[0]
        assert abs(moment(w, p.p2) - x[1]) <= 1e-12 * x[1]
        assert abs(distribution(w, 1.0) - evaluate(x, c, p).value) <= 1e-12
        assert apq_norm(w, p) <= p.q * (1.0 + 1e-6)


def test_region_ii_builds_large_q():
    rng = np.random.default_rng(5)
    p, c = setup(2.0, 1.0, 100.0)
    for x in random_in_region(rng, c, p, Region.II, 20):
        w, _ = build(x, c, p)
        assert abs(distribution(w, 1.0) - evaluate(x, c, p).value) <= 1e-7
        assert apq_norm(w, p) <= p.q * (1.0 + 1e-6)


def test_region_ii_lengths_solve_moment_system():
    # The three lengths are the unique solution of the 3x3 moment system.
    rng = np.random.default_rng(4)
    for p1, p2 in [(1.0, -1.0), (2.0, 1.0), (2.0, -1.0), (-0.5, -2.0)]:
        for q in (1.3, 2.0, 5.0):
            p, c = setup(p1, p2, q)
            anchors = (c.v_minus, 1.0, c.v_plus)
            m = np.array([[1.0, 1.0, 1.0], [a**p1 for a in anchors], [a**p2 for a in anchors]])
            for x in random_in_region(rng, c, p, Region.II, 10):
                want = np.linalg.solve(m, [1.0, x[0], x[1]])
                assert np.allclose(region2_segment(x, c, p), want, rtol=0.0, atol=1e-12)
                plan = build(x, c, p)[1].data
                assert plan["lam"] + (1.0 - plan["lam"]) * plan["mu_minus"] == pytest.approx(
                    evaluate(x, c, p).value, abs=1e-12)


@pytest.mark.parametrize("cls", [(5.0, 4.0, 3.0), (6.0, 5.5, 2.0), (5.0, 4.0, 100.0),
                                 (-2.0, -6.0, 1000.0)])
def test_region_ii_builds_at_tiny_coordinates_of_extreme_classes(cls):
    # Most of these points have tiny coordinates.  With the tangent lines held
    # as slopes through (1, 1), 10 to 116 of the 200 were classified II from
    # outside the triangle, or had lengths that missed the moments.
    p, c = setup(*cls)
    rng = np.random.default_rng(1)
    points = [sample_region_point(rng, c, p, Region.II) for _ in range(200)]
    if cls == (6.0, 5.5, 2.0):
        points.append((2.635591744848398e-11, 2.635591744848398e-11))
    for x in points:
        w, plan = build(x, c, p)
        assert plan.region == Region.II
        assert abs(distribution(w, 1.0) - evaluate(x, c, p).value) <= 1e-12


def test_region_i_chords_of_an_extreme_class_stay_in_the_class():
    # In (5, 4, 3) the chords' interior extrema sit within rounding of their
    # far ends; every seeded region-I point builds a weight in the class.
    p, c = setup(5.0, 4.0, 3.0)
    rng = np.random.default_rng(5)
    for _ in range(150):
        x = sample_region_point(rng, c, p, Region.I)
        w, plan = build(x, c, p)
        assert plan.region == Region.I
        assert apq_norm(w, p) <= p.q * (1.0 + 1e-12), x


def test_region_iv_weights_of_extreme_classes_stay_in_the_class():
    # The class norm once put 37 of these (5, 4, 1000) weights and 17 of the
    # (6, 5.5, 2) ones above Q, up to 1531 Q, from cancelled prefix sums.
    for cls in [(5.0, 4.0, 1000.0), (6.0, 5.5, 2.0)]:
        p, c = setup(*cls)
        rng = np.random.default_rng(3)
        for _ in range(40):
            x = sample_region_point(rng, c, p, Region.IV)
            w, plan = build(x, c, p)
            assert plan.region == Region.IV
            assert apq_norm(w, p) <= p.q * (1.0 + 1e-12), x


def test_sliver_chord_stays_inside():
    # Points between the upper tangent line from (1, 1) and the extreme curve,
    # beyond the touch point: the chord through (1, 1) leaves the domain, and
    # the chord used there must not poke past the extreme curve.
    rng = np.random.default_rng(9)
    for p1, p2 in [(1.0, -1.0), (2.0, 1.0), (2.0, -1.0), (-0.5, -2.0)]:
        for q in (1.3, 2.0, 5.0):
            p, c = setup(p1, p2, q)
            lq = math.log(q)
            slope = (p2 / p1) * c.A
            for _ in range(10):
                a = c.gamma_plus * (c.v_plus / c.gamma_plus) ** rng.uniform(0.05, 0.95)
                x1 = a**p1
                t = rng.uniform(0.05, 0.95)
                x = (x1, t * q**-p2 * a**p2 + (1.0 - t) * (1.0 + slope * (x1 - 1.0)))
                assert classify(x, c, p) == Region.I
                u, v, mu = region1_chord(x, c, p)
                assert u > v > 1.0
                lo, hi = segment_log_ratio_range(gamma1_point(u, p), gamma1_point(v, p), p)
                assert hi <= lq + 1e-12 * max(1.0, lq)
                w, _ = build(x, c, p)
                assert distribution(w, 1.0) == 1.0


@pytest.mark.parametrize("cls", [(1.0, -1.0), (2.0, 1.0), (-0.5, -2.0), (2.0, -1.0)])
def test_decompose_from_value_equals_default(cls):
    # A caller that already holds evaluate(x) gets exactly the split that
    # decompose finds by evaluating x itself.
    p, c = setup(*cls)
    rng = np.random.default_rng(13)
    points = [gamma1(v, p) for v in (0.4, 0.9, 1.0, 1.7)]
    for region in (Region.I, Region.II, Region.III, Region.IV):
        points += random_in_region(rng, c, p, region, 6)
    for x in points:
        assert decompose(x, c, p, evaluate(x, c, p)) == decompose(x, c, p)
    with pytest.raises(DomainError, match="outside the moment domain"):
        decompose((1.0, 0.25**p.p2), c, p)  # log_ratio = log 4 > log Q
