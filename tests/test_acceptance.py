"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from apq import (Params, Region, alpha0, apq_norm, build, check_concavity,
                 check_majorization, cutoff_below, derive_constants,
                 distribution, evaluate, evaluate_a2, evaluate_ainf, moment,
                 oracle_max, power_witness, rh_constant, solve_gammas,
                 step_weight)
from apq.bellman import evaluate_region_formula, gradient_IV
from apq.implicit_v import dv_sign_check, solve_v_III, solve_v_IV, tangent_pi
from apq.params import ainf_constants
from apq.rh import moment_divergence_alpha, tail_integral
from apq.verify import lipschitz_slack, sample_point, sample_region_point

from conftest import boundary_samples, gamma1, setup

CASES = [(1.0, -1.0), (2.0, 1.0), (-1.0, -2.0)]
REGIONS = (Region.I, Region.II, Region.III, Region.IV)


def report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_01_constants_closed_forms():
    t0 = time.time()
    for q in (1.2, 2.0, 4.0, 8.0):
        gm, gp = solve_gammas(Params(1.0, -1.0, q))
        d = math.sqrt(q * q - q)
        assert abs(gm - (q - d)) <= 1e-10 and abs(gp - (q + d)) <= 1e-10
        gm, gp = solve_gammas(Params(2.0, 1.0, q))
        d = math.sqrt(q * q - 1.0)
        assert abs(gm - (q - d)) <= 1e-10 and abs(gp - (q + d)) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"tangency roots match closed forms to 1e-10 ({elapsed:.3f}s)")


def test_criterion_02_unit_curve_boundary_data():
    rng = np.random.default_rng(0)
    worst = 0.0
    for p1, p2 in CASES:
        p, c = setup(p1, p2, 2.0)
        for _ in range(200):
            v = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
            got = evaluate(gamma1(v, p), c, p).value
            worst = max(worst, abs(got - (1.0 if v >= 1.0 else 0.0)))
    assert worst <= 1e-8
    report(2, f"boundary data exact on 200 unit-curve samples/case (worst {worst:.1e})")


def test_criterion_03_continuity_and_gradient_matching():
    worst_val, worst_grad = 0.0, 0.0
    for p1, p2 in CASES:
        p, c = setup(p1, p2, 2.0)
        for z in boundary_samples(c, p, "plus", 100):
            worst_val = max(worst_val, abs(
                evaluate_region_formula(z, Region.II, c, p) - 1.0))
        for z in boundary_samples(c, p, "minus", 100):
            worst_val = max(worst_val, abs(
                evaluate_region_formula(z, Region.II, c, p)
                - evaluate_region_formula(z, Region.III, c, p)))
        for z in boundary_samples(c, p, "iii_iv", 100):
            worst_val = max(worst_val, abs(
                evaluate_region_formula(z, Region.III, c, p)
                - evaluate_region_formula(z, Region.IV, c, p)))
            v = solve_v_III(z, p)
            ups = p.p2 * v**p.p2 * (1 - z[0]) - p.p1 * v**p.p1 * (1 - z[1])
            t1 = p.p2 * (z[1] - 1.0) * (v**p.p2 / (v**p.p2 - 1.0)) / ups
            t2 = p.p1 * (z[0] - 1.0) * (v**p.p1 / (1.0 - v**p.p1)) / ups
            g4 = gradient_IV(solve_v_IV(z, c, p), c, p)
            worst_grad = max(worst_grad,
                             abs(t1 - g4.t1) / max(1.0, abs(t1)),
                             abs(t2 - g4.t2) / max(1.0, abs(t2)))
    assert worst_val <= 1e-8
    assert worst_grad <= 1e-6
    report(3, f"boundary continuity (worst dB {worst_val:.1e}, "
              f"worst dgrad {worst_grad:.1e})")


def test_criterion_04_concavity_campaign():
    t0 = time.time()
    for p1, p2 in CASES:
        p, c = setup(p1, p2, 2.0)
        rep = check_concavity(c, p, n_interior=500, n_boundary=100, seed=0)
        assert rep.passed, (p1, p2, rep.worst_violation, rep.details[:3])
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, f"concavity campaigns pass for all cases ({elapsed:.1f}s)")


def test_criterion_05_extremal_attainment():
    rng = np.random.default_rng(1)
    worst_m, worst_n, worst_d = 0.0, 0.0, 0.0
    for p1, p2 in CASES:
        for q in (1.5, 2.0):
            p, c = setup(p1, p2, q)
            for region in REGIONS:
                for _ in range(50):
                    x = sample_region_point(rng, c, p, region)
                    w, _ = build(x, c, p)
                    worst_m = max(worst_m,
                                  abs(moment(w, p.p1) - x[0]) / abs(x[0]),
                                  abs(moment(w, p.p2) - x[1]) / abs(x[1]))
                    worst_n = max(worst_n, apq_norm(w, p, 32) / q - 1.0)
                    worst_d = max(worst_d,
                                  abs(distribution(w, 1.0) - evaluate(x, c, p).value))
    assert worst_m <= 1e-8
    assert worst_n <= 1e-6
    assert worst_d <= 1e-7
    report(5, f"extremal attainment at 50 pts/region/case/Q (moments {worst_m:.1e}, "
              f"norm excess {worst_n:.1e}, distribution {worst_d:.1e})")


def test_criterion_06_oracle_domination():
    t0 = time.time()
    p, c = setup(1.0, -1.0, 2.0)
    rng = np.random.default_rng(2)
    pts = [(0.75, 1.5), (1.5, 1.0), (2.0, 0.55), (0.3, 6.0)]
    for region in REGIONS:
        pts.append(sample_region_point(rng, c, p, region))
    pts += [sample_point(rng, c, p) for _ in range(2)]
    assert len(pts) == 10
    for x in pts:
        got = oracle_max(x, c, p, n_pieces=3, value_grid=40, break_grid=20)
        bound = evaluate(x, c, p).value
        assert got <= bound + lipschitz_slack(x, c, p) + 1e-9
        w, _ = build(x, c, p)
        assert distribution(w, 1.0) >= bound - 1e-7
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    report(6, f"oracle domination + extremal attainment at 10 points ({elapsed:.1f}s)")


def test_criterion_07_majorization():
    p, c = setup(1.0, -1.0, 2.0)
    rep = check_majorization(c, p, n_weights=1000, seed=7, depth=8)
    assert rep.passed, rep.details[:3]
    report(7, f"1000 dyadic weights majorized (worst excess {rep.worst_violation:.1e})")


def test_criterion_08_a2_equivalence_and_ainf():
    p, c = setup(1.0, -1.0, 2.0)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        x = sample_point(rng, c, p)
        worst = max(worst, abs(evaluate_a2(x, 2.0).value - evaluate(x, c, p).value))
    assert worst <= 1e-9
    got = evaluate_ainf(0.75, math.log(0.5) / 2.0, 2.0).value
    assert abs(got - 0.5) <= 1e-9

    # Limiting class: the finite-difference gradient matches across the
    # III/IV interface (the lower tangent segment), and region IV is concave.
    a = ainf_constants(2.0)
    B = lambda x1, x2: evaluate_ainf(x1, x2, 2.0).value
    h = 1e-4

    def one_sided(f0, x1, x2, d1, d2):
        # Second-order one-sided derivative at (x1, x2) along (d1, d2).
        return (-3.0 * f0 + 4.0 * B(x1 + h * d1, x2 + h * d2)
                - B(x1 + 2 * h * d1, x2 + 2 * h * d2)) / (2.0 * h)

    # Above the lower tangent (-x1, +x2) is III; below (+x1, -x2) is IV.
    touch = (a.gamma_minus, math.log(a.gamma_minus) - math.log(2.0))
    vm_pt = (a.v_minus, math.log(a.v_minus))
    worst_grad = 0.0
    for k in range(20):
        s = (k + 0.5) / 20 * 0.9 + 0.05
        z1 = touch[0] + s * (vm_pt[0] - touch[0])
        z2 = touch[1] + s * (vm_pt[1] - touch[1])
        f0 = B(z1, z2)
        t1_iii, t2_iii = -one_sided(f0, z1, z2, -1, 0), one_sided(f0, z1, z2, 0, 1)
        t1_iv, t2_iv = one_sided(f0, z1, z2, 1, 0), -one_sided(f0, z1, z2, 0, -1)
        worst_grad = max(worst_grad,
                         abs(t1_iii - t1_iv) / max(1.0, abs(t1_iii)),
                         abs(t2_iii - t2_iv) / max(1.0, abs(t2_iii)))
    assert worst_grad <= 1e-3

    hh = 1e-3
    worst_d2 = -math.inf
    for f in (0.2, 0.4, 0.6, 0.8):
        x1 = f * a.gamma_minus
        lo, hi = math.log(x1) - math.log(2.0), (x1 - 1.0) / a.gamma_minus
        for g in (0.2, 0.4, 0.6, 0.8):
            x2 = lo + g * (hi - lo)
            assert evaluate_ainf(x1, x2, 2.0).region == Region.IV
            f0 = B(x1, x2)
            for d1, d2 in ((1, 0), (0, 1), (1, 1), (1, -1)):
                d2b = (B(x1 + hh * d1, x2 + hh * d2) - 2.0 * f0
                       + B(x1 - hh * d1, x2 - hh * d2)) / hh**2
                worst_d2 = max(worst_d2, d2b)
    assert worst_d2 <= 1e-6
    report(8, f"closed-form (1,-1) path matches general path (worst {worst:.1e}); "
              "limiting-class chord value reproduced; limiting-class III/IV "
              f"gradient gap {worst_grad:.1e}, max region-IV second difference "
              f"{worst_d2:.1e}")


def test_criterion_09_reverse_holder():
    q = 2.0
    a0 = wanted = math.sqrt(2.0) - 1.0
    assert abs(alpha0(q) - wanted) <= 1e-12
    assert rh_constant(q, 0.9 * a0).converged
    res = rh_constant(q, 1.05 * a0)
    assert not res.converged
    tails = [tail_integral(q, 1.05 * a0, s) for s in (1e2, 1e3, 1e4)]
    assert tails[2] >= 2.0 * tails[0]
    assert tails[2] - tails[1] > tails[1] - tails[0] > 0.0
    c = derive_constants(Params(1.0, -1.0, q))
    assert abs(1.0 / c.nu - 1.0 - a0) <= 1e-12
    assert abs(moment_divergence_alpha(power_witness(q)) - a0) <= 1e-12
    report(9, "critical exponent exact, divergence evidence above it, "
              "witness threshold = 1/nu - 1")


def test_criterion_10_sign_diagnostics():
    for p1, p2 in CASES:
        p, c = setup(p1, p2, 2.0)
        rng = np.random.default_rng(4)
        count = 0
        for region in (Region.III, Region.IV):
            for _ in range(100):
                x = sample_region_point(rng, c, p, region, stencil=1e-3)
                assert dv_sign_check(x, region, p, c)
                if region == Region.IV:
                    assert tangent_pi(x, c, p) < 0.0
                count += 1
        assert count == 200
    report(10, "dv sign checks at 200 interior points/case; Pi < 0 throughout IV")


def test_criterion_11_cutoff_lemma():
    p, c = setup(1.0, -1.0, 2.0)
    rng = np.random.default_rng(5)
    done = 0
    worst_ratio_excess = -1.0
    while done < 200:
        n = int(rng.integers(2, 5))
        cuts = np.sort(rng.uniform(0.1, 0.9, size=n - 1))
        vals = np.exp(rng.normal(0.0, 0.25, size=n))
        w = step_weight(list(cuts), list(vals))
        if apq_norm(w, p, 8) > p.q:
            continue
        lvl = float(rng.uniform(0.5, 1.8))
        cut = cutoff_below(w, lvl)
        assert apq_norm(cut, p, 8) <= p.q * (1.0 + 1e-6)
        ts = sorted(set(w.breakpoints()) | set(np.linspace(0.0, 1.0, 7)))
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                a, b = ts[i], ts[j]
                if b - a < 1e-9:
                    continue
                r_w = moment(w, p.p1, (a, b)) ** (1 / p.p1) \
                    * moment(w, p.p2, (a, b)) ** (-1 / p.p2)
                r_c = moment(cut, p.p1, (a, b)) ** (1 / p.p1) \
                    * moment(cut, p.p2, (a, b)) ** (-1 / p.p2)
                assert r_c <= r_w + 1e-10
                worst_ratio_excess = max(worst_ratio_excess, r_c - r_w)
        done += 1
    report(11, f"cutoffs never increase subinterval ratios "
               f"(worst excess {worst_ratio_excess:.1e}) on 200 class weights")
