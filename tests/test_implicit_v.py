import math
import sys
from pathlib import Path

import numpy as np
import pytest

import apq.implicit_v as implicit_v
from apq import (Params, Region, SolveError, derive_constants, dv_sign_check, evaluate,
                 tangent_pi)
from apq.geometry import gamma1_point
from apq.implicit_v import chord_residual, solve_v_III, solve_v_IV, tangent_residual

from conftest import CASES, gamma1, random_in_region, setup

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "apqbench"))
from reference import Reference  # noqa: E402


def test_solve_v_III_closed_form(a2_setup):
    p, c = a2_setup
    # For (1,-1) the chord equation is quadratic with root v = (1-x1)/(x2-1).
    assert abs(solve_v_III((0.75, 1.5), p) - 0.5) <= 1e-11
    for x in [(0.8, 1.3), (0.6, 1.9), (0.95, 1.06)]:
        want = (1.0 - x[0]) / (x[1] - 1.0)
        assert abs(solve_v_III(x, p) - want) <= 1e-11 * want


def test_solve_v_III_gamma1_fixed_point():
    rng = np.random.default_rng(0)
    for p1, p2 in CASES:
        p, _ = setup(p1, p2)
        for _ in range(20):
            v0 = rng.uniform(0.2, 0.95)
            assert abs(solve_v_III(gamma1(v0, p), p) - v0) <= 1e-10 * v0


def test_solve_v_III_lower_tangent_touch(a2_setup):
    # The chord through (1,1) and the lower touch point ends at v_minus.
    p, c = a2_setup
    x = (c.gamma_minus, c.gamma_plus)  # touch point of the lower tangent
    assert abs(solve_v_III(x, p) - c.v_minus) <= 1e-10


def test_solve_v_III_degenerate(a2_setup):
    p, _ = a2_setup
    with pytest.raises(SolveError):
        solve_v_III((1.0, 1.0), p)


def test_solve_v_IV_quadratic_oracle(a2_setup):
    p, c = a2_setup
    # Extreme-curve point built from v=0.08; the (1,-1) tangent equation is
    # x2*v**2 - (1+v_minus)*v + v_minus*x1 = 0, larger root.
    x = (c.gamma_plus * 0.08, 2.0 / (c.gamma_plus * 0.08))
    got = solve_v_IV(x, c, p)
    vm = c.v_minus
    oracle = (1.0 + vm + math.sqrt(max((1.0 + vm) ** 2 - 4.0 * vm * x[0] * x[1], 0.0))) \
        / (2.0 * x[1])
    assert abs(got - 0.08) <= 1e-9
    assert abs(got - oracle) <= 1e-9
    # Interior point: compare against the quadratic oracle as well.
    x = (0.3, 6.0)
    got = solve_v_IV(x, c, p)
    oracle = (1.0 + vm + math.sqrt((1.0 + vm) ** 2 - 4.0 * vm * x[0] * x[1])) / (2.0 * x[1])
    assert abs(got - oracle) <= 1e-10


def test_solve_v_IV_boundary_and_gamma1(a2_setup):
    p, c = a2_setup
    # Lower-tangent touch point: the tangent is the one based at v_minus.
    assert abs(solve_v_IV((c.gamma_minus, c.gamma_plus), c, p) - c.v_minus) <= 1e-10
    # Unit-curve points inside the IV closure are their own base points.
    for v0 in (0.05, 0.1, c.v_minus * 0.9):
        assert abs(solve_v_IV(gamma1(v0, p), c, p) - v0) <= 1e-10 * v0


def test_solve_v_IV_within_roundoff_of_extreme_curve():
    # A scan grid point whose extreme-curve residual is -1.09e-13 of scale:
    # both bracket ends have the same sign, and the nearer curve is the root.
    p = Params(-1.0, -2.0, 20.0)
    c = derive_constants(p)
    x = (3193.999999217282, 4080654397.999998)
    r = math.exp(math.log(x[0]) / p.p1)
    assert solve_v_IV(x, c, p) == r / c.gamma_plus


def test_solver_evaluations_per_call(monkeypatch):
    # Newton steps inside the bracket settle in about ten residual evaluations;
    # bisection to float exhaustion took about 60.  The chord count includes
    # the bracket search.
    counts = {"chord": 0, "tangent": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    rng = np.random.default_rng(7)
    cases = []
    for q3 in ((1.0, -1.0, 2.0), (2.0, 1.0, 1.05), (-0.5, -2.0, 50.0), (2.0, -1.0, 4.0),
               (-1.0, -2.0, 20.0), (5.0, 4.0, 3.0)):
        p, c = setup(*q3)
        for _ in range(50):
            cases.append((p, c, random_in_region(rng, c, p, Region.III, 1)[0],
                          random_in_region(rng, c, p, Region.IV, 1)[0]))
    n = len(cases)

    monkeypatch.setattr(implicit_v, "tangent_residual", counted("tangent", tangent_residual))
    for p, c, _, x in cases:
        solve_v_IV(x, c, p)
    # The chord solve hands its residual in u = log v to expand and solve.
    expand, solve = implicit_v.expand, implicit_v.solve
    monkeypatch.setattr(implicit_v, "expand", lambda f, *args: expand(counted("chord", f), *args))
    monkeypatch.setattr(implicit_v, "solve", lambda f, *args: solve(counted("chord", f), *args))
    for p, _, x, _ in cases:
        solve_v_III(x, p)
    assert counts["tangent"] <= 12 * n
    assert counts["chord"] <= 18 * n


@pytest.mark.parametrize("x", [(5.5641401062549389e-07, 0.00071129172913262967),
                               (4.5783148790893376e-06, 0.0020403353755374305)])
def test_chord_solve_matches_reference_at_tiny_coordinates(x):
    # Region-III scan points of (2, 1, 20) where the ratio (x1-1)/(x2-1)
    # would round away x's low digits: the raw chord residual keeps B to 1e-13.
    p, c = setup(2.0, 1.0, 20.0)
    got = evaluate(x, c, p)
    assert got.region == Region.III
    want = float(Reference(2.0, 1.0, 20.0).bound(*x))
    assert abs(got.value - want) <= 1e-13 * abs(want)


def test_chord_solve_at_tiny_coordinates_of_an_extreme_class():
    # A scan grid point of (5, 4, 100), far below U(1), that the chord solve
    # refused as landing on the wrong side.  It lies within rounding of the
    # III/IV boundary (the reference puts it in IV), where the formulas meet.
    x = (1.4361088697914278e-92, 2.5047579553392338e-74)
    p, c = setup(5.0, 4.0, 100.0)
    want = float(Reference(5.0, 4.0, 100.0).bound(*x))
    assert abs(evaluate(x, c, p).value - want) <= 1e-8 * want


@pytest.mark.parametrize("p1, p2", [(1.0, 0.0), (1.0, -1.0), (-0.5, -2.0), (2.0, 1.0)])
def test_chord_solve_matches_reference_near_q_one(p1, p2):
    # At Q = 1 + 1e-6 the chord parameter sits within about 3e-3 of the
    # trivial root v = 1, where the raw chord residual cancels to rounding;
    # it missed the reference by up to 3.4e-10 here.  Closer to U(1) than
    # v = v_minus**(1/4), B itself amplifies rounding in x beyond 1e-12.
    q = 1.0 + 1e-6
    p, c = setup(p1, p2, q)
    ref = Reference(p1, p2, q)
    rng = np.random.default_rng(8)
    one = gamma1_point(1.0, p)
    for _ in range(100):
        # A point of the chord from U(1) to U(v), v in (v_minus, 1): region III.
        v, mu = c.v_minus ** rng.uniform(0.25, 1.0), rng.uniform(0.0, 1.0)
        u = gamma1_point(v, p)
        x = (mu * one[0] + (1.0 - mu) * u[0], mu * one[1] + (1.0 - mu) * u[1])
        assert abs(evaluate(x, c, p).value - float(ref.bound(*x))) <= 2e-12, x


def test_residuals_and_sign_condition():
    rng = np.random.default_rng(1)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        s1 = math.copysign(1.0, p.p1)
        for x in random_in_region(rng, c, p, Region.III, 1000):
            v = solve_v_III(x, p)
            scale = max(abs(x[1] - x[0]), abs(v**p.p2 * (1 - x[0])),
                        abs(v**p.p1 * (1 - x[1])))
            assert abs(chord_residual(v, x, p)) <= 1e-11 * scale
            assert v < 1.0
            assert math.copysign(1.0, x[0] - v**p.p1) == s1
        for x in random_in_region(rng, c, p, Region.IV, 1000):
            v = solve_v_IV(x, c, p)
            assert abs(tangent_residual(v, x, c, p)) <= 1e-11 * max(1.0, abs(x[1]))
            assert math.copysign(1.0, x[0] - v**p.p1) == s1
            r = math.exp(math.log(x[0]) / p.p1)
            assert r / c.gamma_plus <= v <= r  # between touch and base projections


def test_pi_negative_in_region_iv():
    rng = np.random.default_rng(2)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for x in random_in_region(rng, c, p, Region.IV, 100):
            assert tangent_pi(x, c, p) < 0.0


def test_continuity_across_iii_iv_boundary():
    # Both solvers define the same chord on the shared tangent segment.
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        touch = (c.gamma_minus**p.p1, p.q ** (-p.p2) * c.gamma_minus**p.p2)
        vm_pt = gamma1(c.v_minus, p)
        for k in range(100):
            s = (k + 0.5) / 100
            z = (touch[0] + s * (vm_pt[0] - touch[0]),
                 touch[1] + s * (vm_pt[1] - touch[1]))
            v3 = solve_v_III(z, p)
            v4 = solve_v_IV(z, c, p)
            assert abs(v3 - v4) <= 1e-8
            assert abs(v3 - c.v_minus) <= 1e-8


def test_dv_sign_examples(a2_setup):
    p, c = a2_setup
    assert dv_sign_check((0.75, 1.5), Region.III, p, c)
    p21, c21 = setup(2.0, 1.0)
    rng = np.random.default_rng(3)
    x = random_in_region(rng, c21, p21, Region.III, 1, stencil=1e-3)[0]
    assert dv_sign_check(x, Region.III, p21, c21)
    pm, cm = setup(-1.0, -2.0)
    x = random_in_region(rng, cm, pm, Region.IV, 1, stencil=1e-3)[0]
    assert dv_sign_check(x, Region.IV, pm, cm)


def test_dv_sign_campaign_small():
    rng = np.random.default_rng(4)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for region in (Region.III, Region.IV):
            for x in random_in_region(rng, c, p, region, 25, stencil=1e-3):
                assert dv_sign_check(x, region, p, c)
