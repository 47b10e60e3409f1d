import math

import numpy as np
import pytest

from apq import DomainError, Params, SolveError, ainf_constants, derive_constants, solve_gammas
from apq.params import gamma_equation, gamma_residual_scale

from conftest import gamma1, setup


def test_gamma_closed_form_1_m1():
    # For (p1, p2) = (1, -1) the tangency equation is quadratic:
    # gamma**2 - 2*Q*gamma + Q = 0, roots Q +- sqrt(Q**2 - Q).
    for q in (1.2, 2.0, 4.0, 8.0):
        p = Params(1.0, -1.0, q)
        gm, gp = solve_gammas(p)
        d = math.sqrt(q * q - q)
        assert abs(gm - (q - d)) <= 1e-10
        assert abs(gp - (q + d)) <= 1e-10
        for root in (gm, gp):
            assert abs(gamma_equation(root, p) - q**p.p2) \
                <= 1e-12 * gamma_residual_scale(root, p)


def test_gamma_closed_form_2_1():
    # For (2, 1): gamma**2 - 2*Q*gamma + 1 = 0, roots Q +- sqrt(Q**2 - 1).
    for q in (1.2, 2.0, 4.0, 8.0):
        p = Params(2.0, 1.0, q)
        gm, gp = solve_gammas(p)
        d = math.sqrt(q * q - 1.0)
        assert abs(gm - (q - d)) <= 1e-10
        assert abs(gp - (q + d)) <= 1e-10


def test_gamma_near_unity():
    q = 1.0001
    gm, gp = solve_gammas(Params(1.0, -1.0, q))
    d = math.sqrt(q * q - q)
    assert abs(gm - (q - d)) <= 1e-10
    assert abs(gp - (q + d)) <= 1e-10
    assert abs(gm - 1.0) < 0.011 and abs(gp - 1.0) < 0.011


def test_derived_constants_a2():
    p, c = setup(1.0, -1.0, 2.0)
    s2 = math.sqrt(2.0)
    assert abs(c.v_minus - (3.0 - 2.0 * s2)) <= 1e-12
    assert abs(c.A - c.v_minus) <= 1e-12       # coincidence special to (1,-1)
    assert abs(c.nu - s2 / 2.0) <= 1e-12
    # Affine-sheet coefficients, closed forms for (1,-1):
    # a = -(Q - sqrt(Q^2-Q))/(8(Q^2-Q)), b = -(Q + ...)/(8(...)), c = 1 + 1/(4(Q-1)).
    q, d = 2.0, math.sqrt(2.0)
    assert abs(c.a2 - (-(q - d) / (8.0 * (q * q - q)))) <= 1e-12
    assert abs(c.b2 - (-(q + d) / (8.0 * (q * q - q)))) <= 1e-12
    assert abs(c.c2 - (1.0 + 1.0 / (4.0 * (q - 1.0)))) <= 1e-12


def test_plane_passes_through_unit_point():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p1 = rng.uniform(-4.0, 4.0)
        p2 = p1 - rng.uniform(0.1, 4.0)
        if abs(p1) < 0.05 or abs(p2) < 0.05:
            continue
        c = derive_constants(Params(p1, p2, rng.uniform(1.1, 10.0)))
        assert abs(c.a2 + c.b2 + c.c2 - 1.0) <= 1e-10 * max(
            1.0, abs(c.a2), abs(c.b2), abs(c.c2))


def test_random_parameter_sweep():
    rng = np.random.default_rng(7)
    done = 0
    while done < 1000:
        p1 = rng.uniform(-4.0, 4.0)
        p2 = rng.uniform(-4.0, 4.0)
        # Exponent gaps below ~0.25 push the roots (and the sheet anchors)
        # beyond double range; keep the sweep representable.
        if not (p1 > p2) or abs(p1) < 0.05 or abs(p2) < 0.05 or p1 - p2 < 0.25:
            continue
        q = rng.uniform(1.0 + 1e-3, 10.0)
        p = Params(p1, p2, q)
        gm, gp = solve_gammas(p)
        assert 0.0 < gm < 1.0 < gp
        target = q**p2
        assert abs(gamma_equation(gm, p) - target) <= 1e-12 * gamma_residual_scale(gm, p)
        assert abs(gamma_equation(gp, p) - target) <= 1e-12 * gamma_residual_scale(gp, p)
        c = derive_constants(p)  # raises if any derived invariant fails
        assert 0.0 < c.v_minus < 1.0 and c.v_plus == 1.0 / c.v_minus
        assert 0.0 < c.A < 1.0
        # The affine sheet hits its three anchors.
        for v, want in ((1.0, 1.0), (c.v_minus, 0.0), (c.v_plus, 1.0)):
            x1, x2 = gamma1(v, p)
            got = c.a2 * x1 + c.b2 * x2 + c.c2
            scale = max(1.0, abs(c.a2 * x1), abs(c.b2 * x2), abs(c.c2))
            assert abs(got - want) <= 1e-10 * scale
        done += 1


def test_invalid_params_rejected():
    with pytest.raises(DomainError):
        Params(1.0, 1.0, 2.0)       # p1 == p2
    with pytest.raises(DomainError):
        Params(-1.0, 1.0, 2.0)      # p1 < p2
    with pytest.raises(DomainError):
        Params(2.0, 0.0, 2.0)       # p2 = 0 needs p1 = 1
    with pytest.raises(DomainError):
        Params(1.0, -1.0, 1.0)      # Q must exceed 1
    with pytest.raises(DomainError):
        Params(1.0, -1.0, math.inf)


def test_ainf_constants():
    for q in (1.5, 2.0, 4.0):
        a = ainf_constants(q)
        target = 1.0 + math.log(q)
        for g in (a.gamma_minus, a.gamma_plus):
            assert abs(math.log(g) + 1.0 / g - target) <= 1e-12 * target
        assert 0.0 < a.gamma_minus < 1.0 < a.gamma_plus
        assert abs(a.v_minus - a.gamma_minus / a.gamma_plus) <= 1e-15
        # Two equivalent expressions for the tail exponent.
        assert abs(a.nu - (1.0 - 1.0 / a.gamma_plus)) <= 1e-15
        assert abs(a.nu - math.log(a.gamma_plus / q)) <= 1e-12
        # Sheet anchors in the (mean, mean-log) variables.
        sheet = lambda x1, x2: a.a2 * x1 + a.b2 * x2 + a.c2
        assert abs(sheet(1.0, 0.0) - 1.0) <= 1e-12
        assert abs(sheet(a.v_minus, math.log(a.v_minus))) <= 1e-12
        assert abs(sheet(a.v_plus, math.log(a.v_plus)) - 1.0) <= 1e-12


def test_bracket_overflow_is_solve_error():
    # The upper root sits near s = log(t) = 695; the log-space bracket
    # expansion steps from s = 179.2 to 716.8, where exp overflows.
    with pytest.raises(SolveError):
        derive_constants(Params(-1.0, -1.001, 2.0))
    # Here exp(s) underflows to 0 while bracketing the lower root.
    with pytest.raises(SolveError):
        derive_constants(Params(1.0, 0.999, 5.0))


def test_nu_check_large_class():
    # gamma_plus**-p1 is about 1.3e-16, so 1 - nu*p1 is pure roundoff; the p1
    # relation is tested on nu*p1 itself.
    c = derive_constants(Params(5.0, 4.0, 1e3))
    assert c.nu * 5.0 == -math.expm1(-5.0 * math.log(c.gamma_plus))


def test_nu_check_q_near_one():
    # Here nu*p1 = 1 - gamma_plus**-p1 is a few 1e-8: written as that
    # difference it loses half its digits (4.1e-9 relative at (-0.5, -2)),
    # so nu takes the expm1 form and carries only its own rounding.
    for p1, p2 in ((1.0, -1.0), (2.0, 1.0), (-0.5, -2.0)):
        c = derive_constants(Params(p1, p2, 1.0 + 1e-15))
        assert 0.0 < c.v_minus < 1.0
        want = -math.expm1(-p1 * math.log(c.gamma_plus))
        assert abs(c.nu * p1 - want) <= 1e-15 * abs(want)


def test_unrepresentable_constants_are_solve_error():
    # v_minus**10 and v_minus**9.5 both underflow to 0, so a2 divides by zero.
    with pytest.raises(SolveError):
        derive_constants(Params(10.0, 9.5, 50.0))
    # A = Q**-p2 * gamma_plus**(p2 - p1) overflows.
    with pytest.raises(SolveError):
        derive_constants(Params(100.0, -100.0, 1e6))
