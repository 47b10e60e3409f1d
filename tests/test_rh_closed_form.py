"""The closed-form layer-cake integral of `apq.rh`: an independent reference,
scale invariance, argument checks, and a package that runs without scipy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import apq
from apq import DomainError, Params, SolveError, alpha0, derive_constants, rh_constant
from apq.bellman import _a2_setup
from apq.rh import tail_envelope_constant, tail_integral, truncated_integral

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "apqbench"))
from reference import Reference, alpha0 as reference_alpha0  # noqa: E402


@pytest.mark.parametrize("q", [1.0 + 1e-6, 1.05, 2.0, 5.0, 100.0, 1e4])
def test_head_and_middle_match_reference(q):
    # Up to 1/gamma_minus the integrand is t**alpha on region I and the sheet
    # a2/t + b2*Q*t + c2 on region II; here the sheet comes from the 50-digit
    # constants and is integrated at 30 digits.
    ref = Reference(1.0, -1.0, q)
    s_max = 1.0 / derive_constants(Params(1.0, -1.0, q)).gamma_minus
    for frac in (1e-6, 0.3, 0.9):
        alpha = frac * alpha0(q)
        got = truncated_integral(q, alpha, s_max)
        with mpmath.workdps(30):
            a, qm, lo = mpmath.mpf(alpha), mpmath.mpf(q), 1 / ref.gp
            sheet = lambda s: (1 + a) * s**a * (ref.a2 / s + ref.b2 * qm * s + ref.c2)  # noqa: E731
            want = lo ** (1 + a) + mpmath.quad(sheet, [lo, mpmath.mpf(s_max)])
            assert abs(got - want) <= 1e-12 * want, (q, frac, float(abs(got - want) / want))


@pytest.mark.parametrize("x", [(1e-200, 2e200), (1e200, 2e-200), (1e-300, 2e300), (0.08, 25.0)])
def test_rh_constant_is_scale_invariant(x):
    want = rh_constant(2.0, 0.2).constant
    assert abs(rh_constant(2.0, 0.2, x).constant - want) <= 1e-14 * want


def test_truncated_integrals_scale_with_the_point():
    q, alpha, x1 = 2.0, 0.2, 0.08
    for s in (0.01, 0.5, 3.0, 1e3):
        for f in (truncated_integral, tail_integral):
            want = x1 ** (1.0 + alpha) * f(q, alpha, s / x1)
            assert abs(f(q, alpha, s, (x1, q / x1)) - want) <= 1e-14 * want


@pytest.mark.parametrize("call", [
    lambda: truncated_integral(2.0, 0.2, -1.0),
    lambda: truncated_integral(2.0, 0.2, math.nan),
    lambda: tail_integral(2.0, 0.2, -1.0),
    lambda: truncated_integral(1.0, 0.2, 10.0),
    lambda: tail_integral(1.0, 0.2, 10.0),
    lambda: tail_envelope_constant(1.0),
    lambda: tail_integral(2.0, 0.0, 10.0),
    lambda: tail_integral(2.0, -0.1, 10.0),
    lambda: truncated_integral(2.0, 0.2, 10.0, (-1.0, -2.0)),
    lambda: rh_constant(2.0, 0.2, (-1.0, -2.0)),
    lambda: rh_constant(2.0, 0.2, (math.inf, 0.0)),
], ids=["negative-s_max", "nan-s_max", "tail-negative-s_max", "truncated-q-1", "tail-q-1",
        "envelope-q-1", "tail-alpha-0", "tail-alpha-negative", "truncated-negative-point",
        "negative-point", "infinite-point"])
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_package_runs_without_scipy():
    script = (
        "import sys\n"
        "import apq\n"
        "from apq import Params, power_witness, rh_check\n"
        "from apq.cli import main\n"
        "rh_check(power_witness(2.0), 0.2, Params(1.0, -1.0, 2.0))\n"
        "assert main(['rh', '--p1', '1', '--p2', '-1', '--q', '2', '--alpha', '0.2']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(apq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_overflow_raises_solve_error():
    # x1**(1 + alpha) leaves the double range near alpha0 ~ 1000 at Q -> 1.
    q = 1.0 + 1e-6
    alpha = 0.9 * alpha0(q)
    for f in (truncated_integral, tail_integral):
        with pytest.raises(SolveError):
            f(q, alpha, 7e3, (7.0, q / 7.0))


def test_overflowing_power_of_x1_with_a_representable_result():
    # x1**(1 + alpha) is about e**710 at x1 = 2.2008, alpha ~ 899 and
    # overflows, but the integrals just past the end of region I and just past
    # the start of region IV stay below the top of the double range.
    q = 1.0 + 1e-6
    alpha = 0.9 * alpha0(q)
    x1 = 2.200821424301424
    _, c = _a2_setup(q)
    for f, s_max in ((truncated_integral, (1.0 + 1e-9) * x1 / c.gamma_plus),
                     (tail_integral, (1.0 + 1e-6) * x1 / c.gamma_minus)):
        got = f(q, alpha, s_max, (x1, q / x1))
        with mpmath.workdps(30):
            want = mpmath.mpf(x1) ** (1 + mpmath.mpf(alpha)) * f(q, alpha, s_max / x1)
        assert 1e305 < want < 1.7e308
        assert abs(got - want) <= 1e-12 * want, float(abs(got - want) / want)


@pytest.mark.parametrize("q", [1.0 + 1e-6, 1.05, 2.0, 1e4, 1e8, 1e12, 1e16])
def test_alpha0_matches_reference(q):
    # sqrt(Q/(Q-1)) - 1 cancels as Q grows: it was off by 1.4e-8 at Q = 1e8
    # and returned 0 at 1e16.
    want = reference_alpha0(q)
    assert abs(alpha0(q) - want) <= 1e-15 * want


@pytest.mark.parametrize("q", [1e4, 1e8, 1e12])
def test_a2_lower_root_matches_reference(q):
    # Q - sqrt(Q**2 - Q) cancels as Q grows: it was off by 2.5e-9 at Q = 1e8.
    _, c = _a2_setup(q)
    ref = Reference(1.0, -1.0, q)
    assert abs(c.gamma_minus - ref.gm) <= 1e-15 * ref.gm
    assert abs(c.gamma_plus - ref.gp) <= 1e-15 * ref.gp


def test_rh_constant_converges_at_large_q():
    got = rh_constant(1e16, 0.5 * float(reference_alpha0(1e16)))
    assert got.converged and math.isfinite(got.constant)


def test_region_i_and_unstarted_tail_form_no_power_of_x1():
    # x1**(1 + alpha) overflows at x1 = 7, alpha ~ 899, but up to
    # s_max = x1/gamma_plus the integrand is s**alpha and the tail has not
    # started, so both results are representable.
    q = 1.0 + 1e-6
    alpha = 0.9 * alpha0(q)
    x = (7.0, q / 7.0)
    for s_max in (1.0, 0.5):
        assert truncated_integral(q, alpha, s_max, x) == s_max ** (1.0 + alpha)
        assert tail_integral(q, alpha, s_max, x) == 0.0
