import math

import numpy as np
import pytest

from apq import SolveError
from apq._roots import expand, golden_max, solve


def _bisect_reference(f, lo, hi, flo, fhi):
    """The plain bisection loop that solve(df=None) must reproduce bit for bit."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_bisects_to_exhaustion():
    f = lambda x: x * x - 2.0
    root = solve(f, None, 0.0, 2.0, f(0.0), f(2.0))
    assert abs(root - math.sqrt(2.0)) <= 4e-16
    assert solve(f, None, math.sqrt(2.0), 2.0, 0.0, f(2.0)) == math.sqrt(2.0)


def test_solve_without_derivative_matches_plain_bisection():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = sorted(rng.uniform(-50.0, 50.0, 2))
        root = rng.uniform(a, b)
        k = rng.integers(1, 4)
        f = lambda x: math.copysign(abs(x - root) ** k, x - root) * (1.0 + 0.1 * math.sin(x))
        calls, ref_calls = [], []
        got = solve(lambda x: calls.append(x) or f(x), None, a, b, f(a), f(b))
        want = _bisect_reference(lambda x: ref_calls.append(x) or f(x), a, b, f(a), f(b))
        assert got == want
        assert calls == ref_calls


def test_solve_newton_converges_in_few_steps():
    calls = []
    f = lambda x: calls.append(x) or x * x - 2.0
    root = solve(f, lambda x: 2.0 * x, 0.0, 2.0, -2.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= 4e-16
    assert len(calls) <= 8


@pytest.mark.parametrize("df", [lambda x: 0.0, lambda x: math.nan, lambda x: -2.0 * x,
                                lambda x: 1e-300])
def test_solve_survives_bad_derivatives(df):
    f = lambda x: x**3 - 2.0
    root = solve(f, df, 0.0, 4.0, f(0.0), f(4.0))
    assert 0.0 < root < 4.0
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-15


def test_solve_keeps_warm_start_inside_bracket():
    f = lambda x: x * x - 2.0
    df = lambda x: 2.0 * x
    for x0 in (1.41, 1e-9, 5.0, -1.0, math.nan):
        assert abs(solve(f, df, 0.0, 2.0, -2.0, 2.0, x0) - math.sqrt(2.0)) <= 4e-16


def test_solve_needs_a_sign_change():
    f = lambda x: x * x - 2.0
    with pytest.raises(SolveError):
        solve(f, None, 2.0, 3.0, f(2.0), f(3.0))
    with pytest.raises(SolveError):
        solve(f, lambda x: 2.0 * x, -1.0, 1.0, f(-1.0), f(1.0))


def test_expand_finds_sign_change():
    f = lambda s: s - 100.0
    assert expand(f, 0.5, 4.0, f(0.0), 60, "root") == (128.0, 28.0)


def test_expand_failures_are_solve_errors():
    with pytest.raises(SolveError):  # math.exp overflows
        expand(lambda s: math.exp(s) - 1e300, 0.7, 4.0, -1.0, 200, "root")
    with pytest.raises(SolveError):  # exp underflows to 0.0, and 0.0 ** -0.1 divides by zero
        expand(lambda s: math.exp(s) ** -0.1 - 1e300, -0.7, 4.0, -1.0, 200, "root")
    with pytest.raises(SolveError):  # non-finite value
        expand(lambda s: math.nan, 1.0, 2.0, -1.0, 10, "root")
    with pytest.raises(SolveError):  # budget runs out
        expand(lambda s: -1.0, 1.0, 2.0, -1.0, 10, "root")


def test_golden_max():
    x, fx = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0, 60)
    assert abs(x - 0.3) <= 1e-7
    assert fx == -(x - 0.3) ** 2
