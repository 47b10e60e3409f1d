import math

import pytest

from apq import SolveError
from apq._roots import bisect, expand, golden_max, newton_polish


def test_bisect_to_exhaustion():
    f = lambda x: x * x - 2.0
    root = bisect(f, 0.0, 2.0, f(0.0), f(2.0))
    assert abs(root - math.sqrt(2.0)) <= 4e-16
    assert bisect(f, math.sqrt(2.0), 2.0, 0.0, f(2.0)) == math.sqrt(2.0)
    with pytest.raises(SolveError):
        bisect(f, 2.0, 3.0, f(2.0), f(3.0))


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


def test_newton_polish_keeps_only_improving_steps():
    f = lambda x: x * x - 2.0
    df = lambda x: 2.0 * x
    assert abs(newton_polish(f, df, 1.5, 0.0, 2.0) - math.sqrt(2.0)) <= 1e-11
    # The first step leaves (lo, hi), so x stays where it was.
    assert newton_polish(f, df, 0.1, 0.0, 2.0) == 0.1


def test_golden_max():
    x, fx = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0, 60)
    assert abs(x - 0.3) <= 1e-7
    assert fx == -(x - 0.3) ** 2
