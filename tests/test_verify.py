import numpy as np
import pytest

from apq import (Params, Region, build, check_concavity, check_dv_signs,
                 check_majorization, derive_constants, distribution, evaluate, oracle_max)
from apq.params import derive_constants_from_gammas
from apq.verify import lipschitz_slack, sample_point

from conftest import CASES, gamma1, random_in_region, setup


def test_concavity_small_pass(a2_setup):
    p, c = a2_setup
    rep = check_concavity(c, p, n_interior=60, n_boundary=25, seed=0)
    assert rep.passed
    assert rep.worst_violation <= 0.0
    assert rep.samples > 0


def test_limiting_class_surface_campaigns():
    # Params(1, 0, Q) runs through the general surface, so the concavity and
    # dv-sign campaigns apply to it unchanged, and still catch a bad root.
    p = Params(1.0, 0.0, 2.0)
    c = derive_constants(p)
    rep = check_concavity(c, p, n_interior=200, n_boundary=50, seed=0)
    assert rep.passed, rep.details[:3]
    rep = check_dv_signs(c, p, n_points=200)
    assert rep.passed, rep.details[:3]
    bad = derive_constants_from_gammas(p, c.gamma_minus, 1.05 * c.gamma_plus, check=False)
    assert not check_concavity(bad, p, n_interior=30, n_boundary=30, seed=0).passed


def test_concavity_mutation_fails(a2_setup):
    # A 5% corruption of the upper tangency root must break concavity across
    # the upper tangent line.
    p, c = a2_setup
    bad = derive_constants_from_gammas(p, c.gamma_minus, 1.05 * c.gamma_plus,
                                       check=False)
    rep = check_concavity(bad, p, n_interior=30, n_boundary=30, seed=0)
    assert not rep.passed
    assert rep.worst_violation > 0.0


def test_report_serialization(a2_setup):
    p, c = a2_setup
    rep = check_concavity(c, p, n_interior=10, n_boundary=5, seed=1)
    doc = rep.as_dict()
    assert doc["campaign"] == "concavity"
    assert isinstance(doc["pass"], bool)
    assert isinstance(doc["details"], list)


def test_oracle_example_region_iii(a2_setup):
    p, c = a2_setup
    got = oracle_max((0.75, 1.5), c, p, n_pieces=3, value_grid=40, break_grid=20)
    assert 0.45 <= got <= 0.5 + 1e-9


def test_oracle_unit_curve_points(a2_setup):
    # Constant weights at anchored grid values are feasible and reach 1.
    p, c = a2_setup
    assert oracle_max((1.0, 1.0), c, p, 2, 20, 8) == 1.0
    assert oracle_max(gamma1(c.v_plus, p), c, p, 2, 20, 8) == 1.0


def test_oracle_region_ii_bounded(a2_setup):
    p, c = a2_setup
    got = oracle_max((1.5, 1.0), c, p, n_pieces=3, value_grid=40, break_grid=20)
    assert got <= 0.9816941738241592 + 1e-3


def test_oracle_domination(a2_setup):
    p, c = a2_setup
    rng = np.random.default_rng(2)
    pts = [(0.75, 1.5), (1.5, 1.0), (0.3, 6.0)] + [
        sample_point(rng, c, p) for _ in range(3)]
    for x in pts:
        got = oracle_max(x, c, p, n_pieces=3, value_grid=24, break_grid=12)
        bound = evaluate(x, c, p).value
        assert got <= bound + lipschitz_slack(x, c, p) + 1e-9


def test_oracle_found_point_below_bound():
    # Here the oracle's class filter used to pass a weight of norm 3.18 > Q.
    p, c = setup(1.0, -1.0, 2.4716171030618224)
    x = (0.9722935503136965, 1.6815535661615362)
    got = oracle_max(x, c, p, n_pieces=3, value_grid=40, break_grid=20)
    assert got <= evaluate(x, c, p).value + lipschitz_slack(x, c, p) + 1e-9


def test_oracle_budget_guard(a2_setup):
    p, c = a2_setup
    from apq import SolveError
    with pytest.raises(SolveError):
        oracle_max((0.75, 1.5), c, p, n_pieces=5, value_grid=4, break_grid=4)


def test_attainment_from_below(a2_setup):
    p, c = a2_setup
    rng = np.random.default_rng(3)
    for region in (Region.I, Region.II, Region.III, Region.IV):
        for x in random_in_region(rng, c, p, region, 3):
            got = oracle_max(x, c, p, n_pieces=3, value_grid=16, break_grid=8)
            w, _ = build(x, c, p)
            reached = max(got, distribution(w, 1.0))
            assert reached >= evaluate(x, c, p).value - 1e-7


def test_majorization_small():
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        rep = check_majorization(c, p, n_weights=25, seed=7, depth=8)
        assert rep.passed, rep.details[:3]


def test_majorization_depth_zero(a2_setup):
    # Leaf-only trees: the weight is an exact unit-curve decomposition, so
    # the distribution equals the bound up to solver tolerance.
    p, c = a2_setup
    rep = check_majorization(c, p, n_weights=40, seed=1, depth=0)
    assert rep.passed


def test_extremal_equality_in_majorization_sense(a2_setup):
    p, c = a2_setup
    rng = np.random.default_rng(4)
    for region in (Region.I, Region.II, Region.III, Region.IV):
        for x in random_in_region(rng, c, p, region, 5):
            w, _ = build(x, c, p)
            assert distribution(w, 1.0) <= evaluate(x, c, p).value + 1e-9
            assert distribution(w, 1.0) >= evaluate(x, c, p).value - 1e-7


def test_dv_sign_campaign_small():
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        rep = check_dv_signs(c, p, n_points=30, seed=3)
        assert rep.passed
