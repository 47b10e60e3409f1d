import itertools
import math

import numpy as np
import pytest

import apq.extremal as extremal
import apq.implicit_v as implicit_v
import apq.verify as verify
from apq import (DomainError, Params, Region, apq_norm, build, check_concavity,
                 check_dv_signs, check_majorization, derive_constants, distribution,
                 evaluate, in_domain, oracle_max, step_weight)
from apq.extremal import decompose
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
    # The report keeps the 10 largest excesses, largest first.
    excesses = [exc for _, exc, _ in rep.details]
    assert len(excesses) == 10
    assert excesses == sorted(excesses, reverse=True)
    assert excesses[0] == rep.worst_violation


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


def test_sample_point_stays_in_the_domain():
    # Here r**p1 underflowed to 0 on 116 of 2,000 draws.
    p, c = setup(5.882564297636952, 5.440200579719934, 195.62880100789567)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        x = sample_point(rng, c, p)
        assert x[0] > 0.0 and x[1] > 0.0
        assert in_domain(x, p)


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


def _oracle_values(c, p, value_grid):
    vals = np.exp(np.linspace(math.log(c.v_minus * c.gamma_minus),
                              math.log(c.v_plus * c.gamma_plus), value_grid))
    return np.unique(np.concatenate([vals, [1.0, c.v_minus, c.v_plus]]))


def _oracle_full_product(x, c, p, n_pieces, value_grid, break_grid,
                         moment_band=2e-3, norm_slack=1e-6):
    """Reference oracle: the moment test on the whole value product per cut."""
    vals = _oracle_values(c, p, value_grid)
    v1, v2 = vals**p.p1, vals**p.p2
    ind = (vals >= 1.0).astype(float)
    breaks = np.arange(1, break_grid + 1) / (break_grid + 1.0)
    combos = np.array(list(itertools.product(range(len(vals)), repeat=n_pieces)))
    rows1, rows2 = v1[combos], v2[combos]
    cand = []
    for cuts in itertools.combinations(breaks, n_pieces - 1):
        lens = np.diff(np.array([0.0, *cuts, 1.0]))
        m1, m2 = rows1 @ lens, rows2 @ lens
        feas = (np.abs(m1 - x[0]) <= moment_band * abs(x[0])) \
            & (np.abs(m2 - x[1]) <= moment_band * abs(x[1]))
        obj = ind[combos[feas]] @ lens
        for row, ob in zip(combos[feas], obj):
            cand.append((float(ob), tuple(cuts), tuple(vals[row])))
    cand.sort(key=lambda t: -t[0])
    for ob, cuts, values in cand:
        w = step_weight(list(cuts), list(values))
        if apq_norm(w, p) <= p.q * (1.0 + norm_slack):
            return ob
    return -math.inf


@pytest.mark.parametrize("cls", [(1.0, -1.0, 2.0), (2.0, 1.0, 2.0), (2.0, -1.0, 2.0),
                                 (-0.5, -2.0, 2.0), (0.5, -3.0, 20.0)])
def test_oracle_matches_full_product(cls):
    # The sorted search of the last piece's value finds exactly the
    # candidates of the whole value product, so the values agree bit for bit.
    # Random points are mostly infeasible on this grid.  The moments of random
    # grid weights with values in [v_minus, v_plus] are feasible and often in
    # the class; they are moved inside the moment band, mostly near its edge.
    p, c = setup(*cls)
    rng = np.random.default_rng(5)
    vals, breaks = _oracle_values(c, p, 16), np.arange(1, 9) / 9.0
    vals = vals[(vals >= c.v_minus) & (vals <= c.v_plus)]
    pts = [sample_point(rng, c, p) for _ in range(4)]
    for n_pieces in (1, 2, 2, 3, 3, 3):
        cuts = np.sort(rng.choice(breaks, n_pieces - 1, replace=False))
        lens, v = np.diff([0.0, *cuts, 1.0]), rng.choice(vals, n_pieces)
        pts.append(tuple(float(lens @ v**k) * (1.0 + rng.choice((-1.99e-3, 1e-3, 1.99e-3)))
                         for k in (p.p1, p.p2)))
    for x in pts:
        for n_pieces in (1, 2, 3):
            assert oracle_max(x, c, p, n_pieces, 16, 8) \
                == _oracle_full_product(x, c, p, n_pieces, 16, 8)
    assert oracle_max(x, c, p, 4, 10, 7) == _oracle_full_product(x, c, p, 4, 10, 7)


def test_campaign_sizes_validated(a2_setup):
    p, c = a2_setup
    x = (0.75, 1.5)
    for call in (lambda: oracle_max(x, c, p, n_pieces=0),
                 lambda: oracle_max(x, c, p, n_pieces=-1),
                 lambda: oracle_max(x, c, p, value_grid=1),
                 lambda: oracle_max(x, c, p, break_grid=1),
                 lambda: check_majorization(c, p, n_weights=0),
                 lambda: check_majorization(c, p, depth=-1),
                 lambda: check_concavity(c, p, n_interior=0, n_boundary=0),
                 lambda: check_concavity(c, p, n_interior=-1, n_boundary=5)):
        with pytest.raises(DomainError):
            call()
    # One piece needs no cuts.
    assert oracle_max((1.0, 1.0), c, p, n_pieces=1, break_grid=0) == 1.0


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


@pytest.mark.parametrize("cls, n_weights", [((1.0, -1.0), 5), ((2.0, 1.0), 5),
                                             ((-0.5, -2.0), 20), ((2.0, -1.0), 20)])
def test_majorization_near_q_one(cls, n_weights):
    # At Q = 1 + 1e-6, in_domain's slack is 1e-6 of the domain's width; splits
    # that took children that far past the extreme curve left leaves that no
    # unit-curve chord passes through.
    p, c = setup(*cls, 1.0 + 1e-6)
    assert check_majorization(c, p, n_weights=n_weights).passed


def test_leaf_near_zero_hits_both_moments():
    # A region-IV leaf with tiny coordinates.  A unit-curve test absolute in
    # x2 took it for one step, whose second moment missed x2 by a factor of 68.
    p, c = setup(5.0, 4.0, 3.0)
    x = (4.1353996381627096e-18, 1.824004911485407e-16)
    region, steps = decompose(x, c, p)
    assert region == Region.IV
    for k, xk in ((p.p1, x[0]), (p.p2, x[1])):
        assert abs(sum(length * v**k for length, v in steps) - xk) <= 1e-9 * xk


def test_majorization_evaluates_each_node_once(monkeypatch):
    # Each split evaluates its two children, and each tree its root and its
    # final weight; the leaves are decomposed from their node's value.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    monkeypatch.setattr(verify, "evaluate", counted)
    monkeypatch.setattr(extremal, "evaluate", counted)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        calls = 0
        rep = check_majorization(c, p, n_weights=5, depth=6)
        assert rep.passed
        assert calls == 2 * rep.samples


def test_decompose_from_value_solves_nothing(monkeypatch):
    # In regions III and IV the step values come from the passed value's v:
    # with the root solver broken, decompose still returns the same split.
    def broken(*args):
        raise AssertionError("implicit_v.solve called")

    rng = np.random.default_rng(17)
    for p1, p2 in CASES:
        p, c = setup(p1, p2)
        for region in (Region.III, Region.IV):
            for x in random_in_region(rng, c, p, region, 5):
                at = evaluate(x, c, p)
                want = decompose(x, c, p)
                with monkeypatch.context() as m:
                    m.setattr(implicit_v, "solve", broken)
                    assert decompose(x, c, p, at) == want
                    with pytest.raises(AssertionError):
                        decompose(x, c, p)


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
