import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from apq import (DomainError, NonIntegrableError, Params, Piece, Region, Weight,
                 apq_norm, build, constant_weight, cutoff_above, cutoff_below,
                 distribution, moment, power_witness, scale_weight, step_weight,
                 weight_from_json, weight_to_json)
from apq import weights
from apq.verify import sample_region_point
from apq.weights import _candidate_points, _grid_averages, _piece_table, _sweep

from conftest import setup


def _random_weight(rng, allow_power=True):
    """Random piecewise weight on [0,1] with 2-5 pieces."""
    n = int(rng.integers(2, 6))
    cuts = np.sort(rng.uniform(0.05, 0.95, size=n - 1))
    ts = [0.0, *cuts, 1.0]
    pieces = []
    for i in range(n):
        lo, hi = ts[i], ts[i + 1]
        if allow_power and lo > 0.0 and rng.uniform() < 0.4:
            pieces.append(Piece(lo, hi, float(rng.uniform(0.3, 2.0)),
                                float(rng.uniform(-1.5, 1.5))))
        else:
            pieces.append(Piece(lo, hi, float(rng.uniform(0.2, 3.0))))
    return Weight(tuple(pieces))


def _random_class_step_weight(rng, p, max_tries=200):
    """Rejection-sampled step weight with class norm <= Q."""
    for _ in range(max_tries):
        n = int(rng.integers(2, 5))
        cuts = np.sort(rng.uniform(0.1, 0.9, size=n - 1))
        vals = np.exp(rng.normal(0.0, 0.25, size=n))
        w = step_weight(list(cuts), list(vals))
        if apq_norm(w, p, 8) <= p.q:
            return w
    raise RuntimeError("could not sample a class weight")


def test_moment_examples(a2_setup):
    p, c = a2_setup
    w = step_weight([0.5], [1.0, 0.5])
    assert moment(w, -1.0, (0.5, 1.0)) == 2.0
    assert moment(w, 1.0) == 0.75
    assert moment(w, -1.0) == 1.5
    # The extreme-curve profile has exact moments v**pk/(1 - nu*pk).
    v = 0.08
    a = (v / c.v_minus) ** (1.0 / c.nu)
    rho = (c.gamma_minus - c.v_minus) / (1.0 - c.v_minus)
    w = Weight((
        Piece(0.0, rho * a, 1.0),
        Piece(rho * a, a, c.v_minus),
        Piece(a, 1.0, c.v_minus * a**c.nu, c.nu),
    ))
    for pk in (1.0, -1.0):
        want = v**pk / (1.0 - c.nu * pk)
        assert abs(moment(w, pk) - want) <= 1e-12 * abs(want)


def test_moment_against_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = _random_weight(rng)
        pexp = float(rng.uniform(-2.0, 2.0))
        lo = float(rng.uniform(0.0, 0.4))
        hi = float(rng.uniform(lo + 0.2, 1.0))
        got = moment(w, pexp, (lo, hi))
        breaks = sorted({lo, hi, *(t for t in w.breakpoints() if lo < t < hi)})
        total = 0.0
        for a, b in zip(breaks, breaks[1:]):
            val, _ = quad(lambda t: w.value_at(t) ** pexp, a, b,
                          epsabs=1e-13, epsrel=1e-13)
            total += val
        want = total / (hi - lo)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_moment_integrability_guard():
    w = Weight((Piece(0.0, 1.0, 1.0, 0.8),))
    assert abs(moment(w, 1.0) - 1.0 / 0.2) <= 1e-12 * 5.0
    with pytest.raises(NonIntegrableError):
        moment(w, 1.5)  # exponent*p = 1.2 >= 1 at the origin


def test_distribution_examples():
    w = step_weight([0.5], [1.0, 0.5])
    assert distribution(w, 1.0) == 0.5
    assert distribution(w, -1.0) == 1.0
    assert distribution(w, 0.0) == 1.0
    assert distribution(w, 0.4) == 1.0
    assert distribution(w, 2.0) == 0.0
    # Decreasing power profile: threshold algebra.
    vm, nu, a = 0.2, 0.7, 0.3
    w = Weight((Piece(0.0, a, vm), Piece(a, 1.0, vm * a**nu, nu)))
    # w(t) = vm*(a/t)**nu <= vm on [a,1]; at level vm the whole tail is below.
    assert abs(distribution(w, vm) - a) <= 1e-15
    lvl = vm * (a / 0.6) ** nu  # w(0.6) == lvl
    assert abs(distribution(w, lvl) - 0.6) <= 1e-12


# A power piece whose level crossing (3/1)**(1/1e-3) lies past the double range.
FAR_CROSSING = Weight((Piece(0.0, 0.5, 1.0), Piece(0.5, 1.0, 3.0, 1e-3)))


def test_distribution_is_the_pointwise_count():
    n = 4000
    ts = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(11)
    cases = [(_random_weight(rng), float(rng.uniform(0.3, 2.0))) for _ in range(40)]
    cases += [(FAR_CROSSING, 1.0), (FAR_CROSSING, 2.9)]
    for w, lvl in cases:
        count = sum(w.value_at(float(t)) >= lvl for t in ts) / n
        # Each piece crosses the level at most once, inside one grid cell.
        assert abs(distribution(w, lvl) - count) <= len(w.pieces) / n, (w, lvl)


def test_crossing_past_double_range_lies_beyond_the_piece():
    assert distribution(FAR_CROSSING, 1.0) == 1.0
    assert cutoff_below(FAR_CROSSING, 1.0) == constant_weight(1.0)
    assert cutoff_above(FAR_CROSSING, 1.0) == FAR_CROSSING
    # Here value/level underflows to 0, and 0.0**(1/e) with e < 0 divides by 0.
    rising = Weight((Piece(0.0, 1.0, 1e-300, -1.0),))
    assert distribution(rising, 1e300) == 0.0
    assert cutoff_below(rising, 1e300) == rising


def test_value_at_of_a_decreasing_head_at_zero():
    assert power_witness(2.0).value_at(0.0) == math.inf
    assert Weight((Piece(0.0, 1.0, 2.0, -0.5),)).value_at(0.0) == 0.0


def test_scaling():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = _random_weight(rng)
        s = float(rng.uniform(0.3, 3.0))
        ws = scale_weight(w, s)
        for pexp in (1.0, -1.0, 2.0):
            a = moment(ws, pexp)
            b = s**pexp * moment(w, pexp)
            assert abs(a - b) <= 5e-15 * abs(b)
        lvl = float(rng.uniform(0.2, 2.5))
        assert abs(distribution(ws, s * lvl) - distribution(w, lvl)) <= 1e-12


def test_apq_norm_examples(a2_setup):
    p, c = a2_setup
    assert abs(apq_norm(constant_weight(3.7), p) - 1.0) <= 1e-12
    w = step_weight([0.5], [1.0, 0.5])
    assert abs(apq_norm(w, p) - 1.125) <= 1e-9
    # Pure power profile t**(-nu): norm exactly Q, attained on [0, 1].
    u = Weight((Piece(0.0, 1.0, 1.0, c.nu),))
    got = apq_norm(u, p)
    assert got <= 2.0 * (1.0 + 1e-9)
    assert got >= 2.0 * (1.0 - 1e-9)


def test_apq_norm_resolution_stability(a2_setup):
    p, c = a2_setup
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = _random_class_step_weight(rng, p)
        a = apq_norm(w, p, 16)
        b = apq_norm(w, p, 32)
        assert b >= a - 1e-12      # finer grids only improve the lower bound
        assert abs(b - a) <= 1e-6



# A step weight that oracle_max accepted at this class while its filter was a
# coarse grid estimate of the norm (2.4712 at resolution 8).
FOUND_Q = 2.4716171030618224
FOUND_WEIGHT = ([1.0 / 21.0, 20.0 / 21.0], [0.1367, 1.0602, 0.0997])


def test_step_norm_exact():
    p, _ = setup(1.0, -1.0, FOUND_Q)
    want = 3.181985141426918
    assert abs(apq_norm(step_weight(*FOUND_WEIGHT), p, 8) - want) <= 1e-12 * want
    # Against a brute force over a dense grid holding every breakpoint; the
    # grid can only fall short of the supremum.
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, 1.0, 601)
    for p1, p2 in [(1.0, -1.0), (2.0, 1.0), (2.0, -1.0), (-0.5, -2.0)]:
        p, _ = setup(p1, p2, 3.0)
        for _ in range(10):
            w = _random_weight(rng, allow_power=False)
            ts = np.union1d(grid, w.breakpoints())
            cum = [sum(pc.value**pk * np.clip(np.minimum(ts, pc.hi) - pc.lo, 0.0, None)
                       for pc in w.pieces) for pk in (p1, p2)]
            length = ts[None, :] - ts[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                logr = (np.log((cum[0][None, :] - cum[0][:, None]) / length) / p1
                        - np.log((cum[1][None, :] - cum[1][:, None]) / length) / p2)
            brute = math.exp(np.max(logr[length > 0.0]))
            got = apq_norm(w, p, 8)
            assert brute * (1.0 - 1e-12) <= got <= brute * (1.0 + 1e-3)


# Power-piece weights whose refinement moves the norm well past the grid
# estimate (the `norm_power_*` golden invocations).
POWER_HEAD = (Weight((Piece(0.0, 0.3, 1.0, 0.4), Piece(0.3, 1.0, 0.2))),
              Params(1.0, -1.0, 50.0))
POWER_MIDDLE = (Weight((Piece(0.0, 0.2, 3.0), Piece(0.2, 0.7, 0.5, -0.8),
                        Piece(0.7, 1.0, 0.4))), Params(2.0, -1.0, 50.0))


def _region_iv_weight(p1, p2, seed):
    p, c = setup(p1, p2)
    x = sample_region_point(np.random.default_rng(seed), c, p, Region.IV)
    return build(x, c, p)[0], p


def test_refinement_ratio_is_the_moment_ratio_bit_for_bit():
    cases = [_region_iv_weight(p1, p2, 20 + k)
             for k, (p1, p2) in enumerate([(1.0, -1.0), (2.0, 1.0), (2.0, -1.0), (-0.5, -2.0)])]
    cases += [(power_witness(2.0), Params(1.0, -1.0, 2.0)), POWER_HEAD, POWER_MIDDLE]
    rng = np.random.default_rng(21)
    for w, p in cases:
        assert any(pc.exponent != 0.0 for pc in w.pieces)
        table = _piece_table(w, p)
        bps = w.breakpoints()  # holds 0 and 1
        inside = [float(t) for t in rng.uniform(0.0, 1.0, size=6)]
        ends = bps + inside + [float(t) for t in rng.uniform(0.0, 1.0, size=30)]
        for fixed in bps + inside:  # fixed end on a piece end and inside a piece
            for left in (True, False):
                if fixed == (0.0 if left else 1.0):
                    continue  # no interval ends at 0 or starts at 1
                ratio = _sweep(w, p, table, fixed, left)
                for t in ends:
                    a, b = (t, fixed) if left else (fixed, t)
                    if not a < b:
                        continue
                    want = math.exp(math.log(moment(w, p.p1, (a, b))) / p.p1
                                    - math.log(moment(w, p.p2, (a, b))) / p.p2)
                    assert ratio(t) == want, (w, p, a, b, left)


def test_norm_grid_averages_are_the_moments():
    # In region-IV weights of (5, 4, 1000) and (6, 5.5, 2) an early piece's
    # integral dwarfs the later ones, so averages formed as prefix-sum
    # differences cancel; the grid must match moment up to vector-pow rounding.
    cases = [_region_iv_weight(p1, p2, 20 + k)
             for k, (p1, p2) in enumerate([(1.0, -1.0), (2.0, 1.0), (2.0, -1.0), (-0.5, -2.0)])]
    for cls in [(5.0, 4.0, 1000.0), (6.0, 5.5, 2.0)]:
        p, c = setup(*cls)
        rng = np.random.default_rng(3)
        cases += [(build(sample_region_point(rng, c, p, Region.IV), c, p)[0], p)
                  for _ in range(5)]
    cases += [(power_witness(2.0), Params(1.0, -1.0, 2.0)), POWER_HEAD, POWER_MIDDLE]
    for w, p in cases:
        ts = _candidate_points(w, 16)
        grid = _grid_averages(w, p, ts)
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                for k, pexp in enumerate((p.p1, p.p2)):
                    want = moment(w, pexp, (float(ts[i]), float(ts[j])))
                    assert abs(grid[k, i, j] - want) <= 1e-12 * abs(want), (w, p, i, j, pexp)


def test_norm_raises_non_integrable_not_overflow():
    p = Params(2.0, -1.0, 50.0)
    overflowing = Weight((Piece(0.0, 0.5, 1e200), Piece(0.5, 1.0, 1.0, 0.3)))
    divergent = Weight((Piece(0.0, 0.5, 1.0, 0.6), Piece(0.5, 1.0, 1.0)))
    for w in (overflowing, divergent):
        with pytest.raises(NonIntegrableError):
            apq_norm(w, p)


# A norm past the double range, from the step path and from the grid, and a
# power piece whose coef**p2 underflows to 0.
UNREPRESENTABLE_NORMS = [
    (step_weight([0.5], [1e-160, 1e150]), Params(1.0, -1.0, 2.0)),
    (Weight((Piece(0.0, 0.1, 1e234), Piece(0.1, 0.7, 1e181, 2.9), Piece(0.7, 1.0, 1e-176))),
     Params(1.0, -1.0, 2.0)),
    (Weight((Piece(0.0, 1.0, 3e181, 0.4),)), Params(-0.5, -2.0, 3.0)),
]


@pytest.mark.parametrize("w, p", UNREPRESENTABLE_NORMS)
def test_norm_outside_double_range_raises_non_integrable(w, p):
    with pytest.raises(NonIntegrableError):
        apq_norm(w, p)


def test_power_norm_refines_without_moment(monkeypatch):
    w, p = _region_iv_weight(1.0, -1.0, 20)

    def refuse(*args, **kwargs):
        raise AssertionError("apq_norm called moment")

    monkeypatch.setattr(weights, "moment", refuse)
    assert apq_norm(w, p) <= p.q * (1.0 + 1e-9)


def test_cutoff_examples():
    w = step_weight([0.5], [1.0, 0.5])
    lo = cutoff_below(w, 0.7)
    assert [(_p.lo, _p.hi, _p.value) for _p in lo.pieces] == [(0.0, 0.5, 0.7), (0.5, 1.0, 0.5)]
    hi = cutoff_above(w, 0.7)
    assert [(_p.lo, _p.hi, _p.value) for _p in hi.pieces] == [(0.0, 0.5, 1.0), (0.5, 1.0, 0.7)]


def test_cutoff_pointwise():
    rng = np.random.default_rng(3)
    ts = np.linspace(1e-3, 1.0, 211)
    for _ in range(50):
        w = _random_weight(rng)
        lvl = float(rng.uniform(0.3, 2.0))
        lo = cutoff_below(w, lvl)
        hi = cutoff_above(w, lvl)
        for t in ts:
            t = float(t)
            assert abs(lo.value_at(t) - min(w.value_at(t), lvl)) <= 1e-12
            assert abs(hi.value_at(t) - max(w.value_at(t), lvl)) <= 1e-12


def test_cutoff_splits_power_at_crossing(a2_setup):
    p, c = a2_setup
    vm, nu = c.v_minus, c.nu
    a = 0.3
    w = Weight((Piece(0.0, a, 0.05), Piece(a, 1.0, vm * a**nu, nu)))
    # The tail starts at value vm at t = a and decreases; a cutoff at a level
    # inside the tail's range splits the power piece at the crossing.
    lvl = vm * (a / 0.7) ** nu
    cut = cutoff_below(w, lvl)
    assert [q.exponent for q in cut.pieces] == [0.0, 0.0, nu]
    assert abs(cut.pieces[1].hi - 0.7) <= 1e-12
    assert cut.pieces[1].value == lvl


def test_cutoff_keeps_class_membership(a2_setup):
    # Every tested subinterval ratio of the lower cutoff stays at or below the
    # original's, so the class norm cannot grow.
    p, c = a2_setup
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = _random_class_step_weight(rng, p)
        lvl = float(rng.uniform(0.5, 1.8))
        cut = cutoff_below(w, lvl)
        assert apq_norm(cut, p, 8) <= p.q * (1.0 + 1e-6)
        ts = sorted(set(w.breakpoints()) | set(np.linspace(0, 1, 9)))
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


def test_two_step_membership():
    # Weights from unit-curve chords staying in the domain are in the class.
    rng = np.random.default_rng(5)
    for p1, p2 in [(1.0, -1.0), (2.0, 1.0)]:
        p, c = setup(p1, p2)
        from apq.geometry import segment_in_domain
        count = 0
        while count < 100:
            u = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
            v = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
            up = (u**p1, u**p2)
            vp = (v**p1, v**p2)
            if not segment_in_domain(up, vp, p, 1e-10):
                continue
            w = step_weight([float(rng.uniform(0.2, 0.8))], [u, v])
            assert apq_norm(w, p, 8) <= p.q * (1.0 + 1e-9)
            count += 1


def test_power_piece_of_exponent_0_reads_as_constant():
    doc = {"pieces": [{"kind": "const", "value": 2.0, "lo": 0.0, "hi": 0.3},
                      {"kind": "power", "coef": 0.6, "exponent": 0.0, "lo": 0.3, "hi": 1.0}]}
    w = weight_from_json(doc)
    step = step_weight([0.3], [2.0, 0.6])
    assert w == step
    assert weight_to_json(w) == weight_to_json(step)
    assert apq_norm(w, Params(1.0, -1.0, 2.0)) == 1.4083333333333332


def test_json_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = _random_weight(rng)
        doc = json.loads(json.dumps(weight_to_json(w)))
        w2 = weight_from_json(doc)
        assert len(w2.pieces) == len(w.pieces)
        for a, b in zip(w.pieces, w2.pieces):
            assert a == b  # repr round-trip through json is exact for floats


def test_weight_validation():
    with pytest.raises(DomainError):
        Weight((Piece(0.0, 0.5, 1.0),))  # does not reach 1
    with pytest.raises(DomainError):
        Weight((Piece(0.0, 0.5, 1.0), Piece(0.6, 1.0, 1.0)))  # gap
    with pytest.raises(DomainError):
        Weight((Piece(0.0, 1.0, -1.0),))  # nonpositive
    with pytest.raises(DomainError):
        step_weight([0.5], [1.0])  # value count mismatch
