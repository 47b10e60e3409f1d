"""The benchmark's workloads: inputs drawn once from a seed, the operations of
one round, and the check of each operation's output against the reference.

A workload is a fixed list of operations.  Every round runs the same list on
the same inputs, so the outputs of every round must be identical and the
throughput of a run is the same work divided by its time.  Inputs are drawn
through the 50-digit reference (region membership, distance from the region
boundaries), never through ``apq``; ``apq`` is imported only when the
operations are built.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import Reference, alpha0, weight_measure_at_least, weight_moment

# Tolerances of the checks; the README gives their error budget.
B_TOL = 1e-9            # |B - B_ref|, absolute (B lies in [0, 1])
RANGE_SLACK = 1e-14     # rounding allowed outside [0, 1] (the I/II corner reads 1 + 8 ulp)
MOMENT_RTOL = 1e-8      # moments of a built weight against its target point
NORM_RTOL = 1e-6        # apq_norm(w) <= Q (1 + NORM_RTOL)
ORACLE_TOL = 1e-9       # oracle <= B_ref + lipschitz_slack + ORACLE_TOL
UNIT_R_TOL = 1e-12      # unit-curve rows with |r - 1| below this may round either way
MAX_ERRORS = 5          # messages kept per operation

SCAN_GRID = 64


@dataclass(frozen=True)
class Op:
    kind: str                               # what the operation is, for the make-up
    run: Callable[[], object]               # the timed call; returns its output
    check: Callable[[object], list[str]]    # error messages for an output


@dataclass(frozen=True)
class Plan:
    classes: list                           # (p1, p2, Q) whose constants set-up derives
    make_ops: Callable[[], list]            # builds the round; imports apq


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _label(p1: float, p2: float) -> str:
    return f"({p1:g},{p2:g})"


def _constants(apq, p1, p2, q):
    p = apq.Params(p1, p2, q)
    return p, apq.derive_constants(p)


# ---------------------------------------------------------------------------
# scan: `apq scan --grid 64` in-process, one class and Q per operation
# ---------------------------------------------------------------------------

# (1, -1); p1 > p2 > 0; p1 > 0 > p2 with p1 != 1; 0 > p1 > p2; the limiting class.
SCAN_CLASSES = [(1.0, -1.0), (2.0, 1.0), (2.0, -1.0), (-0.5, -2.0), (1.0, 0.0)]
# Q strata: near 1, moderate, large.  Three per class put op_p90 in the middle
# of the limiting-class operations, whose cost grows with Q.
SCAN_Q = [(1.05, 1.25), (2.5, 5.0), (20.0, 40.0)]


def scan(seed: int) -> Plan:
    rng = random.Random(seed)
    classes = [(p1, p2, _log_uniform(rng, lo, hi))
               for p1, p2 in SCAN_CLASSES for lo, hi in SCAN_Q]

    def make_ops():
        from apq import cli
        return [Op(f"scan {_label(p1, p2)}" + (" limiting" if p2 == 0.0 else ""),
                   _scan_run(cli, p1, p2, q), _scan_checker(p1, p2, q))
                for p1, p2, q in classes]
    return Plan(classes, make_ops)


def _scan_run(cli, p1, p2, q):
    argv = ["scan", "--p1", repr(p1), "--p2", repr(p2), "--q", repr(q),
            "--grid", str(SCAN_GRID)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"apq {' '.join(argv)} exited {code}: {buf.getvalue()[:300]}")
        return buf.getvalue()
    return run


def _scan_checker(p1, p2, q):
    def check(text: str) -> list[str]:
        return check_scan_csv(Reference(p1, p2, q), text)
    return check


def check_scan_csv(ref: Reference, text: str, grid: int = SCAN_GRID) -> list[str]:
    """Every row of a scan against the reference: B within B_TOL and in
    [0, 1], unit-curve rows exactly 1{r >= 1}, labels equal off the boundaries."""
    errors: list[str] = []
    lines = text.splitlines()
    if not lines or lines[0] != "x1,x2,region,B":
        return [f"bad CSV header {lines[:1]}"]
    rows = lines[1:]
    if len(rows) != grid * grid:
        errors.append(f"{len(rows)} rows, expected {grid * grid}")
    for k, line in enumerate(rows):
        if len(errors) >= MAX_ERRORS:
            break
        a, b, label, bval = line.split(",")
        x1, x2, got = float(a), float(b), float(bval)
        where = f"row {k} ({line})"
        if not -RANGE_SLACK <= got <= 1.0 + RANGE_SLACK:
            errors.append(f"{where}: B outside [0, 1]")
            continue
        if k % grid == 0:
            if not ref.on_unit_curve(x1, x2):
                errors.append(f"{where}: first column is not on the unit curve")
                continue
            r = float(ref.radius(x1))
            if abs(r - 1.0) > UNIT_R_TOL and got != (1.0 if r >= 1.0 else 0.0):
                errors.append(f"{where}: unit-curve value is not 1{{r >= 1}} (r = {r!r})")
                continue
        want = ref.bound(x1, x2)
        if not abs(got - want) <= B_TOL:
            errors.append(f"{where}: B off the reference {float(want)!r} by {float(got - want):.3e}")
            continue
        ref_label, near = ref.region(x1, x2)
        if not near and label != ref_label:
            errors.append(f"{where}: region {label}, reference {ref_label}")
    return errors


# ---------------------------------------------------------------------------
# extremal: what `apq extremal` computes at one point
# ---------------------------------------------------------------------------

EXTREMAL_CLASSES = [(1.0, -1.0), (2.0, 1.0), (2.0, -1.0), (-0.5, -2.0)]
EXTREMAL_Q = (1.5, 4.0)
# Kinds of point; "I-above" lies beyond the upper tangent line from (1, 1),
# where the chord through (1, 1) works, "I-sliver" between that line and the
# extreme curve, where region1_chord scans.  One in five operations is a
# sliver point, so op_p90 sits in the middle of them and op_p50 among the rest.
EXTREMAL_KINDS = ["III", "I-above", "IV", "II", "I-sliver"]
EXTREMAL_PER_KIND = 4
RH_ALPHA_SHARE = (0.3, 0.7)     # rh_check at alpha = share * alpha0(Q)


def _point_kind(ref: Reference, x) -> str | None:
    label, near = ref.region(*x)
    if near:
        return None
    if label == "I":
        return "I-above" if ref.above_upper_tangent(*x) else "I-sliver"
    return label


def _draw_point(rng: random.Random, ref: Reference, kind: str,
                qfrac_range=(0.02, 0.98), tries: int = 100000):
    """A point of the given kind, log-uniform in radius over
    [v_minus*gamma_minus, v_plus*gamma_plus] and uniform in the fraction of
    the way (in log) from the unit curve to the extreme curve."""
    lo, hi = math.log(ref.vmf * ref.gmf), math.log(ref.vpf * ref.gpf)
    for _ in range(tries):
        x = ref.strip_point(math.exp(rng.uniform(lo, hi)), rng.uniform(*qfrac_range))
        if _point_kind(ref, x) == kind:
            return x
    raise RuntimeError(f"no {kind} point found for {(ref.p1f, ref.p2f, ref.qf)}")


def extremal(seed: int) -> Plan:
    rng = random.Random(seed)
    classes, points = [], []
    for p1, p2 in EXTREMAL_CLASSES:
        q = _log_uniform(rng, *EXTREMAL_Q)
        classes.append((p1, p2, q))
        ref = Reference(p1, p2, q)
        for _ in range(EXTREMAL_PER_KIND):
            for kind in EXTREMAL_KINDS:
                alpha = None
                if (p1, p2) == (1.0, -1.0):
                    alpha = rng.uniform(*RH_ALPHA_SHARE) * float(alpha0(q))
                points.append((p1, p2, q, kind, _draw_point(rng, ref, kind), alpha))

    def make_ops():
        import apq
        consts = {(p1, p2, q): _constants(apq, p1, p2, q) for p1, p2, q in classes}
        return [Op(f"extremal {_label(p1, p2)} {kind}",
                   _extremal_run(apq, x, *consts[(p1, p2, q)], alpha),
                   _extremal_checker(p1, p2, q, x, alpha))
                for p1, p2, q, kind, x, alpha in points]
    return Plan(classes, make_ops)


def _extremal_run(apq, x, p, c, alpha):
    def run():
        w, plan = apq.build(x, c, p)
        out = {"weight": apq.weight_to_json(w),
               "region": plan.region.value,
               "moments": [apq.moment(w, p.p1), apq.moment(w, p.p2)],
               "bound": apq.evaluate(x, c, p).value,
               "distribution_at_1": apq.distribution(w, 1.0),
               "norm": apq.apq_norm(w, p, resolution=16)}
        if alpha is not None:
            out["rh_pass"] = apq.rh_check(w, alpha, p).passed
        return out
    return run


def _extremal_checker(p1, p2, q, x, alpha):
    def check(out: dict) -> list[str]:
        return check_extremal(Reference(p1, p2, q), x, out, alpha)
    return check


def check_extremal(ref: Reference, x, out: dict, alpha=None) -> list[str]:
    """An extremal weight: moments from its pieces hit x, |{w >= 1}| from its
    pieces and the program's distribution and bound equal the reference B,
    its class norm is at most Q, and for (1, -1) it self-improves."""
    errors = []
    want = ref.bound(*x)
    doc = out["weight"]
    for pexp, target, got in ((ref.p1f, x[0], out["moments"][0]),
                              (ref.p2f, x[1], out["moments"][1])):
        from_pieces = weight_moment(doc, pexp)
        if not abs(from_pieces - target) <= MOMENT_RTOL * abs(target):
            errors.append(f"moment p={pexp:g} from the pieces {float(from_pieces)!r} "
                          f"misses the target {target!r}")
        if not abs(got - target) <= MOMENT_RTOL * abs(target):
            errors.append(f"reported moment p={pexp:g} {got!r} misses the target {target!r}")
    measure = weight_measure_at_least(doc, 1.0)
    for name, got in (("|{w >= 1}| from the pieces", measure),
                      ("distribution(w, 1)", out["distribution_at_1"]),
                      ("evaluate", out["bound"])):
        if not abs(got - want) <= B_TOL:
            errors.append(f"{name} = {float(got)!r}, reference B = {float(want)!r}")
    label, _ = ref.region(*x)
    if out["region"] != label:
        errors.append(f"plan region {out['region']}, reference {label}")
    if not out["norm"] <= ref.qf * (1.0 + NORM_RTOL):
        errors.append(f"apq_norm {out['norm']!r} exceeds Q = {ref.qf!r}")
    if alpha is not None and out.get("rh_pass") is not True:
        errors.append(f"rh_check fails at alpha = {alpha!r} < alpha0 = {float(alpha0(ref.qf))!r}")
    return errors


# ---------------------------------------------------------------------------
# campaigns: one majorization tree, or one brute-force oracle point
# ---------------------------------------------------------------------------

CAMPAIGN_CLASSES = [((1.0, -1.0), (1.8, 2.5)), ((2.0, 1.0), (2.5, 3.5))]
# Cells for the root of each tree: (kind, trees per round, u range, qfrac range),
# with u the root's place in check_majorization's log-radius range.  A tree's
# cost is set by where its root lies: I roots cost about 1.5x a III/IV root,
# II roots and sliver roots low in qfrac 2-3x.  Roots higher in the sliver or
# in I next to it cost up to 15x and change several-fold between neighbouring
# roots, so they are left to the extremal workload, which scans the sliver
# every round.  Shares per class: III/IV trees 7 of 20, I
# trees 6, II and sliver trees 3, oracle points 4, so op_p50 falls in the
# middle of the I trees and op_p90 in the middle of the oracle points.
TREE_CELLS = [("IV", 4, (0.04, 0.28), (0.1, 0.85)),
              ("III", 3, (0.32, 0.44), (0.1, 0.85)),
              ("I-above", 6, (0.62, 0.76), (0.05, 0.45)),
              ("II", 1, (0.53, 0.65), (0.3, 0.7)),
              ("I-sliver", 2, (0.88, 0.99), (0.0, 0.25))]
# Oracle points lie in region I, where B = 1 bounds any oracle value.  Below
# B = 1 the oracle can beat B: its norm filter apq_norm(resolution=8) passes
# step weights outside the class (see the README, Findings), at some seeds only.
ORACLE_KINDS = ["I-above", "I-above", "I-sliver", "I-sliver"]


def _tree_root(ref: Reference, campaign_seed: int):
    """The root check_majorization draws for n_weights=1 from default_rng(seed):
    log-uniform radius over [v_minus*gamma_minus/2, 2*v_plus], uniform qfrac.
    Returns the point, its place u in the log-radius range, and qfrac."""
    g = np.random.default_rng(campaign_seed)
    lo, hi = math.log(ref.vmf * ref.gmf / 2.0), math.log(2.0 * ref.vpf)
    log_r = g.uniform(lo, hi)
    qfrac = g.uniform(0.0, 1.0)
    return ref.strip_point(math.exp(log_r), qfrac), (log_r - lo) / (hi - lo), qfrac


def _draw_tree_seed(rng: random.Random, ref: Reference, kind: str, u_range, qfrac_range,
                    tries: int = 200000) -> int:
    for _ in range(tries):
        s = rng.randrange(2**31)
        x, u, qfrac = _tree_root(ref, s)
        if (u_range[0] <= u <= u_range[1] and qfrac_range[0] <= qfrac <= qfrac_range[1]
                and _point_kind(ref, x) == kind):
            return s
    raise RuntimeError(f"no campaign seed with a {kind} root in u {u_range}, qfrac {qfrac_range}")


def campaigns(seed: int) -> Plan:
    rng = random.Random(seed)
    classes, items = [], []
    for (p1, p2), qr in CAMPAIGN_CLASSES:
        q = _log_uniform(rng, *qr)
        classes.append((p1, p2, q))
        ref = Reference(p1, p2, q)
        for kind, count, u_range, qfrac_range in TREE_CELLS:
            for _ in range(count):
                items.append((p1, p2, q, f"tree {kind}",
                              _draw_tree_seed(rng, ref, kind, u_range, qfrac_range)))
        for kind in ORACLE_KINDS:
            items.append((p1, p2, q, f"oracle {kind}",
                          _draw_point(rng, ref, kind, qfrac_range=(0.1, 0.9))))

    def make_ops():
        import apq
        consts = {(p1, p2, q): _constants(apq, p1, p2, q) for p1, p2, q in classes}
        ops = []
        for p1, p2, q, kind, arg in items:
            p, c = consts[(p1, p2, q)]
            if kind.startswith("tree"):
                ops.append(Op(f"campaigns {_label(p1, p2)} {kind}",
                              _tree_run(apq, p, c, arg), check_tree))
            else:
                ops.append(Op(f"campaigns {_label(p1, p2)} {kind}",
                              _oracle_run(apq, p, c, arg), _oracle_checker(q, arg, p, c)))
        return ops
    return Plan(classes, make_ops)


def _tree_run(apq, p, c, campaign_seed):
    def run():
        rep = apq.check_majorization(c, p, n_weights=1, depth=8, seed=campaign_seed)
        return {"passed": rep.passed, "samples": rep.samples,
                "worst_violation": rep.worst_violation}
    return run


def check_tree(out: dict) -> list[str]:
    if out["passed"] is not True or not out["samples"] > 0:
        return [f"majorization report fails: {out}"]
    return []


def _oracle_run(apq, p, c, x):
    return lambda: apq.oracle_max(x, c, p)


def _oracle_checker(q, x, p, c):
    def check(value: float) -> list[str]:
        from apq.verify import lipschitz_slack
        return check_oracle(Reference(p.p1, p.p2, q), x, value, lipschitz_slack(x, c, p))
    return check


def check_oracle(ref: Reference, x, value: float, slack: float) -> list[str]:
    """The brute-force supremum never beats the bound by more than the
    first-order slack of its moment band."""
    want = ref.bound(*x)
    if not value <= want + slack + ORACLE_TOL:
        return [f"oracle {value!r} above B = {float(want)!r} + slack {slack!r} at {x}"]
    return []


WORKLOADS = {"scan": scan, "extremal": extremal, "campaigns": campaigns}
