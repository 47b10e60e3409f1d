"""Each output check of the benchmark accepts the program's output and fails
on a corrupted copy of it.

Run with:  python3 -m pytest apqbench/tests
"""

import contextlib
import copy
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import workloads  # noqa: E402
from reference import Reference  # noqa: E402

GRID = 8


def _scan(p1, p2, q):
    """`apq scan --grid 8`, in-process."""
    from apq import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["scan", "--p1", repr(p1), "--p2", repr(p2), "--q", repr(q),
                         "--grid", str(GRID)]) == 0
    return buf.getvalue()


def _replace_row(text, k, fn):
    lines = text.splitlines()
    lines[k + 1] = fn(lines[k + 1].split(","))
    return "\n".join(lines) + "\n"


def test_scan_check_accepts_the_program_and_catches_corruption():
    for p1, p2, q in [(1.0, -1.0, 2.0), (-0.5, -2.0, 3.0), (1.0, 0.0, 2.0)]:
        ref = Reference(p1, p2, q)
        text = _scan(p1, p2, q)
        assert workloads.check_scan_csv(ref, text, GRID) == []
        rows = text.splitlines()[1:]
        # an interior row away from B = 0 and B = 1, and a unit-curve row
        k = next(i for i, row in enumerate(rows)
                 if i % GRID and 0.01 < float(row.split(",")[3]) < 0.99)
        off = _replace_row(text, k, lambda f: ",".join(f[:3] + [repr(float(f[3]) + 1e-6)]))
        assert any("off the reference" in e for e in workloads.check_scan_csv(ref, off, GRID))
        relabel = _replace_row(text, k, lambda f: ",".join(
            f[:2] + ["IV" if f[2] != "IV" else "II", f[3]]))
        assert any("region" in e for e in workloads.check_scan_csv(ref, relabel, GRID))
        u = next(i for i, row in enumerate(rows) if i % GRID == 0 and float(row.split(",")[3]) == 1.0)
        flipped = _replace_row(text, u, lambda f: ",".join(f[:3] + ["0.99999999999999989"]))
        assert any("1{r >= 1}" in e for e in workloads.check_scan_csv(ref, flipped, GRID))
        outside = _replace_row(text, k, lambda f: ",".join(f[:3] + ["1.5"]))
        assert any("outside [0, 1]" in e for e in workloads.check_scan_csv(ref, outside, GRID))


def _extremal_ops(seed=3):
    plan = workloads.extremal(seed)
    return plan.make_ops()


def test_extremal_check_accepts_the_program_and_catches_a_shifted_moment():
    ops = _extremal_ops()
    kinds = {}
    for op in ops:
        kinds.setdefault(op.kind.split()[-1], op)
    assert set(kinds) == {"I-above", "I-sliver", "II", "III", "IV"}
    for op in kinds.values():
        out = op.run()
        assert op.check(out) == []
        bad = copy.deepcopy(out)
        piece = next(pc for pc in bad["weight"]["pieces"] if pc["kind"] == "const")
        piece["value"] *= 1.0 + 1e-6
        assert any("moment" in e for e in op.check(bad)), op.kind
        bad = copy.deepcopy(out)
        bad["distribution_at_1"] += 1e-6
        assert any("distribution" in e for e in op.check(bad)), op.kind
        bad = copy.deepcopy(out)
        bad["norm"] = 1.001 * bad["norm"] + 1.0
        assert any("apq_norm" in e for e in op.check(bad)), op.kind


def test_rh_failure_is_caught():
    op = next(op for op in _extremal_ops() if op.kind.startswith("extremal (1,-1)"))
    out = op.run()
    assert out["rh_pass"] is True
    out["rh_pass"] = False
    assert any("rh_check" in e for e in op.check(out))


def test_oracle_check_catches_a_value_above_the_bound():
    ref = Reference(1.0, -1.0, 2.0)
    x = (0.75, 1.5)
    b = float(ref.bound(*x))
    assert abs(b - 0.5) < 1e-15
    slack = 1e-3
    assert workloads.check_oracle(ref, x, b, slack) == []
    assert workloads.check_oracle(ref, x, float("-inf"), slack) == []
    assert workloads.check_oracle(ref, x, b + slack + 1e-6, slack)
    assert workloads.check_oracle(ref, x, float("nan"), slack)


def test_tree_check_catches_a_failed_report():
    assert workloads.check_tree({"passed": True, "samples": 511, "worst_violation": -1e-9}) == []
    assert workloads.check_tree({"passed": False, "samples": 511, "worst_violation": 1e-3})


def test_inputs_follow_the_seed():
    for make in workloads.WORKLOADS.values():
        assert make(5).classes == make(5).classes
        assert make(5).classes != make(6).classes
