import json
import math
import sys
from pathlib import Path

import pytest

from apq import (DomainError, Params, apq_norm, build, check_majorization,
                 derive_constants, evaluate_lambda, oracle_max, step_weight)
from apq.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "apqbench"))
from reference import Reference  # noqa: E402


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_example(capsys):
    code, out = run_cli(capsys, "eval", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--x1", "0.75", "--x2", "1.5")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"value": 0.5, "region": "III", "v": 0.5}


def test_constants_example(capsys):
    code, out = run_cli(capsys, "constants", "--p1", "1", "--p2", "-1", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["gamma_plus"] - (2.0 + math.sqrt(2.0))) <= 1e-10
    assert abs(doc["gamma_minus"] - (2.0 - math.sqrt(2.0))) <= 1e-10
    assert set(doc) == {"gamma_minus", "gamma_plus", "v_minus", "v_plus",
                        "A", "nu", "a2", "b2", "c2"}


def test_domain_error_exit(capsys):
    code, out = run_cli(capsys, "eval", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--x1", "5", "--x2", "5")
    assert code == 2
    assert "error" in json.loads(out)


def test_usage_error_exit(capsys):
    code = main(["eval", "--p1", "1"])
    capsys.readouterr()
    assert code == 1
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 1


def test_scan_range_underflow_exit(capsys):
    # gamma_minus is about 6.9e-302, so the scan's lower end
    # v_minus*gamma_minus underflows to 0.
    code, out = run_cli(capsys, "scan", "--p1", "1", "--p2", "0.999", "--q", "2",
                        "--grid", "4")
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("p1, p2, q", [("10", "9.5", "50"), ("100", "-100", "1e6")])
def test_unrepresentable_constants_exit(capsys, p1, p2, q):
    code, out = run_cli(capsys, "constants", "--p1", p1, "--p2", p2, "--q", q)
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("q", ["20", "50"])
def test_scan_near_extreme_curve(capsys, q):
    # The grid meets region-IV points within roundoff of the extreme curve.
    code, out = run_cli(capsys, "scan", "--p1", "-1", "--p2", "-2", "--q", q,
                        "--grid", "64")
    assert code == 0
    lines = out.strip().split("\n")[1:]
    assert len(lines) == 64 * 64
    assert all(0.0 <= float(line.split(",")[3]) <= 1.0 for line in lines)


def test_scan_of_an_extreme_class_matches_reference(capsys):
    # Many grid points have tiny coordinates, within rounding of a tangent
    # line through (1, 1) held as a slope; such a scan once exited 2.  The
    # reference cannot polish its roots at some points: their count is pinned
    # so that the comparison cannot quietly shrink.
    code, out = run_cli(capsys, "scan", "--p1", "5", "--p2", "4", "--q", "100",
                        "--grid", "64")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 64 * 64
    ref = Reference(5.0, 4.0, 100.0)
    raised = 0
    for row in rows:
        x1, x2, _, b = row.split(",")
        try:
            want = float(ref.bound(float(x1), float(x2)))
        except ArithmeticError:
            raised += 1
            continue
        assert abs(float(b) - want) <= 1e-12, row
    assert raised == 435


@pytest.mark.parametrize("argv", [
    ["eval", "--p1", "-5", "--p2", "-6", "--q", "10000", "--x1", "1e150", "--x2", "1e192"],
    ["eval", "--p1", "-4", "--p2", "-4.05", "--q", "5",
     "--x1", "1e200", "--x2", "6.068520896724775e+202"],
    ["extremal", "--p1", "1.25", "--p2", "1.24", "--q", "1.2",
     "--x1", "1e75", "--x2", "2.2434047105984066e+74"],
])
def test_residual_faults_keep_the_exit_contract(capsys, argv):
    # Valid points where a residual overflows, or meets inf - inf in fsum, at
    # a bracket end: the CLI once ended with a traceback (exit 1).
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    if code == 2:
        assert "error" in doc
        return
    assert code == 0
    cls = [float(argv[k]) for k in (2, 4, 6)]
    want = float(Reference(*cls).bound(float(argv[8]), float(argv[10])))
    got = doc["value"] if argv[0] == "eval" else doc["attainment"]["bound"]
    assert abs(got - want) <= 1e-9


def test_determinism(capsys):
    args = ["scan", "--p1", "1", "--p2", "-1", "--q", "2", "--grid", "12"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_scan_csv(capsys):
    code, out = run_cli(capsys, "scan", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--grid", "16")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x1,x2,region,B"
    assert len(lines) == 1 + 16 * 16
    for line in lines[1:]:
        x1, x2, region, b = line.split(",")
        assert region in ("I", "II", "III", "IV")
        assert -1e-12 <= float(b) <= 1.0 + 1e-12
        assert 1.0 - 1e-9 <= float(x1) * float(x2) <= 2.0 * (1.0 + 1e-9)


def test_scan_json(capsys):
    code, out = run_cli(capsys, "scan", "--p1", "2", "--p2", "1", "--q", "1.5",
                        "--grid", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 36
    assert all(set(r) == {"x1", "x2", "region", "B"} for r in rows)


def test_eval_lambda_flag(capsys):
    code, out = run_cli(capsys, "eval", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--x1", "1.5", "--x2", "0.75", "--lambda", "2")
    assert code == 0
    assert json.loads(out)["value"] == 0.5


def test_extremal_command(capsys):
    code, out = run_cli(capsys, "extremal", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--x1", "0.75", "--x2", "1.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["plan"]["region"] == "III"
    assert doc["weight"]["pieces"][0]["kind"] == "const"
    att = doc["attainment"]
    assert abs(att["distribution_at_1"] - att["bound"]) <= 1e-7
    assert abs(att["moments"][0] - 0.75) <= 1e-8
    assert att["norm"] <= 2.0 * (1.0 + 1e-6)


def test_norm_command(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"pieces": [
        {"kind": "const", "value": 1.0, "lo": 0.0, "hi": 0.5},
        {"kind": "const", "value": 0.5, "lo": 0.5, "hi": 1.0},
    ]}))
    code, out = run_cli(capsys, "norm", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--weight", str(wfile))
    assert code == 0
    assert abs(json.loads(out)["norm"] - 1.125) <= 1e-9


def test_norm_past_double_range_exits_domain(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"pieces": [
        {"kind": "const", "value": 1e-160, "lo": 0.0, "hi": 0.5},
        {"kind": "const", "value": 1e150, "lo": 0.5, "hi": 1.0},
    ]}))
    code, out = run_cli(capsys, "norm", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--weight", str(wfile))
    assert code == 2
    assert "double precision" in json.loads(out)["error"]


def test_region_command(capsys):
    code, out = run_cli(capsys, "region", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--x1", "1.5", "--x2", "1.0")
    assert code == 0
    assert json.loads(out) == {"region": "II"}


def test_rh_command(capsys):
    code, out = run_cli(capsys, "rh", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--alpha", "0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert abs(doc["alpha0"] - (math.sqrt(2.0) - 1.0)) <= 1e-12
    code, out = run_cli(capsys, "rh", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--alpha", "0.45")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is False and doc["constant"] == "inf"


def test_rh_command_off_curve_points_exit_domain(capsys):
    # x1*x2 = Q holds, but the point is not a pair of positive moments.
    code, out = run_cli(capsys, "rh", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--alpha", "0.2", "--x1", "-1", "--x2", "-2")
    assert code == 2
    assert "error" in json.loads(out)


def test_rh_command_constant_does_not_depend_on_point(capsys):
    rh = ("rh", "--p1", "1", "--p2", "-1", "--q", "2", "--alpha", "0.2")
    _, default = run_cli(capsys, *rh)
    for x1, x2 in (("1e-300", "2e300"), ("0.08", "25")):
        code, out = run_cli(capsys, *rh, "--x1", x1, "--x2", x2)
        assert code == 0
        assert out == default


def test_verify_concavity_command(capsys):
    code, out = run_cli(capsys, "verify-concavity", "--p1", "1", "--p2", "-1",
                        "--q", "2", "--n-interior", "15", "--n-boundary", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True


def test_verify_oracle_command(capsys):
    code, out = run_cli(capsys, "verify-oracle", "--p1", "1", "--p2", "-1",
                        "--q", "2", "--x1", "0.75", "--x2", "1.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["oracle"] <= doc["bound"] + doc["lipschitz_slack"] + 1e-9
    # An infeasible budget reports -inf and still passes domination.
    code, out = run_cli(capsys, "verify-oracle", "--p1", "1", "--p2", "-1",
                        "--q", "2", "--x1", "0.75", "--x2", "1.5",
                        "--value-grid", "6", "--break-grid", "4")
    assert code == 0
    assert json.loads(out)["oracle"] == "-inf"


@pytest.mark.parametrize("argv", [
    ["verify-oracle", "--x1", "0.75", "--x2", "1.5", "--pieces", "0"],
    ["verify-oracle", "--x1", "0.75", "--x2", "1.5", "--pieces", "-1"],
    ["verify-oracle", "--x1", "0.75", "--x2", "1.5", "--value-grid", "-1"],
    ["verify-oracle", "--x1", "0.75", "--x2", "1.5", "--break-grid", "0"],
    ["verify-majorization", "--depth", "-1"],
    ["verify-majorization", "--n-weights", "0"],
    ["verify-concavity", "--n-interior", "0", "--n-boundary", "0"],
])
def test_invalid_campaign_sizes_exit_domain(capsys, argv):
    # A campaign that searches nothing must not report a pass.
    code, out = run_cli(capsys, *argv, "--p1", "1", "--p2", "-1", "--q", "2")
    assert code == 2
    assert "error" in json.loads(out)


def test_verify_majorization_command(capsys):
    code, out = run_cli(capsys, "verify-majorization", "--p1", "1", "--p2", "-1",
                        "--q", "2", "--n-weights", "5", "--depth", "5")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_ainf_path(capsys):
    code, out = run_cli(capsys, "constants", "--p1", "1", "--p2", "0", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    g = doc["gamma_plus"]
    assert abs(math.log(g) + 1.0 / g - (1.0 + math.log(2.0))) <= 1e-12
    code, out = run_cli(capsys, "eval", "--p1", "1", "--p2", "0", "--q", "2",
                        "--x1", "0.75", "--x2", str(math.log(0.5) / 2.0))
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.5) <= 1e-9
    # The limiting path requires p1 = 1 and supports only some commands.
    code, _ = run_cli(capsys, "eval", "--p1", "2", "--p2", "0", "--q", "2",
                      "--x1", "1.0", "--x2", "0.0")
    assert code == 2
    code, _ = run_cli(capsys, "extremal", "--p1", "1", "--p2", "0", "--q", "2",
                      "--x1", "1.0", "--x2", "0.0")
    assert code == 2
    code, out = run_cli(capsys, "scan", "--p1", "1", "--p2", "0", "--q", "2",
                        "--grid", "8")
    assert code == 0
    assert len(out.strip().split("\n")) == 65


def test_limiting_class_refused_where_power_moments_are_needed(tmp_path, capsys):
    p = Params(1.0, 0.0, 2.0)
    c = derive_constants(p)
    x = (0.75, math.log(0.5) / 2.0)
    for call in (lambda: build(x, c, p),
                 lambda: apq_norm(step_weight([0.5], [0.5, 1.5]), p),
                 lambda: oracle_max(x, c, p),
                 lambda: check_majorization(c, p, n_weights=2),
                 lambda: evaluate_lambda(x, 1.3, c, p)):
        with pytest.raises(DomainError):
            call()
    weight = tmp_path / "w.json"
    weight.write_text(json.dumps({"pieces": [{"kind": "const", "value": 1.0,
                                              "lo": 0.0, "hi": 1.0}]}))
    cls = ["--p1", "1", "--p2", "0", "--q", "2"]
    at = ["--x1", repr(x[0]), "--x2", repr(x[1])]
    for argv in (["extremal", *cls, *at], ["norm", *cls, "--weight", str(weight)],
                 ["verify-oracle", *cls, *at], ["verify-majorization", *cls],
                 ["eval", *cls, *at, "--lambda", "1.3"]):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "power moments" in json.loads(out)["error"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run_cli(capsys, "constants", "--p1", "1", "--p2", "-1", "--q", "2",
                        "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["v_minus"] == pytest.approx(3 - 2 * math.sqrt(2))
