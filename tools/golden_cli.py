"""Golden CLI outputs: run a fixed set of `apq` invocations, or compare two runs.

    python tools/golden_cli.py run SRC OUTDIR
    python tools/golden_cli.py compare OLDDIR NEWDIR [--rtol R] [--atol A]

`run` imports the `apq` package found in SRC (the directory that holds it,
e.g. `src` of a checkout), calls its CLI in-process once per invocation and
writes one file per invocation: the exit code on the first line, then
stdout and stderr.  An exception that escapes the CLI is recorded as exit 1
with its type and message, as the `apq` executable would end.

`compare` reports, file by file, whether two runs are byte-identical and,
where they are not, the largest relative difference between corresponding
numbers (when the text around the numbers matches).  It exits 0 when every
file is byte-identical and 1 otherwise.  With --rtol R it also exits 0 when
every file that is not byte-identical has the same exit code and text with
every number within R relative, and names each file beyond R.  With --atol A
a pair of numbers a, b also passes when |a - b| <= A, so that values near 0
may move by ulps: a pair passes when |a - b| <= max(R*max(|a|, |b|), A).

Standard library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

CLASSES = [("1", "-1"), ("2", "1"), ("-0.5", "-2"), ("2", "-1")]

# One point per region at Q = 2, plus a region-I point in the sliver between
# the upper tangent line from (1, 1) and the extreme curve.
POINTS = {
    ("1", "-1"): {"I": (1.3388373442458072, 0.878752932544385),
                  "II": (1.6689215390599854, 1.095183314106899),
                  "III": (0.3934118902404218, 3.440348193283803),
                  "IV": (0.033387798162840876, 37.51713823384154),
                  "I-sliver": (4.22858396089443, 0.4595170690231477)},
    ("2", "1"): {"I": (1.7696033593432603, 1.130689507485698),
                 "II": (3.14836472769941, 0.9707776766061263),
                 "III": (0.0720086110523808, 0.19826330258996913),
                 "IV": (0.00011397163155218373, 0.008522772577223513),
                 "I-sliver": (39.94414532417281, 3.384416055675474)},
    ("-0.5", "-2"): {"I": (0.8201509951457824, 0.6262741334893025),
                     "II": (0.7284147204587386, 0.9405033167606642),
                     "III": (1.5855487876291237, 11.577590945821006),
                     "IV": (5.981189568934499, 2008.0995311022089),
                     "I-sliver": (0.41149906858707547, 0.10999310235767654)},
    ("2", "-1"): {"I": (1.6307591839381106, 0.9212970668294674),
                  "II": (2.4451931858173, 1.168869831535593),
                  "III": (0.17168324311331123, 3.2665245500345255),
                  "IV": (0.0018434014023390136, 29.174775720781014),
                  "I-sliver": (11.66344158049396, 0.5694696922722268)},
}

# Region-II points of extreme classes whose three-step weight is hard to hit:
# a length of 7e-4 on a far anchor, and a near-degenerate v_minus piece.
REGION_II_EXTREME = [
    ("2_1_20_II", ("2", "1", "20"), (0.0032021888142122106, 0.002997470745931452)),
    ("0.5_-3_200_II", ("0.5", "-3", "200"), (14.51102042850678, 0.4719008602477527)),
]

# Valid inputs whose residuals once raised OverflowError or fsum's
# "-inf + inf" ValueError out of the CLI.
LEAKS = {
    "eval_leak_overflow": ["eval", "--p1", "-5", "--p2", "-6", "--q", "10000",
                           "--x1", "1e150", "--x2", "1e192"],
    "eval_leak_fsum": ["eval", "--p1", "-4", "--p2", "-4.05", "--q", "5",
                       "--x1", "1e200", "--x2", "6.068520896724775e+202"],
    "extremal_leak_fsum": ["extremal", "--p1", "1.25", "--p2", "1.24", "--q", "1.2",
                           "--x1", "1e75", "--x2", "2.2434047105984066e+74"],
}

# A step weight of norm 3.18 that the oracle once accepted at Q = 2.4716...
FOUND_Q = "2.4716171030618224"
FOUND_X = ("0.9722935503136965", "1.6815535661615362")
FOUND_WEIGHT = {"pieces": [
    {"kind": "const", "value": 0.1367, "lo": 0.0, "hi": 1.0 / 21.0},
    {"kind": "const", "value": 1.0602, "lo": 1.0 / 21.0, "hi": 20.0 / 21.0},
    {"kind": "const", "value": 0.0997, "lo": 20.0 / 21.0, "hi": 1.0},
]}

# Power-piece weights whose refinement moves the norm well past the grid
# estimate: 3.9397978997795 -> 3.94265616200929 at (1, -1, 50), and
# 6.76698545223 -> 7.136051379327423 at (2, -1, 50).
POWER_HEAD_WEIGHT = {"pieces": [
    {"kind": "power", "coef": 1.0, "exponent": 0.4, "lo": 0.0, "hi": 0.3},
    {"kind": "const", "value": 0.2, "lo": 0.3, "hi": 1.0},
]}
POWER_MIDDLE_WEIGHT = {"pieces": [
    {"kind": "const", "value": 3.0, "lo": 0.0, "hi": 0.2},
    {"kind": "power", "coef": 0.5, "exponent": -0.8, "lo": 0.2, "hi": 0.7},
    {"kind": "const", "value": 0.4, "lo": 0.7, "hi": 1.0},
]}
# Both refined ends stop at interior stationary points of the ratio, found by
# Newton steps on its slope, the right one inside the power piece:
# 1.39864334241404 -> 1.4060601975818927 at (2, 1, 50).
POWER_TAIL_WEIGHT = {"pieces": [
    {"kind": "const", "value": 0.2, "lo": 0.0, "hi": 0.3},
    {"kind": "power", "coef": 0.4, "exponent": 0.9, "lo": 0.3, "hi": 1.0},
]}
# A "power" piece with exponent 0 is a constant: the weight is the step
# weight 2, 0.6 with its break at 0.3, and takes the exact step norm.
POWER_EXPONENT_0_WEIGHT = {"pieces": [
    {"kind": "const", "value": 2.0, "lo": 0.0, "hi": 0.3},
    {"kind": "power", "coef": 0.6, "exponent": 0.0, "lo": 0.3, "hi": 1.0},
]}
# Name -> (class, weight document) of each `norm` invocation.
NORM_WEIGHTS = {
    "found": (("1", "-1", FOUND_Q), FOUND_WEIGHT),
    "power_head": (("1", "-1", "50"), POWER_HEAD_WEIGHT),
    "power_middle": (("2", "-1", "50"), POWER_MIDDLE_WEIGHT),
    "power_tail": (("2", "1", "50"), POWER_TAIL_WEIGHT),
    "power_exponent_0": (("1", "-1", "2"), POWER_EXPONENT_0_WEIGHT),
}


def _cls(p1: str, p2: str, q: str = "2") -> list[str]:
    return ["--p1", p1, "--p2", p2, "--q", q]


def _at(x) -> list[str]:
    return ["--x1", repr(x[0]), "--x2", repr(x[1])]


def invocations(weight_dir: str) -> dict[str, list[str]]:
    """Name -> argv of every golden invocation; the NORM_WEIGHTS documents
    are read from <weight_dir>/<name>_weight.json."""
    inv: dict[str, list[str]] = {}
    for p1, p2, q in [("1", "-1", "2"), ("2", "1", "2"), ("-0.5", "-2", "2"),
                      ("2", "-1", "2"), ("1", "0", "2"), ("-1", "-1.001", "2"),
                      ("5", "4", "1000"), ("10", "9.5", "50"), ("100", "-100", "1e6")]:
        inv[f"constants_{p1}_{p2}_{q}"] = ["constants", *_cls(p1, p2, q)]
    for p1, p2 in CLASSES:
        for region, x in POINTS[(p1, p2)].items():
            tag = f"{p1}_{p2}_{region}"
            if region != "I-sliver":
                inv[f"eval_{tag}"] = ["eval", *_cls(p1, p2), *_at(x)]
                inv[f"eval_lambda_{tag}"] = ["eval", *_cls(p1, p2), *_at(x),
                                             "--lambda", "1.3"]
            inv[f"extremal_{tag}"] = ["extremal", *_cls(p1, p2), *_at(x)]
    for k, (x1, x2) in enumerate([(0.75, math.log(0.5) / 2.0), (1.0, -0.3),
                                  (2.0, math.log(2.0) - 0.1), (0.1, math.log(0.1) - 0.5),
                                  (5.0, math.log(5.0) - 0.6)]):
        inv[f"eval_limiting_{k}"] = ["eval", *_cls("1", "0"), *_at((x1, x2))]
    for p1, p2 in CLASSES + [("1", "0")]:
        for q in ("1.5", "4", "20"):
            inv[f"scan_{p1}_{p2}_{q}"] = ["scan", *_cls(p1, p2, q), "--grid", "64"]
    inv["scan_underflow"] = ["scan", *_cls("1", "0.999"), "--grid", "4"]
    # A region-IV grid point within roundoff of the extreme curve.
    inv["scan_-1_-2_20"] = ["scan", *_cls("-1", "-2", "20"), "--grid", "64"]
    # A region-III scan grid point far below U(1), within rounding of the
    # III/IV boundary.
    inv["eval_5_4_100_tiny"] = ["eval", *_cls("5", "4", "100"),
                                *_at((1.4361088697914278e-92, 2.5047579553392338e-74))]
    for name, (p1, p2, q), x in REGION_II_EXTREME:
        inv[f"extremal_{name}"] = ["extremal", *_cls(p1, p2, q), *_at(x)]
    # Tiny coordinates of extreme classes, where a tangent line through (1, 1)
    # held as a slope cannot resolve the region split: grid points within
    # rounding of the lines, and a region-II point next to the origin.
    inv["scan_5_4_100"] = ["scan", *_cls("5", "4", "100"), "--grid", "64"]
    inv["extremal_6_5.5_2_II_tiny"] = ["extremal", *_cls("6", "5.5", "2"),
                                       *_at((2.635591744848398e-11, 2.635591744848398e-11))]
    # A region-I point whose tangent chord has its interior log-ratio
    # extremum within rounding of the chord's far end.
    inv["extremal_5_4_3_I_chord"] = ["extremal", *_cls("5", "4", "3"),
                                     *_at((1.8415920913321516e16, 154540798777.49905))]
    # Region-IV points of extreme classes whose weights the class norm once
    # put far above Q, from grid integrals taken as prefix-sum differences.
    inv["extremal_6_5.5_2_IV"] = ["extremal", *_cls("6", "5.5", "2"),
                                  *_at((1.863126428001875e-51, 7.691269864851049e-49))]
    inv["extremal_5_4_1000_IV"] = ["extremal", *_cls("5", "4", "1000"),
                                   *_at((1.481054462903735e-124, 1.2437432711802811e-102))]
    # Valid points whose residuals overflow or meet inf - inf in fsum.
    for name, argv in LEAKS.items():
        inv[name] = argv
    inv["verify_concavity"] = ["verify-concavity", *_cls("1", "-1"),
                               "--n-interior", "50", "--n-boundary", "20"]
    inv["verify_oracle"] = ["verify-oracle", *_cls("1", "-1"), "--x1", "0.75", "--x2", "1.5"]
    # A class whose power tables both fall; one piece at the unit-curve point
    # U(v_plus); four pieces at 2/3 U(1) + 1/3 U(v_minus), where B = 2/3.
    inv["verify_oracle_-0.5_-2_III"] = ["verify-oracle", *_cls("-0.5", "-2"),
                                        *_at(POINTS[("-0.5", "-2")]["III"])]
    inv["verify_oracle_pieces_1"] = ["verify-oracle", *_cls("1", "-1"), "--pieces", "1",
                                     *_at((5.82842712474619, 0.1715728752538099))]
    inv["verify_oracle_pieces_4"] = ["verify-oracle", *_cls("1", "-1"), "--pieces", "4",
                                     "--value-grid", "12", "--break-grid", "8",
                                     *_at((0.7238576250846033, 2.60947570824873))]
    inv["verify_oracle_found"] = ["verify-oracle", *_cls("1", "-1", FOUND_Q),
                                  "--x1", FOUND_X[0], "--x2", FOUND_X[1]]
    inv["verify_majorization"] = ["verify-majorization", *_cls("1", "-1"),
                                  "--n-weights", "60"]
    # The other classes at Q = 2, and one at Q -> 1, where the domain is so
    # thin that in_domain's slack is a visible share of its width.
    for p1, p2, q in [("2", "1", "2"), ("-0.5", "-2", "2"), ("2", "-1", "2"),
                      ("1", "-1", "1.000001")]:
        inv[f"verify_majorization_{p1}_{p2}_{q}"] = ["verify-majorization", *_cls(p1, p2, q),
                                                     "--n-weights", "20"]
    inv["rh"] = ["rh", *_cls("1", "-1"), "--alpha", "0.2"]
    for q in ("1.05", "20"):
        alpha = 0.9 * (math.sqrt(float(q) / (float(q) - 1.0)) - 1.0)
        inv[f"rh_{q}"] = ["rh", *_cls("1", "-1", q), "--alpha", repr(alpha)]
    # alpha0(1e8) is about 5e-9: a large Q, where sqrt(Q/(Q-1)) - 1 cancels.
    inv["rh_1e8"] = ["rh", *_cls("1", "-1", "1e8"), "--alpha", "2.5e-9"]
    # Points of x1*x2 = 2: off the default, negative, and at the scale limit.
    for tag, x in (("point", ("0.08", "25")), ("negative", ("-1", "-2")),
                   ("tiny", ("1e-300", "2e300"))):
        inv[f"rh_{tag}"] = ["rh", *_cls("1", "-1"), "--alpha", "0.2", "--x1", x[0], "--x2", x[1]]
    for name, (cls, _) in NORM_WEIGHTS.items():
        inv[f"norm_{name}"] = ["norm", *_cls(*cls), "--weight",
                               os.path.join(weight_dir, f"{name}_weight.json")]
    return inv


def run(src: str, outdir: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from apq.cli import main

    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, doc) in NORM_WEIGHTS.items():
            with open(os.path.join(tmp, f"{name}_weight.json"), "w") as fh:
                json.dump(doc, fh)
        for name, argv in invocations(tmp).items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except Exception as exc:  # what escapes the CLI ends the executable with 1
                    code = 1
                    err.write(f"{type(exc).__name__}: {exc}\n")
            with open(os.path.join(outdir, name + ".txt"), "w") as fh:
                fh.write(f"exit {code}\n{out.getvalue()}{err.getvalue()}")
            print(f"{name}: exit {code}")


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _max_rel_diff(a: str, b: str, atol: float = 0.0) -> float | None:
    """Largest relative difference between corresponding numbers that differ
    by more than atol, or None when the text around the numbers differs."""
    if _NUMBER.split(a) != _NUMBER.split(b):
        return None
    worst = 0.0
    for sa, sb in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        fa, fb = float(sa), float(sb)
        scale = max(abs(fa), abs(fb))
        if scale > 0.0 and abs(fa - fb) > atol:
            worst = max(worst, abs(fa - fb) / scale)
    return worst


def compare(old: str, new: str, rtol: float | None = None, atol: float = 0.0) -> int:
    names = sorted(set(os.listdir(old)) | set(os.listdir(new)))
    identical = within = 0
    for name in names:
        pa, pb = os.path.join(old, name), os.path.join(new, name)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            print(f"{name}: only in {old if os.path.exists(pa) else new}")
            continue
        with open(pa) as fa, open(pb) as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            identical += 1
            continue
        diff = _max_rel_diff(a, b, atol)
        if diff is None:
            lines = zip(a.splitlines() + [""], b.splitlines() + [""])
            first = next((i for i, (la, lb) in enumerate(lines) if la != lb), None)
            print(f"{name}: text differs" + ("" if first is None else f" from line {first + 1}"))
        elif a.partition("\n")[0] != b.partition("\n")[0]:
            print(f"{name}: exit code differs")
        elif rtol is not None and diff <= rtol:
            within += 1
        else:
            beyond = "" if rtol is None else f", beyond rtol {rtol:g}"
            print(f"{name}: max relative difference {diff:.3g}{beyond}")
    print(f"{identical} of {len(names)} files byte-identical"
          + ("" if rtol is None else f", {within} more within rtol {rtol:g}"))
    return 0 if identical + within == len(names) else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "run":
        run(argv[1], argv[2])
        return 0
    if len(argv) in (3, 5, 7) and argv[0] == "compare":
        opts = dict(zip(argv[3::2], argv[4::2]))
        if set(opts) <= {"--rtol", "--atol"}:
            rtol = float(opts["--rtol"]) if "--rtol" in opts else None
            return compare(argv[1], argv[2], rtol, float(opts.get("--atol", 0.0)))
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
