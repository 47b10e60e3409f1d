"""Batch command-line front end.

Subcommands: constants, region, eval, extremal, norm, scan, rh,
verify-concavity, verify-oracle, verify-majorization.  Every command takes
--p1/--p2/--q; --p1 1 --p2 0 is the limiting class with coordinates
(<w>, <log w>), served by constants, region, eval without --lambda, scan and
verify-concavity (the others need power moments and exit 2).  Output is JSON
(or CSV for scan), all floats printed with 17 significant digits; identical
invocations produce byte-identical output.

Exit codes: 0 success / campaign pass, 1 usage error, 2 domain error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bellman, rh, verify
from .errors import ApqError, DomainError, SolveError
from .extremal import build
from .geometry import classify, in_domain
from .params import Params, derive_constants
from .weights import apq_norm, distribution, moment, weight_from_json, weight_to_json

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_DOMAIN = 2
_EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(_EXIT_USAGE)


def _format_number(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        if math.isnan(v):
            return '"nan"'
        return f"{v:.17g}"
    return json.dumps(v)


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, float)):
        return _format_number(float(obj) if isinstance(obj, float) else obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_error(message: str) -> None:
    _emit(_to_json({"error": message}), None)


def _add_common(sp):
    sp.add_argument("--p1", type=float, required=True)
    sp.add_argument("--p2", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--out", type=str, default=None)


def _build_parser() -> _Parser:
    ap = _Parser(prog="apq", description="Sharp distribution bounds for "
                 "two-exponent reverse-Holder weight classes")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="derived constants as JSON")
    _add_common(sp)

    sp = sub.add_parser("region", help="region tag of a point")
    _add_common(sp)
    sp.add_argument("--x1", type=float, required=True)
    sp.add_argument("--x2", type=float, required=True)

    sp = sub.add_parser("eval", help="sharp bound at a point")
    _add_common(sp)
    sp.add_argument("--x1", type=float, required=True)
    sp.add_argument("--x2", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)

    sp = sub.add_parser("extremal", help="weight attaining the bound at a point")
    _add_common(sp)
    sp.add_argument("--x1", type=float, required=True)
    sp.add_argument("--x2", type=float, required=True)
    sp.add_argument("--resolution", type=int, default=16)

    sp = sub.add_parser("norm", help="class norm of a weight JSON file "
                        "(exact for step weights)")
    _add_common(sp)
    sp.add_argument("--weight", type=str, required=True,
                    help="path to a weight JSON document")
    sp.add_argument("--resolution", type=int, default=16)

    sp = sub.add_parser("scan", help="CSV of the bound over an in-domain grid")
    _add_common(sp)
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("rh", help="self-improvement constant for (1,-1) classes")
    _add_common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--x1", type=float, default=None)
    sp.add_argument("--x2", type=float, default=None)

    sp = sub.add_parser("verify-concavity", help="concavity campaign")
    _add_common(sp)
    sp.add_argument("--n-interior", type=int, default=500)
    sp.add_argument("--n-boundary", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify-oracle", help="brute-force oracle at a point")
    _add_common(sp)
    sp.add_argument("--x1", type=float, required=True)
    sp.add_argument("--x2", type=float, required=True)
    sp.add_argument("--pieces", type=int, default=3)
    sp.add_argument("--value-grid", type=int, default=40)
    sp.add_argument("--break-grid", type=int, default=20)

    sp = sub.add_parser("verify-majorization", help="dyadic majorization campaign")
    _add_common(sp)
    sp.add_argument("--n-weights", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--depth", type=int, default=8)

    return ap


def _run(args) -> int:
    cmd = args.command

    if cmd == "constants":
        doc = derive_constants(Params(args.p1, args.p2, args.q)).as_dict()
        _emit(_to_json(doc), args.out)
        return _EXIT_OK

    if cmd == "eval":
        p = Params(args.p1, args.p2, args.q)
        c = derive_constants(p)
        if args.lam is None:
            res = bellman.evaluate((args.x1, args.x2), c, p)
        else:
            res = bellman.evaluate_lambda((args.x1, args.x2), args.lam, c, p)
        _emit(_to_json(res.as_dict()), args.out)
        return _EXIT_OK

    if cmd == "region":
        p = Params(args.p1, args.p2, args.q)
        c = derive_constants(p)
        _emit(_to_json({"region": classify((args.x1, args.x2), c, p).value}), args.out)
        return _EXIT_OK

    if cmd == "extremal":
        p = Params(args.p1, args.p2, args.q)
        c = derive_constants(p)
        x = (args.x1, args.x2)
        w, plan = build(x, c, p)
        target = bellman.evaluate(x, c, p).value
        reached = distribution(w, 1.0)
        doc = {
            "weight": weight_to_json(w),
            "plan": plan.as_dict(),
            "attainment": {
                "moments": [moment(w, p.p1), moment(w, p.p2)],
                "target": [x[0], x[1]],
                "distribution_at_1": reached,
                "bound": target,
                "norm": apq_norm(w, p, resolution=args.resolution),
            },
        }
        _emit(_to_json(doc), args.out)
        return _EXIT_OK

    if cmd == "norm":
        p = Params(args.p1, args.p2, args.q)
        with open(args.weight) as fh:
            w = weight_from_json(json.load(fh))
        _emit(_to_json({"norm": apq_norm(w, p, resolution=args.resolution)}), args.out)
        return _EXIT_OK

    if cmd == "scan":
        n = args.grid
        if n < 2:
            raise DomainError("--grid must be at least 2")
        p = Params(args.p1, args.p2, args.q)
        c = derive_constants(p)
        r_lo, r_hi = c.v_minus * c.gamma_minus, c.v_plus * c.gamma_plus
        if r_lo == 0.0 or not math.isfinite(r_hi):
            raise SolveError(f"scan range [{r_lo}, {r_hi}] of unit-curve parameters "
                             "is not representable in double precision")
        rows = []
        for i in range(n):
            r = r_lo * (r_hi / r_lo) ** (i / (n - 1.0))
            for j in range(n):
                x = (r**p.p1, p.power2(r * args.q ** (-j / (n - 1.0))))
                res = bellman.evaluate(x, c, p)
                rows.append((x[0], x[1], res.region.value, res.value))
        if args.format == "json":
            doc = [{"x1": a, "x2": b, "region": r, "B": v} for a, b, r, v in rows]
            _emit(_to_json(doc), args.out)
        else:
            lines = ["x1,x2,region,B"]
            lines += [f"{a:.17g},{b:.17g},{r},{v:.17g}" for a, b, r, v in rows]
            _emit("\n".join(lines), args.out)
        return _EXIT_OK

    if cmd == "rh":
        if args.p1 != 1.0 or args.p2 != -1.0:
            raise DomainError("the rh command applies to exponents (1, -1)")
        x = None
        if args.x1 is not None or args.x2 is not None:
            if args.x1 is None or args.x2 is None:
                raise DomainError("provide both --x1 and --x2 or neither")
            x = (args.x1, args.x2)
        res = rh.rh_constant(args.q, args.alpha, x)
        _emit(_to_json(res.as_dict()), args.out)
        return _EXIT_OK

    p = Params(args.p1, args.p2, args.q)
    c = derive_constants(p)

    if cmd == "verify-concavity":
        report = verify.check_concavity(c, p, n_interior=args.n_interior,
                                        n_boundary=args.n_boundary, seed=args.seed)
        _emit(_to_json(report.as_dict()), args.out)
        return _EXIT_OK if report.passed else _EXIT_VERIFY

    if cmd == "verify-oracle":
        x = (args.x1, args.x2)
        if not in_domain(x, p):
            raise DomainError(f"point {x} outside the moment domain")
        got = verify.oracle_max(x, c, p, n_pieces=args.pieces,
                                value_grid=args.value_grid, break_grid=args.break_grid)
        bound = bellman.evaluate(x, c, p).value
        slack = verify.lipschitz_slack(x, c, p)
        passed = got <= bound + slack + 1e-9
        doc = {"oracle": got, "bound": bound, "lipschitz_slack": slack, "pass": passed}
        _emit(_to_json(doc), args.out)
        return _EXIT_OK if passed else _EXIT_VERIFY

    if cmd == "verify-majorization":
        report = verify.check_majorization(c, p, n_weights=args.n_weights,
                                           seed=args.seed, depth=args.depth)
        _emit(_to_json(report.as_dict()), args.out)
        return _EXIT_OK if report.passed else _EXIT_VERIFY

    raise DomainError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except ApqError as exc:
        _emit_error(str(exc))
        return _EXIT_DOMAIN
    except OSError as exc:
        _emit_error(str(exc))
        return _EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
