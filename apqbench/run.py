#!/usr/bin/env python3
"""Run one workload of the apq benchmark and print its metrics.

    python3 apqbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

The workload (see workloads.py) is a fixed list of operations drawn once from
the seed.  One process and one caller run it as a closed loop, each operation
starting when the previous one ends, in whole rounds until --seconds have
passed and at least 100 operations have completed.  A warm-up round runs
first; its outputs are checked against the 50-digit reference after the timed
phase, and every timed round must reproduce them exactly.

Set-up time is measured in fresh processes (probe.py): from process start
until apq is imported and the workload's constants are derived; the median
of several is reported.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 half of
the time runs untraced and half traced (tracing.py), and the metrics are the
per-layer ones; the spans of the first traced round are written to
apqbench/out/trace-<workload>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2, with no result, when the
checkout has no apq sources under src/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import functools
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROCESSES = 5
MIN_OPS = 100


@dataclass
class Phase:
    per_op: list                                     # seconds per completed run of each op
    busy: float = 0.0                                # seconds inside the program's calls
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    mismatched: int = 0                              # outputs that differ from the warm-up
    round_ends: list = field(default_factory=list)   # perf_counter at the end of each round
    peak_rss_mb: float = 0.0                         # after the first round

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy


def _digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()


def probe_setup(classes, into: list) -> None:
    """One fresh process: appends (set-up s, import ms, constants ms)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), json.dumps(classes)],
                          capture_output=True, text=True, timeout=120, check=True)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    into.append((rec["done"] - t0, rec["import_ms"], rec["constants_ms"]))


def _spread(tasks: list, extra: list) -> list:
    """tasks with extra inserted at evenly spaced places."""
    out = list(tasks)
    for k, task in reversed(list(enumerate(extra))):
        out.insert(k * len(tasks) // max(1, len(extra)), task)
    return out


def run_rounds(ops, expected, seconds: float, min_ops: int, untimed=()) -> Phase:
    """Whole rounds until they have taken `seconds` and `min_ops` operations
    have completed.  The untimed tasks (set-up probes, output checks) run
    between rounds in step with the rounds' progress, so that the timed
    rounds sample the host's speed over the whole run, not one stretch of it.
    The peak RSS is read after the first round, before any task."""
    ph = Phase([[] for _ in ops])
    tasks = list(untimed)
    total_tasks, timed = len(tasks), 0.0
    reported = set()
    while True:
        round_start = time.perf_counter()
        for i, (op, want) in enumerate(zip(ops, expected)):
            t0 = time.perf_counter()
            try:
                out = op.run()
                ok = True
            except Exception:
                ok = False
                if i not in reported:
                    reported.add(i)
                    print(f"operation {i} ({op.kind}) failed:\n{traceback.format_exc()}",
                          file=sys.stderr)
            dt = time.perf_counter() - t0
            ph.busy += dt
            ph.attempted += 1
            if ok:
                ph.per_op[i].append(dt)
                if _digest(out) != want:
                    ph.mismatched += 1
            else:
                ph.failed += 1
                if want is not None:
                    ph.mismatched += 1
        timed += time.perf_counter() - round_start
        ph.rounds += 1
        ph.round_ends.append(time.perf_counter())
        if ph.rounds == 1:
            ph.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finished = timed >= seconds and ph.attempted - ph.failed >= min_ops
        due = total_tasks if finished else min(total_tasks, math.ceil(total_tasks * timed / seconds))
        while total_tasks - len(tasks) < due:
            tasks.pop(0)()
        if finished:
            return ph


def _percentile_ms(lat: list, k: int) -> float:
    """The k-th decile of the latencies, in ms."""
    return 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[k - 1]


def _makeup(ops, ph: Phase) -> str:
    """Per kind: operations per round, median latency and share of busy time."""
    by_kind: dict = {}
    for op, ts in zip(ops, ph.per_op):
        n, all_ts = by_kind.get(op.kind, (0, []))
        by_kind[op.kind] = (n + 1, all_ts + ts)
    return "\n".join(
        f"  {kind:36s} {n:3d}/round  median {1e3 * statistics.median(ts):9.2f} ms"
        f"  {100 * sum(ts) / ph.busy:5.1f}% of busy time"
        for kind, (n, ts) in by_kind.items() if ts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "apq" / "__init__.py").is_file():
        print(f"no apq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    plan = workloads.WORKLOADS[args.workload](args.seed)

    import apq
    if Path(apq.__file__).resolve().parent != SRC / "apq":
        print(f"imported apq from {apq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = plan.make_ops()

    warm, expected = [], []
    for op in ops:
        try:
            out = op.run()
        except Exception:
            out = None
        warm.append(out)
        expected.append(None if out is None else _digest(out))

    errors, probes = [], []

    def check(i, op, out):
        errors.extend(f"operation {i} ({op.kind}): {e}" for e in op.check(out))
    untimed = _spread([functools.partial(check, i, op, out)
                       for i, (op, out) in enumerate(zip(ops, warm)) if out is not None],
                      [functools.partial(probe_setup, plan.classes, probes)] * SETUP_PROCESSES)

    if args.trace:
        from tracing import NAMES, TRACED, Tracer
        plain = run_rounds(ops, expected, args.seconds / 2, 0, untimed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(ops, expected, args.seconds / 2, 0)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
    else:
        plain = run_rounds(ops, expected, args.seconds, MIN_OPS, untimed)
        phases = [plain]
    setup_s, import_ms, constants_ms = (statistics.median(v) for v in zip(*probes))

    mismatched = sum(ph.mismatched for ph in phases)
    if mismatched:
        errors.append(f"{mismatched} outputs differ from the warm-up round's")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations/round, "
          f"{plain.rounds} rounds, {plain.attempted} operations\n{_makeup(ops, plain)}",
          file=sys.stderr)

    if args.trace:
        calls, self_s, incl_s = tracer.totals()
        r = traced.rounds
        metrics = {}
        for i, name in enumerate(NAMES):
            metrics[f"{name}.calls"] = (calls[i] / r, "count")
            metrics[f"{name}.self_ms"] = (1e3 * self_s[i] / r, "ms")
            metrics[f"{name}.us_per_call"] = (1e6 * incl_s[i] / calls[i] if calls[i] else 0.0, "us")
        for mod, fns in TRACED.items():
            own = sum(self_s[NAMES.index(f"{mod}.{fn}")] for fn in fns)
            metrics[f"{mod}.share"] = (own / traced.busy, "ratio")
        metrics["setup.import_ms"] = (import_ms, "ms")
        metrics["setup.constants_ms"] = (constants_ms, "ms")
        metrics["trace.overhead"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
        OUT.mkdir(exist_ok=True)
        keep = bisect.bisect_left(tracer.start, traced.round_ends[0])   # spans start in call order
        with open(OUT / f"trace-{args.workload}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "traced_rounds": r,
                       "metrics": {k: v[0] for k, v in metrics.items()},
                       "first_round_spans": tracer.spans(keep)}, fh)
    else:
        lat = [t for ts in plain.per_op for t in ts]
        metrics = {
            "ops_per_s": (plain.ops_per_s, "1/s"),
            "op_p50_ms": (_percentile_ms(lat, 5), "ms"),
            "op_p90_ms": (_percentile_ms(lat, 9), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (plain.peak_rss_mb, "MB"),
        }

    result = {"correct": not errors,
              "attempted": sum(ph.attempted for ph in phases),
              "failed": sum(ph.failed for ph in phases),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
