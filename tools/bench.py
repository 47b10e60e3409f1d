"""Paired benchmark runs: the working tree against a base revision.

    python tools/bench.py --base REV --pairs N --workload W [--seconds S] [--seed K]
                          [--out FILE]

Exports REV with `git archive` into a temporary tree and runs the benchmark
(`apqbench/run.py`, in a fresh process each time) in that tree and in the
working tree, N pairs, flipping which side runs first from one pair to the
next.  Then one `--trace 1` run per side gives the per-layer table.  The
benchmark of each tree times its own `src/`.

The JSON written holds a host fingerprint; for each end-to-end metric, each
side's median and quartiles over the pairs and the number of pairs the working
tree wins (better as `BENCHMARK.json` says; a tie is no win); each run's raw
metrics; and the per-layer metrics of both sides.  With --out, an existing
file keeps the entries of its other workloads, so several workloads collect
into one file; without, the JSON goes to standard output.  --seconds defaults
to `run_seconds` of `BENCHMARK.json`, --seed to 1.

Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(rev: str, into: str) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(into)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def host() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"platform": platform.platform(), "cpu": _cpu_model(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in tree: its result object, metrics as name -> value."""
    proc = subprocess.run([sys.executable, "apqbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def _summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bench(base_tree: Path, workload: str, pairs: int, seconds: float, seed: int,
          spec: dict) -> dict:
    trees = {"base": base_tree, "head": ROOT}
    runs = []
    for i in range(pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        for side in order:
            res = run_once(trees[side], workload, seed, seconds, 0)
            pair[side] = res
            print(f"{workload} pair {i + 1}/{pairs} {side}: {json.dumps(res['metrics'])}",
                  file=sys.stderr)
        runs.append(pair)

    end_to_end = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        vals = {side: [r[side]["metrics"][name] for r in runs] for side in trees}
        wins = sum((h > b) if higher else (h < b) for b, h in zip(vals["base"], vals["head"]))
        end_to_end[name] = {"unit": m["unit"], "better": m["better"],
                            "base": _summary(vals["base"]), "head": _summary(vals["head"]),
                            "head_wins": wins, "pairs": pairs}

    traced = {side: run_once(tree, workload, seed, seconds, 1)["metrics"]
              for side, tree in trees.items()}
    per_layer = {m["name"]: {"unit": m["unit"], "base": traced["base"].get(m["name"]),
                             "head": traced["head"].get(m["name"])}
                 for m in spec["per_layer"]}
    return {"seed": seed, "seconds": seconds, "pairs": pairs,
            "failed": {side: sum(r[side]["failed"] for r in runs) for side in trees},
            "correct": {side: all(r[side]["correct"] for r in runs) for side in trees},
            "end_to_end": end_to_end, "per_layer": per_layer,
            "runs": [{"first": r["first"], "base": r["base"]["metrics"],
                      "head": r["head"]["metrics"]} for r in runs]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="JSON file to write or extend")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    doc = {"host": host(),
           "base": {"rev": args.base, "commit": _git("rev-parse", args.base + "^{commit}")},
           "head": {"commit": _git("rev-parse", "HEAD"), "dirty": dirty},
           "workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            doc["workloads"] = json.load(fh).get("workloads", {})

    with tempfile.TemporaryDirectory() as tmp:
        _export(args.base, tmp)
        doc["workloads"][args.workload] = bench(Path(tmp), args.workload, args.pairs, seconds,
                                                args.seed, spec)

    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
