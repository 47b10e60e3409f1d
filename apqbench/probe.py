"""Set-up probe, run in a fresh process by run.py.

    python3 apqbench/probe.py '[[p1, p2, Q], ...]'

Imports apq from the checkout's src/, derives the constants of every class
given, and prints one JSON line: the import and constants times in ms and
the monotonic clock reading when both are done (comparable across processes
on Linux, where it is CLOCK_MONOTONIC).
"""

import json
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main() -> int:
    classes = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import apq
    t1 = time.perf_counter()
    for p1, p2, q in classes:
        if p2 == 0.0:
            apq.ainf_constants(q)
        else:
            apq.derive_constants(apq.Params(p1, p2, q))
    t2 = time.perf_counter()
    done = time.monotonic()
    print(json.dumps({"import_ms": 1e3 * (t1 - t0), "constants_ms": 1e3 * (t2 - t1),
                      "done": done}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
