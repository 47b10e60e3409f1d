"""Per-layer tracing of apq by rebinding its functions.

Each traced function is replaced, in every ``apq`` module that binds it, by a
wrapper that records one span (function, start, end, parent span).  Calls made
through a module attribute or a ``from`` import both land on the wrapper.
Spans stay in memory in flat arrays; self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

TRACED = {
    "params": ["derive_constants", "ainf_constants"],
    "geometry": ["classify", "in_domain"],
    "implicit_v": ["solve_v_III", "solve_v_IV"],
    "bellman": ["evaluate", "evaluate_ainf"],
    "extremal": ["build", "region1_chord", "region2_segment"],
    "weights": ["apq_norm", "moment", "distribution"],
    "verify": ["check_majorization", "oracle_max"],
    "rh": ["rh_check"],
    "cli": ["main"],
}
NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod in TRACED:
            importlib.import_module(f"apq.{mod}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "apq" or name.startswith("apq."))]
        for i, name in enumerate(NAMES):
            mod, fn = name.split(".")
            orig = getattr(sys.modules[f"apq.{mod}"], fn)
            wrapper = self._wrap(i, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    def _wrap(self, i: int, orig):
        fid, parent, start, end, stack = self.fid, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(fid)
            fid.append(i)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
        return traced

    def totals(self):
        """Per function: (calls, self seconds, inclusive seconds), over all spans."""
        n = len(self.fid)
        child = [0.0] * n
        for k in range(n):
            par = self.parent[k]
            if par >= 0:
                child[par] += self.end[k] - self.start[k]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        incl_s = [0.0] * len(NAMES)
        for k in range(n):
            f = self.fid[k]
            dur = self.end[k] - self.start[k]
            calls[f] += 1
            self_s[f] += dur - child[k]
            incl_s[f] += dur
        return calls, self_s, incl_s

    def spans(self, count: int) -> dict:
        """The first `count` spans, as columns; fid indexes NAMES, parent the spans."""
        return {"functions": NAMES, "fid": self.fid[:count].tolist(),
                "parent": self.parent[:count].tolist(),
                "start": self.start[:count].tolist(), "end": self.end[:count].tolist()}
