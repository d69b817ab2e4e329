"""Spans around the public functions of torcap's layers.

The tracer replaces module attributes with wrappers from this file; torcap's
sources are not edited.  Calls inside torcap look functions up on their
module (`toric.h0(...)`, or a global name in the same module), so they reach
the wrappers too.  Each span records (name, start, end, parent); a layer's
self time is its spans' durations minus the parts covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import time

# (module, function) pairs wrapped in a traced run
TRACED = {
    "capacities": ("calg", "concave_weights", "ech_ellipsoid", "ech_concave_capacities",
                   "ech_ellipsoid_capacities", "embedding_verdict", "xi_width"),
    "toric": ("h0", "build_surface", "intersection_matrix"),
    "lattice": ("lattice_width", "smooth_vertices"),
    "oracle": ("brute_calg", "sw_infimum"),
}

SELF_TIMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
CALL_COUNTS = ("capacities.calg", "toric.h0", "capacities.ech_ellipsoid")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        # distinct inputs, for work counts computed from arguments
        self.weights: dict = {}        # concave domain -> number of weights
        self.convolutions: set = set()  # (domain, k_max) of ech_concave_capacities
        self.oracle_tables: dict = {}   # (kind, polygon, box) -> vectors scanned

    def install(self, modules: dict) -> None:
        """Wrap TRACED functions on the given {short name: module}."""
        for short, names in TRACED.items():
            module = modules[short]
            for name in names:
                setattr(module, name, self._wrap(f"{short}.{name}", getattr(module, name)))

    def _wrap(self, qual: str, fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([qual, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            self._count(qual, sig, args, kwargs, result)
            return result

        return wrapper

    def _count(self, qual, sig, args, kwargs, result) -> None:
        if qual == "capacities.concave_weights":
            self.weights[args[0]] = len(result)
        elif qual == "capacities.ech_concave_capacities":
            self.convolutions.add(tuple(sig.bind(*args, **kwargs).arguments.values()))
        elif qual in ("oracle.brute_calg", "oracle.sw_infimum"):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            p, box = bound.arguments["p"], bound.arguments["box"]
            # brute_calg scans the nef table, sw_infimum the index table:
            # every vector in [0, box]^n, one coefficient per edge
            self.oracle_tables[(qual, p, box)] = (box + 1) ** len(p.vertices)

    def summary(self) -> dict:
        """Per-layer self seconds and counts, every metric present."""
        self_s = dict.fromkeys(SELF_TIMES, 0.0)
        calls = dict.fromkeys(CALL_COUNTS, 0)
        child_time = [0.0] * len(self.spans)
        builds = set()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "toric.build_surface" and self.spans[parent][0] == "capacities.calg":
                    builds.add(parent)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            self_s[name] += end - start - child_time[i]
            if name in calls:
                calls[name] += 1
        cells = sum(self.weights[omega] * (k + 1) * (k + 2) // 2
                    for omega, k in self.convolutions)
        out = {f"{name}.self_s": v for name, v in self_s.items()}
        out.update({f"{name}.calls": v for name, v in calls.items()})
        out["capacities.calg.table_builds"] = len(builds)
        out["capacities.concave_weights.weights"] = sum(self.weights.values())
        out["capacities.ech_concave_capacities.maxplus_cells"] = cells
        out["oracle.scanned_vectors"] = sum(self.oracle_tables.values())
        return out
