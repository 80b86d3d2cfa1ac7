"""Spans recorded from outside the program, and per-layer sums over them.

A span is (name, parent, start, end). Spans live in one flat float array in
memory, four numbers each, and are written out when the run ends. Because
the program is single-threaded, spans are appended in start order and every
job's spans follow its root span contiguously.

A span's self time is its duration minus the durations of its direct
children; summed over every span of a job, self times add up to the job's
root span exactly, so the share left to the benchmark's own ``bench`` layer
shows how much of a job the program layers account for.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name): the public functions wrapped where the
# calling module binds them. Span names are "<layer>.<what>".
PROGRAM_WRAPPERS = (
    ("drfeas.space", "Point.__init__", "space.point"),
    ("drfeas.operators", "Operator.apply", "operators.apply"),
    ("drfeas.operators", "Operator.__call__", "operators.apply"),
    ("drfeas.convex", "ConvexSet.distance", "convex.distance"),
    ("drfeas.solver", "FeasibilityProblem.max_distance", "solver.residual"),
    ("drfeas.solver", "window", "control.window"),
    ("drfeas.solver", "dr_operator", "operators.dr_operator"),
    ("drfeas.repro", "dr_operator", "operators.dr_operator"),
    ("drfeas.problem_io", "set_from_params", "convex.set_build"),
    ("drfeas.problem_io", "format_trace", "problem_io.format_trace"),
    ("drfeas.repro", "check_firmly_nonexpansive", "diagnostics.check"),
    ("drfeas.repro", "check_nonexpansive", "diagnostics.check"),
)

LAYERS = ("solver", "problem_io", "space", "operators", "convex", "control", "diagnostics")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.buf = array("d")
        self._stack = [-1.0]
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = float(self.names.index(name))
        buf, stack = self.buf, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(buf) >> 2
            buf.extend((nid, stack[-1], perf_counter(), 0.0))
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                buf[4 * i + 3] = perf_counter()
                stack.pop()

        return traced

    def prepare(self) -> None:
        """Wrap each function in PROGRAM_WRAPPERS; patch(True) installs them."""
        self._patches = []
        for module_name, attr, name in PROGRAM_WRAPPERS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patches.append((owner, leaf, original, self.wrap(name, original)))

    def patch(self, on: bool) -> None:
        """Install the traced versions, or put the originals back."""
        for owner, leaf, original, traced in self._patches:
            setattr(owner, leaf, traced if on else original)

    def spans(self) -> np.ndarray:
        """Columns: name id, parent index (-1 for a root), start, end."""
        return np.frombuffer(self.buf, dtype=float).reshape(-1, 4)


def self_times(spans: np.ndarray) -> np.ndarray:
    duration = spans[:, 3] - spans[:, 2]
    parent = spans[:, 1].astype(np.int64)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(spans))
    return duration - children


def per_root_totals(tracer: Tracer, root: str) -> dict[str, dict[str, float]]:
    """Mean per root span (one job or one set-up) of each span name's
    call count, inclusive time and self time, over the spans under it."""
    spans = tracer.spans()
    if root not in tracer.names or not len(spans):
        return {}
    names = spans[:, 0].astype(np.int64)
    is_root = spans[:, 1] < 0
    root_id = tracer.names.index(root)
    # Roots split the buffer into contiguous trees; keep the trees of `root`.
    tree = np.cumsum(is_root) - 1
    starts = np.flatnonzero(is_root)
    keep = names[starts][tree] == root_id
    count = int(np.sum(names[starts] == root_id))
    duration = spans[:, 3] - spans[:, 2]
    self_t = self_times(spans)
    out = {}
    for nid, name in enumerate(tracer.names):
        sel = keep & (names == nid)
        out[name] = {
            "calls": float(np.sum(sel)) / count,
            "incl_s": float(np.sum(duration[sel])) / count,
            "self_s": float(np.sum(self_t[sel])) / count,
        }
    return out
