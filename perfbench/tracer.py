"""Per-module spans around calls into gf2mat, recorded from outside it.

The tracer rebinds the module attributes through which the library's own
callers reach each function (callers look them up at call time), records
a span for every call (name, start, end, parent) in memory, and restores
the originals on exit. Nothing is rebound unless a tracer is entered. A
target that no longer exists is reported as absent, and so is every metric
that depends on it, instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name). The span name is the module that owns
# the code plus the function, whatever module the caller reaches it from.
TARGETS = (
    ("gf2mat", "mul_strassen", "strassen.mul_strassen"),
    ("gf2mat.strassen", "schedule_winograd", "strassen.schedule_winograd"),
    ("gf2mat.strassen", "_base_mul_into", "strassen._base_mul_into"),
    ("gf2mat.strassen", "peel_fixup", "strassen.peel_fixup"),
    ("gf2mat.strassen", "_mul_into", "m4rm._mul_into"),
    ("gf2mat.strassen", "mul_cubic", "cubic.mul_cubic"),
    ("gf2mat.m4rm", "make_table", "graycode.make_table"),
    ("gf2mat.m4rm", "_read_bits_rows", "m4rm._read_bits_rows"),
    ("gf2mat.cubic", "_parity64_blocks", "cubic._parity64_blocks"),
    ("gf2mat.cubic", "_popcount_parity", "cubic._popcount_parity"),
    ("gf2mat.core", "create", "core.create"),
    ("gf2mat.core", "add_into", "core.add_into"),
    ("gf2mat.core", "copy_into", "core.copy_into"),
    ("gf2mat.core", "transpose", "core.transpose"),
    ("gf2mat.tuning", "default_params", "tuning.default_params"),
    ("gf2mat.tuning", "choose_k", "tuning.choose_k"),
)

# Timed layers: metric -> (mode, span names, required parent span names).
# "self" takes each span's duration minus its traced children; "total"
# takes the whole duration of spans not nested in another span of the same
# metric. A parent set keeps only spans called directly from those spans.
TIMED = {
    "strassen.dispatch_s": ("self", {"strassen.mul_strassen"}, None),
    "strassen.quadrant_add_s": ("total", {"core.add_into"},
                                {"strassen.schedule_winograd"}),
    "strassen.leaf_copy_s": ("total", {"core.add_into", "core.copy_into"},
                             {"strassen._base_mul_into"}),
    "strassen.peel_fixup_s": ("total", {"strassen.peel_fixup"}, None),
    "m4rm.combine_s": ("self", {"m4rm._mul_into"}, None),
    "m4rm.index_read_s": ("total", {"m4rm._read_bits_rows"}, None),
    "graycode.table_build_s": ("total", {"graycode.make_table"}, None),
    "cubic.mul_s": ("self", {"cubic.mul_cubic"}, None),
    "cubic.parity_s": ("total", {"cubic._parity64_blocks",
                                 "cubic._popcount_parity"}, None),
    "cubic.transpose_s": ("total", {"core.transpose"}, {"cubic.mul_cubic"}),
    "core.create_s": ("total", {"core.create"}, None),
    "tuning.params_s": ("total", {"tuning.default_params",
                                  "tuning.choose_k"}, None),
}

# Span counts: metric -> span name.
CALLS = {"graycode.table_builds": "graycode.make_table"}

# Counter deltas: metric -> field of gf2mat.counters.
COUNTERS = {
    "strassen.products": "strassen_products",
    "strassen.quadrant_adds": "quadrant_adds",
    "m4rm.c_writes": "c_writes",
    "graycode.table_adds": "table_adds",
    "core.words_allocated": "words_allocated",
}

UNITS = {**{name: "s" for name in TIMED},
         **{name: "count" for name in [*CALLS, *COUNTERS]},
         "core.words_allocated": "words"}


class Tracer:
    """Context manager that records spans while it is entered."""

    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self._saved: list = []
        self.present: set[str] = set()
        self.absent: list[str] = []
        for modname, attr, name in TARGETS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                mod = None
            if mod is not None and callable(getattr(mod, attr, None)):
                self.present.add(name)
            else:
                self.absent.append(f"{modname}.{attr}")

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return traced

    def __enter__(self):
        for modname, attr, name in TARGETS:
            if name not in self.present:
                continue
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)
        return False

    def available(self, metric: str) -> bool:
        if metric in TIMED:
            _, names, parents = TIMED[metric]
            return (names | (parents or set())) <= self.present
        if metric in CALLS:
            return CALLS[metric] in self.present
        return True


def layer_times(spans: list) -> tuple[dict[str, float], float]:
    """Per-metric seconds for one pass's spans, and the seconds the named
    layers other than dispatch cover (self times, so nothing counts twice).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {metric: 0.0 for metric in TIMED}
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        pname = spans[parent][0] if parent >= 0 else None
        own = end - start - child_time[i]
        named = False
        for metric, (mode, names, parents) in TIMED.items():
            if name not in names or (parents and pname not in parents):
                continue
            named = named or metric != "strassen.dispatch_s"
            if mode == "self":
                out[metric] += own
            elif pname not in names:
                out[metric] += end - start
        if named:
            covered += own
    return out, covered


def count_calls(spans: list) -> dict[str, int]:
    return {metric: sum(1 for s in spans if s[0] == name)
            for metric, name in CALLS.items()}
