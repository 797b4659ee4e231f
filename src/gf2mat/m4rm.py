"""Method of the Four Russians multiplication (basic, blocked, multi-table).

A is cut into vertical stripes of k columns; the k bits of a stripe row,
read as an integer, select one precomputed combination of the matching k
rows of B, so each stripe contributes one table lookup and one row addition
per row of C. The blocked variant walks row blocks of A/C in the outer
loop and regenerates tables per block, trading cheap table rebuilds for
operands that stay in cache. The multi-table variant builds t tables for
t*k consecutive rows of B and fuses their t lookups into a single update
of each destination row.

Ragged edges are handled throughout: a final stripe of width l mod k uses
a smaller table, and trailing stripe groups use fewer than t tables.

Each product runs by one Plan (_table_layout): its Gray width, row block
and table count, the tables' layout and its counter deltas. The engines
take the plan and the operands alone; the width comes from the caller,
an explicit k on the public entries here, tuning.base_k on strassen's
base route.

On the compiled kernel (see _kernel) the whole engine, table builds and
index reads included, runs in one native call per product, which also
allocates the tables; the Python loop below serves the numpy and scalar
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import _kernel, core
# Bound here under the name through which perfbench's tracer times the
# Python engine's index reads (m4rm.index_read_s).
from .core import _read_bits_rows
from .counters import counters
from .errors import ParameterError
from .graycode import MAX_K, CombinationTable, make_table
from .tuning import MAX_T


@dataclass(frozen=True)
class StripeSpec:
    """Validated stripe parameters: width k, table count t, row block b_s."""

    k: int
    t: int = 1
    b_s: int = 1

    def __post_init__(self):
        if not 1 <= self.k <= MAX_K:
            raise ParameterError(f"k={self.k} outside 1..{MAX_K}")
        if not 1 <= self.t <= MAX_T:
            raise ParameterError(f"t={self.t} outside 1..{MAX_T}")
        if self.b_s < 1:
            raise ParameterError(f"block size {self.b_s} < 1")


def _stripes(l: int, k: int) -> list[tuple[int, int]]:
    """(start_col, width) pairs covering l columns in stripes of k."""
    out = [(sc, k) for sc in range(0, l - k + 1, k)]
    done = len(out) * k
    if done < l:
        out.append((done, l - done))
    return out


class Plan(NamedTuple):
    """An M4RM product's plan, all that the engines take besides the
    operands: Gray width k (at most l), row blocks of b_s rows and up to
    t tables per stripe group; ntables tables of 2^k rows, table_stride
    words apart as core.padded_cols pads them, table_bytes in all; and the
    counter deltas the Python engine records for it (table_adds, row_adds,
    c_writes), which _mul_into adds in one step on the compiled kernel."""

    k: int
    b_s: int
    t: int
    ntables: int
    table_stride: int
    table_bytes: int
    table_adds: int
    row_adds: int
    c_writes: int


def _table_layout(m: int, l: int, n: int, k: int, b_s: int,
                  t: int) -> Plan | None:
    """The plan of an m x l x n product at Gray width k, row blocks of b_s
    and t tables; None when the product is empty. Shape arithmetic only:
    _fit_budget compares the bytes with the kernel's budget, which may
    change."""
    if not (m and l and n):
        return None
    k = min(k, l)
    nstripes = -(-l // k)
    ntables = min(t, nstripes)
    stride = core.words_per_row(core.padded_cols(n))
    # A ragged last stripe of l % k columns costs 2^(l % k) - 1 additions.
    built = -(-m // b_s) * ((l // k) * ((1 << k) - 1) + (1 << l % k) - 1)
    return Plan(k, b_s, t, ntables, stride, (ntables << k) * stride * 8,
                built, built + m * nstripes, m * -(-nstripes // t))


def _fit_budget(plan: Plan | None, budget: int) -> Plan | None:
    """plan, unless its tables exceed `budget` bytes (callers pass
    _kernel.MAX_TABLE_BYTES, read on every call): then ParameterError."""
    if plan is not None and plan.table_bytes > budget:
        raise ParameterError(
            f"{plan.ntables} tables of 2^{plan.k} rows of "
            f"{plan.table_stride} words take {plan.table_bytes} bytes, "
            f"over {budget}")
    return plan


def _mul_into(c: core.Mat, a: core.Mat, b: core.Mat, plan: Plan) -> None:
    """c += a @ b by `plan`, which _table_layout made for this non-empty
    product and _fit_budget passed; c is sized to the product and may be
    a window: bits beyond its right edge are kept, because table rows are
    masked to B's width. Nothing is checked here; only the table scratch
    is allocated: by the extension itself on the compiled kernel, which
    books its words as core.create books the Python engine's tables.
    There the product is one extension call, and the plan's counter
    deltas are booked here, in one step."""
    kernel = _kernel.active()
    if kernel.compiled:
        # One unpacking: a NamedTuple's fields read one by one cost more.
        (k, b_s, t, _, stride, table_bytes, table_adds, row_adds,
         c_writes) = plan
        kernel.m4rm(c, a, b, a.ncols, b.ncols, k, b_s, t, stride)
        counters.words_allocated += table_bytes >> 3
        counters.table_adds += table_adds
        counters.row_adds += row_adds
        counters.c_writes += c_writes
        return
    m, l, n = a.nrows, a.ncols, b.ncols
    k, b_s, t = plan.k, plan.b_s, plan.t
    stripes = _stripes(l, k)
    tables = [CombinationTable(k, n) for _ in range(plan.ntables)]
    table_words = [tbl.words for tbl in tables]
    for r0 in range(0, m, b_s):
        r1 = min(r0 + b_s, m)
        dst = c.words[r0:r1]
        for g0 in range(0, len(stripes), t):
            group = stripes[g0:g0 + t]
            for gi, (sc, kw) in enumerate(group):
                make_table(b, sc, kw, tables[gi])
            # All indices are read from A before any table lookups; the
            # group's t lookups are gathered and summed, then added to C
            # by one xor.
            ids = [_read_bits_rows(a, r0, r1, sc, kw) for sc, kw in group]
            rows = table_words[0][ids[0]]
            for words, idx in zip(table_words[1:], ids[1:]):
                rows ^= words[idx]
            kernel.xor(dst, rows, dst)
            counters.c_writes += r1 - r0
            counters.row_adds += (r1 - r0) * len(group)


def _m4rm_entry(c: core.Mat | None, a: core.Mat, b: core.Mat, k: int,
                b_s: int, t: int) -> core.Mat:
    """c += a @ b, or without c (None) the product in a fresh matrix;
    returns c. Every public M4RM product comes here, and every check is
    made here, before anything is allocated or written."""
    core.check_product(a, b, c)
    StripeSpec(k, t, b_s)
    m, l, n = a.nrows, a.ncols, b.ncols
    plan = _fit_budget(_table_layout(m, l, n, k, b_s, t),
                       _kernel.MAX_TABLE_BYTES)
    if c is None:
        c = core.create(m, n)
    if plan is not None:
        _mul_into(c, a, b, plan)
    return c


def mul_m4rm(a: core.Mat, b: core.Mat, k: int) -> core.BitMatrix:
    """Basic Four-Russians product: one table per stripe, all rows inner."""
    return _m4rm_entry(None, a, b, k, max(a.nrows, 1), 1)


def mul_m4rm_blocked(a: core.Mat, b: core.Mat, k: int,
                     b_s: int) -> core.BitMatrix:
    """Cache-friendly variant: row blocks outer, tables rebuilt per block."""
    return _m4rm_entry(None, a, b, k, b_s, 1)


def mul_m4rm_multitable(a: core.Mat, b: core.Mat, k: int, t: int,
                        b_s: int) -> core.BitMatrix:
    """t tables over t*k consecutive rows of B, fused into one update."""
    return _m4rm_entry(None, a, b, k, b_s, t)


def mul_m4rm_into(c: core.Mat, a: core.Mat, b: core.Mat, k: int,
                  b_s: int | None = None, t: int = 1) -> None:
    """Accumulating variant, c += a @ b; pass a zeroed c for the product.

    c may be a window; bits beyond its right edge are left as they are.
    """
    _m4rm_entry(c, a, b, k, max(a.nrows, 1) if b_s is None else b_s, t)
