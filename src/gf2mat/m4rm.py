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
and table count, the tables' layout, its orientation and its counter
deltas. The engines take the plan and the operands alone; the width comes
from the caller, an explicit k on the public entries here, which always
run directly, and tuning.base_k on strassen's base route, which runs a
product as C^T = B^T A^T where tuning.transposed_k says so: for B far
narrower than A is tall, the transposed product takes n steps a stripe
group where the direct one takes m.

On the compiled kernel (see _kernel) the whole engine, table builds and
index reads included, runs in one native call per product, which also
allocates the tables; the Python loops below serve the numpy and scalar
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import _kernel, core
# Bound here under the name through which perfbench's tracer times the
# Python engine's index reads (m4rm.index_read_s).
from .core import _read_bits_rows
from .counters import counters
from .errors import ParameterError, integer
from .graycode import MAX_K, CombinationTable, make_table
from .tuning import MAX_T

# Words of A's rows (64 columns each) a transposed plan transposes at a
# time: `_kernel.c`'s WINDOW.
WINDOW = 4


@dataclass(frozen=True)
class StripeSpec:
    """Validated stripe parameters: width k, table count t, row block b_s."""

    k: int
    t: int = 1
    b_s: int = 1

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               integer(getattr(self, f.name), f.name))
        if not 1 <= self.k <= MAX_K:
            raise ParameterError(f"k={self.k} outside 1..{MAX_K}")
        if not 1 <= self.t <= MAX_T:
            raise ParameterError(f"t={self.t} outside 1..{MAX_T}")
        if self.b_s < 1:
            raise ParameterError(f"block size {self.b_s} < 1")


def _stripes(l: int, k: int, start: int = 0) -> list[tuple[int, int]]:
    """(start_col, width) pairs covering columns [start, l) in stripes of
    k, the last one narrower when k does not divide l - start."""
    return [(sc, min(k, l - sc)) for sc in range(start, l, k)]


class Plan(NamedTuple):
    """An M4RM product's plan, all that the engines take besides the
    operands: Gray width k (at most l), row blocks of b_s rows and up to
    t tables per stripe group; ntables tables of 2^k rows, table_stride
    words apart as core.padded_cols pads them, table_bytes in all; and the
    counter deltas the Python engine records for it (table_adds, row_adds,
    c_writes), which _mul_into adds in one step on the compiled kernel.

    A `transposed` plan runs the product as C^T += B^T A^T (_mul_t_into):
    its rows are C's columns and its tables A's columns, so every field
    but scratch_words is the direct plan's of the n x l x m product.
    scratch_words counts every word the engine allocates: the tables,
    and for a transposed plan C^T and the windows of A and B."""

    k: int
    b_s: int
    t: int
    ntables: int
    table_stride: int
    table_bytes: int
    table_adds: int
    row_adds: int
    c_writes: int
    transposed: bool
    scratch_words: int


def _table_layout(m: int, l: int, n: int, k: int, b_s: int, t: int,
                  transposed: bool = False) -> Plan | None:
    """The plan of an m x l x n product at Gray width k, row blocks of b_s
    and t tables, run directly or `transposed`; None when the product is
    empty. Shape arithmetic only: _fit_budget compares the bytes with the
    kernel's budget, which may change."""
    if not (m and l and n):
        return None
    rows, cols = (n, m) if transposed else (m, n)
    k = min(k, l)
    nstripes = -(-l // k)
    ntables = min(t, nstripes)
    stride = core.words_per_row(core.padded_cols(cols))
    table_words = (ntables << k) * stride
    # A ragged last stripe of l % k columns costs 2^(l % k) - 1 additions.
    built = -(-rows // b_s) * ((l // k) * ((1 << k) - 1) + (1 << l % k) - 1)
    # C^T and A's columns of one window, transposed, in rows as wide as
    # the tables' (stride words), and B's rows of the window, transposed.
    window = min(WINDOW, core.words_per_row(l))
    extra = (n + 64 * window) * stride + n * window if transposed else 0
    return Plan(k, b_s, t, ntables, stride, table_words * 8, built,
                built + rows * nstripes, rows * -(-nstripes // t),
                transposed, table_words + extra)


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
    masked to B's width (or, transposed, C^T's rows beyond n read as
    zero). Nothing is checked here; only the engine's scratch is
    allocated: by the extension itself on the compiled kernel, which
    books its words as core.create books the Python engine's. There the
    product is one extension call, and the plan's counter deltas are
    booked here, in one step."""
    kernel = _kernel.active()
    if kernel.compiled:
        # One unpacking: a NamedTuple's fields read one by one cost more.
        (k, b_s, t, _, stride, _, table_adds, row_adds, c_writes,
         transposed, scratch_words) = plan
        engine = kernel.m4rm_t if transposed else kernel.m4rm
        engine(c, a, b, a.ncols, b.ncols, k, b_s, t, stride)
        counters.words_allocated += scratch_words
        counters.table_adds += table_adds
        counters.row_adds += row_adds
        counters.c_writes += c_writes
        return
    if plan.transposed:
        _mul_t_into(kernel, c, a, b, plan)
        return
    tables = [CombinationTable(plan.k, b.ncols) for _ in range(plan.ntables)]
    _blocks(kernel, c, a, b, plan, tables, 0, a.ncols)


def _blocks(kernel, c: core.Mat, a: core.Mat, b: core.Mat, plan: Plan,
            tables: list, g0: int, l: int) -> None:
    """c += a @ b over a's columns and b's rows [g0, l), step for step as
    `_kernel.c`'s m4rm: row blocks of plan.b_s rows outer, groups of
    plan.t stripes of plan.k columns from column g0 inner, each built
    into `tables` and added by _add_group."""
    stripes = _stripes(l, plan.k, g0)
    for r0 in range(0, a.nrows, plan.b_s):
        r1 = min(r0 + plan.b_s, a.nrows)
        for s0 in range(0, len(stripes), plan.t):
            _add_group(kernel, c.words[r0:r1], a, r0, r1, b,
                       stripes[s0:s0 + plan.t], tables)


def _add_group(kernel, dst: np.ndarray, a: core.Mat, r0: int, r1: int,
               b: core.Mat, group: list, tables: list) -> None:
    """dst += rows [r0, r1) of a @ b over one group of stripes (sc, kw):
    the group's tables from rows sc of b, then every row's indices from
    columns sc of a, all read before any table lookup; the group's
    lookups are gathered and summed, then added to dst by one xor."""
    for table, (sc, kw) in zip(tables, group):
        make_table(b, sc, kw, table)
    ids = [_read_bits_rows(a, r0, r1, sc, kw) for sc, kw in group]
    rows = tables[0].words[ids[0]]
    for table, idx in zip(tables[1:], ids[1:]):
        rows ^= table.words[idx]
    kernel.xor(dst, rows, dst)
    counters.c_writes += r1 - r0
    counters.row_adds += (r1 - r0) * len(group)


def _mul_t_into(kernel, c: core.Mat, a: core.Mat, b: core.Mat,
                plan: Plan) -> None:
    """c += a @ b as C^T += B^T A^T on a Python kernel, step for step as
    `_kernel.c`'s m4rm_t: the direct loop (_blocks) on windows of at most
    WINDOW words, each from the word of the first stripe group not yet
    added. a's columns of the window, transposed, are its b and b's rows
    its a; it adds the groups of plan.t stripes that end inside the
    window. C^T is added to c, transposed, at the end. It allocates what
    m4rm_t allocates (plan.scratch_words)."""
    m, l, n = a.nrows, a.ncols, b.ncols
    span = core.WORD_BITS * min(WINDOW, a.width)
    group = plan.t * plan.k
    ct = _padded(n, m)
    at = _padded(span, m)  # a's columns [ws, end), transposed
    bw = core.create(n, span)  # b's rows [ws, end), transposed
    tables = [CombinationTable(plan.k, m) for _ in range(plan.ntables)]
    g0 = 0
    while g0 < l:
        ws = g0 - g0 % core.WORD_BITS
        end = min(l, ws + span)
        g1 = l if end == l else g0 + (end - g0) // group * group
        wi = ws // core.WORD_BITS
        at.words[:end - ws] = _kernel.transpose_words(
            a.words[:, wi:wi + bw.width], m, end - ws)
        bw.words[:, :core.words_per_row(end - ws)] = \
            _kernel.transpose_words(b.words[ws:end], end - ws, n)
        _blocks(kernel, ct, bw, at, plan, tables, g0 - ws, g1 - ws)
        g0 = g1
    product = _kernel.transpose_words(ct.words, n, m)
    kernel.xor(c.words, product, c.words)


def _padded(nrows: int, ncols: int) -> core.MatrixWindow:
    """An nrows x ncols window of a zeroed matrix whose rows are padded as
    table rows are (core.padded_cols), as m4rm_t lays out C^T and A's
    window."""
    return core.window(core.create(nrows, core.padded_cols(ncols)), 0, 0,
                       nrows, ncols)


def _m4rm_entry(c: core.Mat | None, a: core.Mat, b: core.Mat, k: int,
                b_s: int, t: int) -> core.Mat:
    """c += a @ b, or without c (None) the product in a fresh matrix;
    returns c. Every public M4RM product comes here, and every check is
    made here, before anything is allocated or written."""
    core.check_product(a, b, c)
    spec = StripeSpec(k, t, b_s)
    m, l, n = a.nrows, a.ncols, b.ncols
    plan = _fit_budget(_table_layout(m, l, n, spec.k, spec.b_s, spec.t),
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
