"""Strassen-Winograd recursion over matrix windows, with peeling.

The recursion halves all three dimensions per level using in-place
windows, so every level needs column offsets on word boundaries; peeling
shrinks the operands to the largest dimensions divisible by 2^d * 64 (d
recursion levels), multiplies that conforming core recursively, and fixes
up the remaining rows and columns with the base-case multipliers only.
Over GF(2) subtraction equals addition, so every S/T/U step below is an
XOR. Each level performs exactly 7 recursive products and 15 quadrant
additions and touches two scratch quadrant buffers beyond the output.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from . import _kernel, core, tuning
from .counters import counters
# The base route's cubic runner, bound under the public name through
# which perfbench's tracer times the route's cubic products
# (cubic.mul_s); it checks nothing, as _mul_into runs an M4RM plan.
from .cubic import _cubic_into as mul_cubic
from .errors import DimensionError
from .m4rm import Plan, _fit_budget, _mul_into, _table_layout
from .tuning import MulParams

_WORD = core.WORD_BITS
# The base route sends a product to cubic when B is narrower than a word
# and m * n < _CUBIC_ROWS * 64 * ceil(l / 64): A is short against B's row
# length, so M4RM's 2^k - 1 table row additions per stripe serve too few
# rows of A. Fitted on the compiled kernel (AVX-512, fitted k, t=8,
# b_s=8192) with a kernel-only sweep, min of 21 rounds of 5 calls per
# shape, over m in 16..1024, ceil(l / 64) in 1..16 and n in 16..63. In
# each of three sweeps the total is within 0.3% of the best at 5, 6 and
# 10, 0.6-0.8% higher at 12, 1.6-1.9% at 2 and 2.4-4.3% at 20; over
# small-batch's 200 shapes it is within 0.2% for 3..6 and 2.8-3.3% higher
# at 20 (BENCH_19.json).
_CUBIC_ROWS = 5


class PeelSplit(NamedTuple):
    m: int
    l: int
    n: int
    depth: int


_NO_SPLIT = PeelSplit(0, 0, 0, 0)


def peel_split(m: int, l: int, n: int, cutoff: int) -> PeelSplit:
    """Largest dimensions <= inputs divisible by 2^d * 64, and the depth d.

    d is the deepest recursion for which every halved dimension stays a
    multiple of 64 and at least `cutoff`. All-zero dimensions signal that
    no level is worthwhile and the caller should fall back whole. The
    smallest dimension decides d, since x // unit grows with x.
    """
    least = min(m, l, n)
    depth = 0
    while least >= 1 and (least // (_WORD << (depth + 1))) * _WORD >= cutoff:
        depth += 1
    if depth == 0:
        return _NO_SPLIT
    unit = _WORD << depth
    return PeelSplit((m // unit) * unit, (l // unit) * unit,
                     (n // unit) * unit, depth)


@functools.lru_cache(maxsize=4096)
def _base_route(m: int, l: int, n: int, params: MulParams,
                budget: int) -> Plan | None:
    """The engine of an m x l x n base product: None for cubic, when B is
    narrower than a word and A short against B's rows (see _CUBIC_ROWS),
    and for the empty products, else the whole M4RM plan
    (m4rm._table_layout) at the Gray width params give for m rows and n
    columns. Raises ParameterError if that plan's tables exceed `budget`
    bytes, so a plan is refused before anything is allocated or written.

    Memoized, since every public entry asks once per base shape of its
    plan: the route memo is the only memo on the product path, and a hit
    is the whole route with its budget check. Callers pass the kernel's
    budget, _kernel.MAX_TABLE_BYTES, read on every call, so the memo
    follows it when it changes; a refusal raises, and is not memoized."""
    if n < _WORD and m * n < _CUBIC_ROWS * _WORD * -(-l // _WORD):
        return None
    return _fit_budget(_table_layout(m, l, n, params.effective_k(n, nrows=m),
                                     params.b_s, params.t), budget)


def _check_tables(shapes, params: MulParams) -> list[Plan | None]:
    """The routes of the base products (m, l, n) of `shapes`; raises
    ParameterError if one would ask for M4RM tables over the kernel's
    budget, so a plan is refused before anything is allocated or
    written."""
    budget = _kernel.MAX_TABLE_BYTES
    return [_base_route(m, l, n, params, budget) for m, l, n in shapes]


def _base_mul_into(dst: core.Mat | None, a: core.Mat, b: core.Mat,
                   plan: Plan | None, params: MulParams,
                   accumulate: bool) -> core.Mat:
    """dst = a @ b, or dst += a @ b when accumulating, by `plan`, the
    route _base_route gives this product's shape (None: cubic); returns
    dst. With dst None, the product in a fresh matrix.

    The one route below the recursion: flat products, leaves and peeled
    strips all come here. It depends on (m, l, n) only, never on the
    backend, and is the one place that allocates or clears C for either
    engine. Both engines add into dst in place, so dst may be a window
    and nothing is allocated beyond C and the engines' scratch. Nothing
    is checked or looked up here: callers size dst to the product, and
    the public entry took the route, once per shape, from _base_route.
    """
    if dst is None:
        dst = core.create(a.nrows, b.ncols)
    elif not accumulate:
        core.clear(dst)
    if plan is not None:
        _mul_into(dst, a, b, plan, params.b_s, params.t)
    elif a.nrows and a.ncols and b.ncols:  # an empty product's route is None
        mul_cubic(a, b, dst)
    return dst


def _temp_arena(m: int, l: int, n: int, depth: int) -> list[tuple]:
    """Two scratch buffers per recursion level, allocated up front.

    Level s temps are quadrant-sized for that level; the X buffer holds
    both A-shaped sums and one product, so it spans max(l, n) columns.
    """
    pairs = []
    for s in range(1, depth + 1):
        x = core.create(m >> s, max(l >> s, n >> s))
        y = core.create(l >> s, n >> s)
        counters.temp_quadrants += 2
        pairs.append((x, y))
    return pairs


def schedule_winograd(a: core.Mat, b: core.Mat, c: core.Mat, temps: tuple,
                      multiply: Callable[[core.Mat, core.Mat, core.Mat],
                                         None]) -> None:
    """One recursion level: c = a @ b with 7 products and 15 additions.

    `temps` supplies the two scratch buffers (at least quadrant-sized);
    `multiply` computes a quadrant product into its first argument. C's
    own quadrants serve as the remaining workspace, so c must not alias
    a or b.
    """
    m, l, n = a.nrows, a.ncols, b.ncols
    if c.nrows != m or c.ncols != n:
        raise DimensionError(f"target {c.shape} != product {m}x{n}")
    if m % 2 or l % (2 * _WORD) or n % (2 * _WORD):
        raise DimensionError(
            f"dimensions {m}x{l}x{n} not halvable on word boundaries")
    m2, l2, n2 = m // 2, l // 2, n // 2
    a11 = core.window(a, 0, 0, m2, l2)
    a12 = core.window(a, 0, l2, m2, l2)
    a21 = core.window(a, m2, 0, m2, l2)
    a22 = core.window(a, m2, l2, m2, l2)
    b11 = core.window(b, 0, 0, l2, n2)
    b12 = core.window(b, 0, n2, l2, n2)
    b21 = core.window(b, l2, 0, l2, n2)
    b22 = core.window(b, l2, n2, l2, n2)
    c11 = core.window(c, 0, 0, m2, n2)
    c12 = core.window(c, 0, n2, m2, n2)
    c21 = core.window(c, m2, 0, m2, n2)
    c22 = core.window(c, m2, n2, m2, n2)
    xbuf, ybuf = temps
    xs = core.window(xbuf, 0, 0, m2, l2)   # X holding A-shaped sums
    xp = core.window(xbuf, 0, 0, m2, n2)   # X holding the A11*B11 product
    y = core.window(ybuf, 0, 0, l2, n2)

    def sub_add(dst, u, v):
        core.add_into(dst, u, v)
        counters.quadrant_adds += 1

    def sub_mul(dst, u, v):
        counters.strassen_products += 1
        multiply(dst, u, v)

    sub_add(xs, a11, a21)    # X   = A11 - A21
    sub_add(y, b22, b12)     # Y   = B22 - B12
    sub_mul(c21, xs, y)      # C21 = X * Y
    sub_add(xs, a21, a22)    # X   = A21 + A22
    sub_add(y, b12, b11)     # Y   = B12 - B11
    sub_mul(c22, xs, y)      # C22 = X * Y
    sub_add(xs, xs, a11)     # X   = X - A11
    sub_add(y, b22, y)       # Y   = B22 - Y
    sub_mul(c12, xs, y)      # C12 = X * Y
    sub_add(xs, a12, xs)     # X   = A12 - X
    sub_mul(c11, xs, b22)    # C11 = X * B22
    sub_mul(xp, a11, b11)    # X   = A11 * B11
    sub_add(c12, xp, c12)    # C12 = X + C12
    sub_add(c21, c12, c21)   # C21 = C12 + C21
    sub_add(c12, c12, c22)   # C12 = C12 + C22
    sub_add(c22, c21, c22)   # C22 = C21 + C22   (final C22)
    sub_add(c12, c12, c11)   # C12 = C12 + C11   (final C12)
    sub_add(y, y, b21)       # Y   = Y - B21
    sub_mul(c11, a22, y)     # C11 = A22 * Y
    sub_add(c21, c21, c11)   # C21 = C21 - C11   (final C21)
    sub_mul(c11, a12, b21)   # C11 = A12 * B21
    sub_add(c11, xp, c11)    # C11 = X + C11     (final C11)


def _mul_rec(c: core.Mat, a: core.Mat, b: core.Mat, depth: int,
             params: MulParams, arena: list, leaf: Plan | None) -> None:
    """c = a @ b over len(arena) levels; every leaf has one shape, whose
    route is `leaf`."""
    counters.strassen_entries += 1
    if depth == len(arena):
        _base_mul_into(c, a, b, leaf, params, accumulate=False)
        return
    schedule_winograd(
        a, b, c, arena[depth],
        lambda cc, aa, bb: _mul_rec(cc, aa, bb, depth + 1, params, arena,
                                    leaf))


def peel_fixup(c: core.Mat, a: core.Mat, b: core.Mat, m2: int, l2: int,
               n2: int, params: MulParams | None = None, *,
               _plans: list | None = None) -> None:
    """Complete c given that c[:m2, :n2] already holds a[:m2,:l2] @ b[:l2,:n2].

    Three corrections, each via the base-case multipliers (never the
    recursion): the inner-dimension remainder accumulates into the done
    block, then the remaining rows of C, then the remaining columns.
    Oversize M4RM tables in any of them raise before c is written.

    `_plans` is for mul_strassen alone: the strips' routes, which its
    _check_tables already compared with the budget together with the
    leaves', so they are not compared twice; it still comes through this
    entry, so the peel stays one call of its own.
    """
    if params is None:
        params = tuning.auto_params()
    m, l, n = a.nrows, a.ncols, b.ncols
    strips = _fixup_strips(m, l, n, m2, l2, n2)
    if _plans is None:
        if c.nrows != m or c.ncols != n:
            raise DimensionError(f"target {c.shape} != product {m}x{n}")
        if not (0 <= m2 <= m and 0 <= l2 <= l and 0 <= n2 <= n):
            raise DimensionError(
                f"peel dims ({m2},{l2},{n2}) exceed ({m},{l},{n})")
        _plans = _check_tables([shape for shape, *_ in strips], params)
    for ((rows, inner, cols), r0, c0, i0, accumulate), plan in zip(strips,
                                                                  _plans):
        _base_mul_into(core.window(c, r0, c0, rows, cols),
                       core.window(a, r0, i0, rows, inner),
                       core.window(b, i0, c0, inner, cols),
                       plan, params, accumulate)


def _fixup_strips(m: int, l: int, n: int, m2: int, l2: int,
                  n2: int) -> list[tuple]:
    """peel_fixup's base products in order, each as ((rows, inner,
    columns), first row of C and A, first column of C and B, first inner
    index, accumulate): the inner-dimension remainder into the done
    block, then the remaining rows of C, then the remaining columns."""
    strips = []
    if l2 < l and m2 and n2:
        strips.append(((m2, l - l2, n2), 0, 0, l2, True))
    if m2 < m:
        strips.append(((m - m2, l, n), m2, 0, 0, False))
    if n2 < n:
        strips.append(((m2, l, n - n2), 0, n2, 0, False))
    return strips


def mul_strassen(a: core.Mat, b: core.Mat,
                 params: MulParams | None = None) -> core.BitMatrix:
    """Full dispatch stack: recursion with peeling above the cutoff, and
    every product below it through _base_mul_into (M4RM, or cubic for B
    narrower than a word when A is short against B's rows).

    Without params, tuning.auto_params() decides: the GF2MAT_CONFIG file,
    or the parameters fitted to the compiled kernel. Parameters whose
    M4RM tables in any base product of the plan (the flat product, the
    leaves or a peeled strip) would exceed the kernel's bound raise
    ParameterError before C is allocated.
    """
    if a.ncols != b.nrows:
        raise DimensionError(
            f"inner dimensions {a.ncols} and {b.nrows} differ")
    if params is None:
        params = tuning.auto_params()
    m, l, n = a.nrows, a.ncols, b.ncols
    cutoff = params.cutoff
    # At or below the cutoff peel_split finds no level: a flat product.
    if m <= cutoff or l <= cutoff or n <= cutoff \
            or not (ps := peel_split(m, l, n, cutoff)).depth:
        plan = _base_route(m, l, n, params, _kernel.MAX_TABLE_BYTES)
        return _base_mul_into(None, a, b, plan, params, accumulate=False)
    strips = _fixup_strips(m, l, n, ps.m, ps.l, ps.n)
    leaf, *plans = _check_tables(
        [(ps.m >> ps.depth, ps.l >> ps.depth, ps.n >> ps.depth),
         *(shape for shape, *_ in strips)], params)
    c = core.create(m, n)
    arena = _temp_arena(ps.m, ps.l, ps.n, ps.depth)
    _mul_rec(core.window(c, 0, 0, ps.m, ps.n),
             core.window(a, 0, 0, ps.m, ps.l),
             core.window(b, 0, 0, ps.l, ps.n),
             0, params, arena, leaf)
    peel_fixup(c, a, b, ps.m, ps.l, ps.n, params, _plans=plans)
    return c
