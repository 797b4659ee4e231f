"""Gray code sequences and tables of row combinations ("greasing").

A k-bit Gray code orders [0, 2^k) so consecutive values differ in one bit.
Walking that order, every one of the 2^k - 1 non-zero XOR combinations of k
source rows is produced with a single row addition from the previous table
entry; tabulating each combination independently would cost on the order
of (k/2) * 2^k additions instead. The finished table is indexed directly
by the integer read from a k-bit stripe, so the Gray order matters only
during construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernel, core
from ._kernel import MAX_K
from .counters import counters
from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class GrayCode:
    """Code sequence plus, for each step, the index of the bit that flipped.

    code[0] == 0; changed_bit[j] is the flipped bit between code[j-1] and
    code[j] (bit 0 = least significant); changed_bit[0] is unused.
    """

    k: int
    code: tuple[int, ...]
    changed_bit: tuple[int, ...]


def build_gray(k: int) -> GrayCode:
    """Reflect-and-prefix construction of the k-bit Gray code."""
    if not 1 <= k <= MAX_K:
        raise ParameterError(f"gray code width {k} outside 1..{MAX_K}")
    code = [0, 1]
    for bit in range(1, k):
        code += [c | (1 << bit) for c in reversed(code)]
    changed = [0] * (1 << k)
    for j in range(1, 1 << k):
        changed[j] = (code[j] ^ code[j - 1]).bit_length() - 1
    return GrayCode(k, tuple(code), tuple(changed))


@functools.cache
def gray_code(k: int) -> GrayCode:
    """Cached accessor; codes are immutable and shared."""
    return build_gray(k)


@functools.cache
def _table_steps(k: int) -> tuple[tuple[int, int], ...]:
    """Gray walk as (destination slot, source row) pairs, cached per k.

    Step j writes slot code[j]; the flipped bit changed_bit[j] names the
    source row under the big-endian index convention (bit k-1 = row 0).
    """
    g = gray_code(k)
    return tuple((g.code[j], k - 1 - g.changed_bit[j])
                 for j in range(1, 1 << k))


class CombinationTable:
    """Direct-indexed table of all 2^k XOR combinations of k source rows.

    Index bit k-1 corresponds to the FIRST source row, matching the
    big-endian convention of read_bits. Slot 0 is the zero row. A table is
    allocated once per multiplication and refilled for every stripe; `k`
    reflects the width of the most recent fill and may be below capacity.
    Its rows are as far apart as the compiled kernel's table rows
    (`core.padded_cols`), so both allocate the same words.
    """

    def __init__(self, k: int, ncols: int):
        if not 1 <= k <= MAX_K:
            raise ParameterError(f"table width {k} outside 1..{MAX_K}")
        self.capacity = k
        self.k = k
        self.ncols = ncols
        self.matrix = core.window(
            core.create(1 << k, core.padded_cols(ncols)), 0, 0, 1 << k, ncols)

    @property
    def words(self) -> np.ndarray:
        return self.matrix.words

    @property
    def rows(self) -> np.ndarray:
        """The 2^k packed rows; rows[x] is the combination selected by x."""
        return self.matrix.words[:1 << self.k]

    def row(self, x: int) -> np.ndarray:
        return self.matrix.words[x]


def make_table(b: core.Mat, start_row: int, k: int,
               table: CombinationTable) -> None:
    """Fill `table` with all combinations of rows [start_row, start_row+k).

    Performs exactly 2^k - 1 row additions: each Gray step XORs one source
    row into the previously written slot.
    """
    if not 1 <= k <= table.capacity:
        raise ParameterError(
            f"table fill width {k} outside 1..{table.capacity}")
    if start_row < 0 or start_row + k > b.nrows:
        raise DimensionError(
            f"rows [{start_row},{start_row + k}) outside 0..{b.nrows}")
    if table.ncols != b.ncols:
        raise DimensionError(
            f"table width {table.ncols} != source width {b.ncols}")
    table.k = k
    counters.table_adds += (1 << k) - 1
    counters.row_adds += (1 << k) - 1
    if table.ncols == 0:
        return
    # Table rows must stay clean; window sources may carry live bits
    # beyond their right edge, so those rows are copied and masked.
    # Owned matrices have clean tails by invariant.
    if isinstance(b, core.BitMatrix):
        src = b.words[start_row:start_row + k]
    else:
        src = b.words[start_row:start_row + k].copy()
        src[:, -1] &= core.tail_mask(b.ncols)
    # One xor per Gray step, on 1-D row views: the walk makes one kernel
    # call per step, and a row view is the cheapest operand to hand it.
    xor = _kernel.active().xor
    rows = list(table.rows)
    src_rows = list(src)
    prev = rows[0]
    prev[:] = 0
    for slot, row in _table_steps(k):
        xor(prev, src_rows[row], rows[slot])
        prev = rows[slot]
