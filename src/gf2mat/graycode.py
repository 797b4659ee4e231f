"""Gray code sequences and tables of row combinations ("greasing").

A k-bit Gray code orders [0, 2^k) so consecutive values differ in one bit.
Walking that order, every one of the 2^k - 1 non-zero XOR combinations of k
source rows is produced with a single row addition from the previous table
entry; tabulating each combination independently would cost on the order
of (k/2) * 2^k additions instead. The finished table is indexed directly
by the integer read from a k-bit stripe, so the Gray order matters only
during construction.

The code is the reflected binary code in closed form, as `_kernel.c`'s
gray_table walks it: step j writes slot j ^ (j >> 1), and the bit it
flips is ctz(j). make_table walks it the same way on every Python kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernel, core
from ._kernel import MAX_K
from .counters import counters
from .errors import DimensionError, ParameterError, integer


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
    """The k-bit reflected Gray code: code[j] = j ^ (j >> 1), and step j
    flips bit ctz(j)."""
    k = integer(k, "gray code width")
    if not 1 <= k <= MAX_K:
        raise ParameterError(f"gray code width {k} outside 1..{MAX_K}")
    return GrayCode(k, tuple(j ^ (j >> 1) for j in range(1 << k)),
                    (0, *((j & -j).bit_length() - 1
                          for j in range(1, 1 << k))))


# Codes are immutable and shared. Typed, so a float width is never served
# the code of its integer value: it reaches build_gray and raises.
gray_code = functools.lru_cache(maxsize=None, typed=True)(build_gray)


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
        k = integer(k, "table width")
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

    Performs exactly 2^k - 1 row additions, as `_kernel.c`'s gray_table:
    step j XORs source row k-1-ctz(j) into the previously written slot and
    writes slot j ^ (j >> 1). A window source may carry live bits beyond
    its right edge; the table's last word is masked once after the walk,
    so its rows stay clean.
    """
    k = integer(k, "table fill width")
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
    # One xor per Gray step, on 1-D row views: the walk makes one kernel
    # call per step, and a row view is the cheapest operand to hand it.
    xor = _kernel.active().xor
    rows = list(table.rows)
    src = list(b.words[start_row:start_row + k])
    prev = rows[0]
    prev[:] = 0
    for j in range(1, 1 << k):
        dst = rows[j ^ (j >> 1)]
        xor(prev, src[k - (j & -j).bit_length()], dst)
        prev = dst
    table.rows[:, -1] &= core.tail_mask(b.ncols)
