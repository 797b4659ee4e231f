"""Classical cubic multiplication via word-wise AND and parity.

With B stored transposed, entry C[i,j] is the parity of the AND of row i
of A with row j of B^T, accumulated word-wise with XOR. The per-word
parity step has no native instruction, so 64 accumulator words are
transposed as a 64x64 bit matrix and folded, yielding 64 parities at once;
narrow leftovers fall back to per-word popcount parity. As in M4RM, the
product is XORed into its target, which may be a window.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import _kernel, core
from .counters import counters
from .errors import DimensionError

_TRANSPOSE_ROUNDS = (
    (32, np.uint64(0x00000000FFFFFFFF)),
    (16, np.uint64(0x0000FFFF0000FFFF)),
    (8, np.uint64(0x00FF00FF00FF00FF)),
    (4, np.uint64(0x0F0F0F0F0F0F0F0F)),
    (2, np.uint64(0x3333333333333333)),
    (1, np.uint64(0x5555555555555555)),
)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _transpose64_blocks(blocks: np.ndarray) -> np.ndarray:
    """Transpose each 64-word block as a 64x64 bit matrix (in place)."""
    cols = np.arange(64)
    for sh, mask in _TRANSPOSE_ROUNDS:
        lo = np.nonzero((cols & sh) == 0)[0]
        hi = lo + sh
        shift = np.uint64(sh)
        a = blocks[:, lo]
        b = blocks[:, hi]
        t = (a ^ (b >> shift)) & mask
        blocks[:, lo] = a ^ t
        blocks[:, hi] = b ^ (t << shift)
    return blocks


def _parity64_blocks(blocks: np.ndarray) -> np.ndarray:
    """Per-block packed parities: bit 63-i of the result is parity(block[i])."""
    t = _transpose64_blocks(blocks.copy())
    return np.bitwise_xor.reduce(t, axis=1)


def _popcount_parity(words: np.ndarray) -> np.ndarray:
    """Parity of each word as 0/1 uint64 values."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.uint64) & np.uint64(1)
    v = words.copy()
    for sh in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(sh)
    return v & np.uint64(1)


def parity64(words) -> int:
    """Parities of 64 words packed into one word, entry i at bit 63-i."""
    arr = np.asarray(words, dtype=np.uint64)
    if arr.shape != (64,):
        raise DimensionError(f"parity64 expects 64 words, got {arr.shape}")
    return int(_parity64_blocks(arr.reshape(1, 64))[0])


def parity_accumulate(words) -> int:
    """XOR-fold a word sequence, then popcount mod 2."""
    acc = reduce(lambda x, y: x ^ y, (int(w) for w in words), 0)
    return acc.bit_count() & 1


def mul_cubic(a: core.Mat, b: core.Mat,
              c: core.Mat | None = None) -> core.Mat:
    """c += a @ b over GF(2) by AND + XOR-accumulate + parity; returns c.

    Without c, the product in a fresh matrix. c may be a window: bits
    beyond its right edge are kept. c must not overlap a or b.
    """
    core.check_product(a, b, c)
    m, l, n = a.nrows, a.ncols, b.ncols
    if c is None:
        c = core.create(m, n)
    if m and l and n:
        _cubic_into(a, b, c)
    return c


def _cubic_into(a: core.Mat, b: core.Mat, c: core.Mat) -> None:
    """c += a @ b for a non-empty product whose target c is sized to it;
    nothing is checked here (strassen's base route and mul_cubic have)."""
    kernel = _kernel.active()
    if kernel.compiled:
        # The kernel allocates B^T itself; its words are booked as
        # core.transpose books them below.
        l, n = a.ncols, b.ncols
        kernel.cubic(c, a, b, l, n)
        counters.words_allocated += n * core.words_per_row(l)
        return
    m, l, n = a.nrows, a.ncols, b.ncols
    # B^T is owned, so its bits beyond column l are clear and the AND
    # below drops whatever a window of A holds beyond its right edge.
    bt = core.transpose(b)
    nb, rem = divmod(n, 64)
    acc = np.empty((n, bt.width), dtype=np.uint64)
    rem_shifts = (63 - np.arange(rem, dtype=np.uint64)) if rem else None
    row = np.empty(c.width, dtype=np.uint64)
    for i in range(m):
        np.bitwise_and(bt.words, a.words[i], out=acc)
        sums = np.bitwise_xor.reduce(acc, axis=1)
        if nb:
            row[:nb] = _parity64_blocks(sums[:nb * 64].reshape(nb, 64))
        if rem:
            bits = _popcount_parity(sums[nb * 64:])
            row[nb] = np.bitwise_or.reduce(bits << rem_shifts)
        dst = c.words[i]
        kernel.xor(dst, row, dst)
