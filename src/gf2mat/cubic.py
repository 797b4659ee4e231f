"""Classical cubic multiplication via word-wise AND and parity.

With B stored transposed, entry C[i,j] is the parity of the AND of row i
of A with row j of B^T, accumulated word-wise with XOR. The per-word
parity step has no native instruction, so each block of 64 accumulator
words is folded in six halving rounds with the masks of the 64x64 bit
transpose, yielding 64 parities in one word, as `_kernel.c`'s parity64
does; narrow leftovers take per-word popcount parity, as the kernel's
__builtin_parityll. As in M4RM, the product is XORed into its target,
which may be a window.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import _kernel, core
from .counters import counters
from .errors import DimensionError

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _parity64_blocks(blocks: np.ndarray) -> np.ndarray:
    """Per-block packed parities: bit 63-i of the result is parity(block[i]).

    The fold of `_kernel.c`'s parity64, on every block at once: each round
    pairs word i with word i + sh and folds every group of the pair to half
    its width, the first word's groups kept in the high halves and the
    second's in the low halves. After six rounds one word per block
    remains. The input is not changed."""
    v = blocks
    for sh, lo in _kernel.TRANSPOSE_ROUNDS:
        x, y = v[:, :sh], v[:, sh:]
        shift = np.uint64(sh)
        v = ((x ^ (x << shift)) & ~lo) | ((y ^ (y >> shift)) & lo)
    return v[:, 0]


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
