"""Correctness check that uses no gf2mat code.

The expected product is computed from the benchmark's own dense operands
with a float32 matmul: every entry of A @ B is an integer of at most l,
and float32 holds integers below 2^24 exactly, so reducing it mod 2 gives
the GF(2) product. The library's result is unpacked from the documented
word layout (column c of a row in word c // 64, bit 63 - c % 64) and must
match it bit for bit, with every bit beyond the last column zero.
"""

from __future__ import annotations

import numpy as np

_ROW_BLOCK = 1024
_EXACT_LIMIT = 1 << 24


def reference_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B over GF(2) as a dense uint8 array."""
    m, l = a.shape
    if l >= _EXACT_LIMIT:
        raise ValueError(f"inner dimension {l} too large for exact float32")
    bf = b.astype(np.float32)
    out = np.empty((m, b.shape[1]), dtype=np.uint8)
    for r0 in range(0, m, _ROW_BLOCK):
        prod = a[r0:r0 + _ROW_BLOCK].astype(np.float32) @ bf
        out[r0:r0 + _ROW_BLOCK] = prod.astype(np.int32) & 1
    return out


def mismatch(nrows: int, ncols: int, words: np.ndarray,
             expected: np.ndarray) -> str | None:
    """Why a packed result differs from `expected`, or None if it matches."""
    m, n = expected.shape
    if (nrows, ncols) != (m, n):
        return f"shape {nrows}x{ncols}, expected {m}x{n}"
    width = (n + 63) // 64
    if words.dtype != np.uint64 or words.shape != (m, width):
        return (f"word array {words.dtype}{words.shape}, "
                f"expected ({m}, {width})")
    if m == 0 or width == 0:
        return None
    spare = n % 64
    if spare:
        dirty = words[:, -1] & np.uint64((1 << (64 - spare)) - 1)
        rows = np.flatnonzero(dirty)
        if rows.size:
            return f"trailing bits set in row {int(rows[0])}"
    bits = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1,
                         bitorder="big")[:, :n]
    diff = np.argwhere(bits != expected)
    if diff.size:
        r, c = diff[0]
        return f"{len(diff)} entries differ, first at ({int(r)}, {int(c)})"
    return None
