"""Naive reference product used as the independent correctness oracle.

This module deliberately shares no code with the multiplication paths: it
extracts entries straight from the packed words by shift-and-mask and
evaluates the defining sums C[i,j] = sum_k A[i,k] * B[k,j] mod 2. The sums
are computed exactly (0/1 entries, counts far below 2^53, float64 matrix
product), which is the triple loop evaluated wholesale. A literal Python
triple loop is kept alongside for small instances to cross-check the fast
evaluation itself.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def unpack_entries(a) -> np.ndarray:
    """Entries of a matrix or window as a uint8 array, by direct extraction."""
    m, n = a.nrows, a.ncols
    if m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.uint8)
    cols = np.arange(n)
    shifts = (63 - (cols & 63)).astype(np.uint64)
    words = np.asarray(a.words, dtype=np.uint64)
    return ((words[:, cols >> 6] >> shifts) & np.uint64(1)).astype(np.uint8)


def naive_product(a, b) -> np.ndarray:
    """Dense 0/1 product of two packed matrices, mod-2 exact."""
    if a.ncols != b.nrows:
        raise DimensionError(
            f"inner dimensions {a.ncols} and {b.nrows} differ")
    da = unpack_entries(a).astype(np.float64)
    db = unpack_entries(b).astype(np.float64)
    return (da @ db).astype(np.int64).astype(np.uint8) & 1


def naive_product_slow(a, b) -> np.ndarray:
    """Literal triple loop over extracted entries; small inputs only."""
    if a.ncols != b.nrows:
        raise DimensionError(
            f"inner dimensions {a.ncols} and {b.nrows} differ")
    da = unpack_entries(a)
    db = unpack_entries(b)
    m, l, n = a.nrows, a.ncols, b.ncols
    out = np.zeros((m, n), dtype=np.uint8)
    for i in range(m):
        for j in range(n):
            s = 0
            for k in range(l):
                s ^= da[i, k] & db[k, j]
            out[i, j] = s
    return out


def first_mismatch(c, expected: np.ndarray) -> tuple[int, int] | None:
    """First coordinate where packed matrix c differs from dense expected."""
    got = unpack_entries(c)
    if got.shape != expected.shape:
        raise DimensionError(
            f"shapes {got.shape} and {expected.shape} differ")
    diff = got != expected
    if not diff.any():
        return None
    r, col = np.argwhere(diff)[0]
    return (int(r), int(col))
