"""Bit-packed dense matrices over GF(2).

Storage is flat row-major: 64 consecutive row entries share one machine
word. Column c of a row lives in word c // 64 at bit position 63 - (c % 64)
(most significant bit first), so reading k consecutive columns is a shift
and mask. Rows are addressed only through `words`, a 2-D uint64 array
with a base address and a row stride: row r is `words[r]`. The compiled
kernel reads `words` itself, through numpy's C API. In-place submatrices
("matrix windows") are slices of the root matrix's array, so they share
its row stride, and must start on a word boundary. Bits in a row's last
word
beyond `ncols` ("trailing bits") are kept zero in owned matrices, and
every write through a window preserves whatever lies beyond the window's
right edge.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys

import numpy as np

from . import _kernel
from .counters import counters
from .errors import AlignmentError, DimensionError, FormatError, integer

WORD_BITS = 64
_LINE_WORDS = 8  # words in a 64-byte cache line
# The word type as a dtype instance: np.zeros converts it faster than the
# scalar type np.uint64.
_WORD = np.dtype(np.uint64)
_FULL_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)

_FILE_MAGIC = b"GF2M"
_FILE_VERSION = 1
_HEADER_BYTES = 4 + 1 + 8 + 8


def set_scalar_xor(enabled: bool) -> None:
    """Run row additions as plain 64-bit word loops in the current context
    (benchmark switch); False restores the default kernel."""
    _kernel.select("scalar" if enabled else None)


def scalar_xor_enabled() -> bool:
    return _kernel.backend() == "scalar"


def words_per_row(ncols: int) -> int:
    return (ncols + WORD_BITS - 1) // WORD_BITS


def tail_mask(ncols: int) -> np.uint64:
    """Mask of the used bits in a row's last word (all-ones if none spare)."""
    return np.uint64(-1 << (-ncols % WORD_BITS) & 0xFFFFFFFFFFFFFFFF)


class _Matrix:
    """Shape, equality, bit indexing and repr, shared by owned matrices
    and windows; row r of either is `words[r]`. Matrices are mutable and
    compare by entries, so they are unhashable, like numpy arrays."""

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Matrix):
            return NotImplemented
        return equal(self, other)

    __hash__ = None

    def __getitem__(self, rc) -> int:
        return get_bit(self, rc[0], rc[1])

    def __setitem__(self, rc, v: int) -> None:
        set_bit(self, rc[0], rc[1], v)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.nrows}x{self.ncols}"
                f"{self._origin()})")

    def _origin(self) -> str:
        return ""


def _address(buf: np.ndarray) -> int:
    """Address of a non-empty writable buffer's first byte (about a third
    of the cost of `buf.ctypes.data`)."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buf))


class BitMatrix(_Matrix):
    """Owned bit-packed matrix.

    Attributes:
        nrows, ncols: dimensions (>= 0).
        width: words per row, ceil(ncols / 64).
        words: (nrows, width) C-contiguous uint64 array, starting on a
            64-byte boundary when rows are 8 words or wider.
        data: `words` as one flat buffer of nrows * width words (a view).
    """

    __slots__ = ("nrows", "ncols", "width", "words")

    def __init__(self, nrows: int, ncols: int):
        nrows, ncols = integer(nrows, "nrows"), integer(ncols, "ncols")
        if nrows < 0 or ncols < 0:
            raise DimensionError(f"negative dimensions {nrows}x{ncols}")
        width = (ncols + WORD_BITS - 1) // WORD_BITS
        if nrows * width * 8 > sys.maxsize:
            raise DimensionError(
                f"{nrows}x{ncols} takes more bytes than an array can hold")
        if width < _LINE_WORDS or not nrows:
            words = np.zeros((nrows, width), _WORD)
        else:
            # Rows of a cache line or more start on a line, so the C
            # kernel's vector loads of a row do not split lines. A
            # matrix's stride is not padded, so its memory stays as it
            # is; only table scratch pads its rows (padded_cols).
            nwords = nrows * width
            raw = np.zeros(nwords + _LINE_WORDS - 1, _WORD)
            start = -_address(raw) // 8 % _LINE_WORDS
            words = raw[start:start + nwords].reshape(nrows, width)
        self.nrows = nrows
        self.ncols = ncols
        self.width = width
        self.words = words
        counters.words_allocated += nrows * width

    @property
    def data(self) -> np.ndarray:
        return self.words.reshape(-1)


def _check_region(a: Mat, row_offset: int, col_offset: int, nrows: int,
                  ncols: int) -> tuple[int, int, int, int]:
    """The offsets and sizes as ints; raise unless they are integers and
    the nrows x ncols region at the offsets lies inside a and starts on a
    word boundary."""
    row_offset = integer(row_offset, "row_offset")
    col_offset = integer(col_offset, "col_offset")
    nrows, ncols = integer(nrows, "nrows"), integer(ncols, "ncols")
    if col_offset % WORD_BITS != 0:
        raise AlignmentError(
            f"window column offset {col_offset} is not a multiple of 64")
    if nrows < 0 or ncols < 0:
        raise DimensionError(f"negative window {nrows}x{ncols}")
    if row_offset < 0 or col_offset < 0 \
            or row_offset + nrows > a.nrows \
            or col_offset + ncols > a.ncols:
        raise DimensionError(
            f"window {nrows}x{ncols}@({row_offset},{col_offset}) exceeds "
            f"{a.nrows}x{a.ncols}")
    return row_offset, col_offset, nrows, ncols


class MatrixWindow(_Matrix):
    """Non-owning view of a rectangular region of a BitMatrix.

    The starting column must be word-aligned; the width may be ragged
    (operations mask the last word so bits beyond the right edge are
    neither read nor clobbered). Reads and writes alias the parent.
    """

    __slots__ = ("parent", "row_offset", "col_offset", "nrows", "ncols",
                 "width", "words")

    def __init__(self, parent: BitMatrix, row_offset: int, col_offset: int,
                 nrows: int, ncols: int):
        row_offset, col_offset, nrows, ncols = _check_region(
            parent, row_offset, col_offset, nrows, ncols)
        self.parent = parent
        self.row_offset = row_offset
        self.col_offset = col_offset
        self.nrows = nrows
        self.ncols = ncols
        self.width = width = words_per_row(ncols)
        word_off = col_offset // WORD_BITS
        self.words = parent.words[row_offset:row_offset + nrows,
                                  word_off:word_off + width]

    def _origin(self) -> str:
        return f"@({self.row_offset},{self.col_offset})"


Mat = BitMatrix | MatrixWindow


def create(nrows: int, ncols: int) -> BitMatrix:
    """All-zero matrix with clean trailing bits."""
    return BitMatrix(nrows, ncols)


def padded_cols(ncols: int) -> int:
    """Columns to allocate for scratch rows of ncols columns (the M4RM
    tables), at most 7 words more than ncols needs. Rows a line or wider
    are rounded up to whole lines, so each starts on one. Narrower rows
    are rounded up to a power of two (3 words to 4, 5..7 to 8), so the
    compiled engine turns a table index into its row's address with a
    shift instead of a multiply. ncols is kept when it needs no padding,
    0 included."""
    width = words_per_row(ncols)
    if width < _LINE_WORDS:
        padded = 1 << (width - 1).bit_length() if width else 0
    else:
        padded = -(-width // _LINE_WORDS) * _LINE_WORDS
    return ncols if padded == width else padded * WORD_BITS


def identity(n: int) -> BitMatrix:
    m = BitMatrix(n, n)
    if n:
        i = np.arange(n, dtype=np.int64)
        m.words[i, i >> 6] = np.uint64(1) << (63 - (i & 63)).astype(np.uint64)
    return m


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """Deterministic stream of 64-bit words (splitmix64)."""
    x = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
         + np.arange(1, count + 1, dtype=np.uint64)
         * np.uint64(0x9E3779B97F4A7C15))
    z = x
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random(nrows: int, ncols: int, seed: int) -> BitMatrix:
    """Uniform random matrix, deterministic for a given seed."""
    seed = integer(seed, "seed")
    m = BitMatrix(nrows, ncols)
    if m.data.size:
        m.data[:] = _splitmix64(seed, m.data.size)
        m.words[:, -1] &= tail_mask(m.ncols)
    return m


def get_bit(a: Mat, r: int, c: int) -> int:
    r, c = integer(r, "r"), integer(c, "c")
    if not (0 <= r < a.nrows and 0 <= c < a.ncols):
        raise IndexError(f"({r},{c}) out of range for {a.nrows}x{a.ncols}")
    w = a.words[r, c >> 6]
    return int((w >> np.uint64(63 - (c & 63))) & np.uint64(1))


def set_bit(a: Mat, r: int, c: int, v: int) -> None:
    r, c, v = integer(r, "r"), integer(c, "c"), integer(v, "v")
    if not (0 <= r < a.nrows and 0 <= c < a.ncols):
        raise IndexError(f"({r},{c}) out of range for {a.nrows}x{a.ncols}")
    bit = np.uint64(1) << np.uint64(63 - (c & 63))
    if v & 1:
        a.words[r, c >> 6] |= bit
    else:
        a.words[r, c >> 6] &= ~bit


def read_bits(a: Mat, r: int, sc: int, k: int) -> int:
    """Read k consecutive entries of row r starting at column sc.

    Returns a[r,sc] * 2^(k-1) + a[r,sc+1] * 2^(k-2) + ... + a[r,sc+k-1],
    correct when the span crosses a word boundary. k is limited to MAX_K.
    """
    r, sc, k = integer(r, "r"), integer(sc, "sc"), integer(k, "k")
    if not 1 <= k <= _kernel.MAX_K:
        raise IndexError(f"read_bits width {k} outside 1..{_kernel.MAX_K}")
    if not (0 <= r < a.nrows and 0 <= sc and sc + k <= a.ncols):
        raise IndexError(
            f"read_bits row {r} cols [{sc},{sc + k}) out of range")
    return int(_read_bits_rows(a, r, r + 1, sc, k)[0])


def _read_bits_rows(a: Mat, r0: int, r1: int, sc: int,
                    k: int) -> np.ndarray:
    """read_bits for rows [r0, r1) at once, unchecked; returns the M4RM
    table indices."""
    wi, off = divmod(sc, WORD_BITS)
    mask = np.uint64((1 << k) - 1)
    w = a.words
    if off + k <= WORD_BITS:
        ids = (w[r0:r1, wi] >> np.uint64(WORD_BITS - off - k)) & mask
    else:
        nlo = off + k - WORD_BITS
        ids = ((w[r0:r1, wi] << np.uint64(nlo))
               | (w[r0:r1, wi + 1] >> np.uint64(WORD_BITS - nlo))) & mask
    return ids.astype(np.intp)


def check_product(a: Mat, b: Mat, c: Mat | None = None) -> None:
    """Raise DimensionError unless a's columns are b's rows and, when a
    target c is given, c is sized to the product. Every public product
    entry calls it before it allocates or writes anything."""
    if a.ncols != b.nrows:
        raise DimensionError(
            f"inner dimensions {a.ncols} and {b.nrows} differ")
    if c is not None and (c.nrows != a.nrows or c.ncols != b.ncols):
        raise DimensionError(
            f"target {c.nrows}x{c.ncols} != product {a.nrows}x{b.ncols}")


def _masked_last(words_2d: np.ndarray, ncols: int) -> np.ndarray:
    """Copy of the last word column with bits beyond ncols cleared."""
    return words_2d[:, -1] & tail_mask(ncols)


def row_add(c: Mat, r1: int, s: Mat, r2: int) -> None:
    """XOR row r2 of s into row r1 of c, word-wise."""
    r1, r2 = integer(r1, "r1"), integer(r2, "r2")
    if c.ncols != s.ncols:
        raise DimensionError(
            f"row_add width mismatch: {c.ncols} vs {s.ncols}")
    if not (0 <= r1 < c.nrows and 0 <= r2 < s.nrows):
        raise IndexError(f"row_add rows ({r1},{r2}) out of range")
    if c.width == 0:
        return
    counters.row_adds += 1
    row = c.words[r1:r1 + 1]
    _kernel.active().add(row, row, s.words[r2:r2 + 1], tail_mask(c.ncols))


def add_into(out: Mat, a: Mat, b: Mat) -> None:
    """out = a XOR b, entry-wise; out may alias a or b."""
    if a.shape != b.shape or out.shape != a.shape:
        raise DimensionError(
            f"add shapes {a.shape}, {b.shape} -> {out.shape} differ")
    if out.width == 0 or out.nrows == 0:
        return
    counters.row_adds += out.nrows
    _kernel.active().add(out.words, a.words, b.words, tail_mask(out.ncols))


def add(a: Mat, b: Mat) -> BitMatrix:
    """Entry-wise XOR of two equal-shaped matrices; inputs unchanged."""
    if a.shape != b.shape:
        raise DimensionError(f"add shapes {a.shape} and {b.shape} differ")
    out = BitMatrix(a.nrows, a.ncols)
    add_into(out, a, b)
    return out


def copy_into(out: Mat, a: Mat) -> None:
    """Copy a into out, preserving anything beyond out's right edge."""
    if out.shape != a.shape:
        raise DimensionError(f"copy shapes {a.shape} -> {out.shape} differ")
    if out.width == 0 or out.nrows == 0:
        return
    tm = tail_mask(out.ncols)
    if tm == _FULL_MASK:
        out.words[:] = a.words
        return
    out.words[:, :-1] = a.words[:, :-1]
    out.words[:, -1] = (out.words[:, -1] & ~tm) | (a.words[:, -1] & tm)


def clear(out: Mat) -> None:
    """Zero out, preserving anything beyond its right edge."""
    if out.width == 0 or out.nrows == 0:
        return
    out.words[:, :-1] = 0
    out.words[:, -1] &= ~tail_mask(out.ncols)


def window(a: Mat, row_offset: int, col_offset: int,
           nrows: int, ncols: int) -> MatrixWindow:
    """Non-owning view; a window of a window must lie inside it and
    flattens onto the root matrix."""
    if isinstance(a, MatrixWindow):
        row_offset, col_offset, nrows, ncols = _check_region(
            a, row_offset, col_offset, nrows, ncols)
        return MatrixWindow(a.parent, a.row_offset + row_offset,
                            a.col_offset + col_offset, nrows, ncols)
    return MatrixWindow(a, row_offset, col_offset, nrows, ncols)


def copy_out(w: Mat) -> BitMatrix:
    """Freshly-owned matrix equal to the window contents."""
    out = BitMatrix(w.nrows, w.ncols)
    if out.words.size:
        out.words[:, :] = w.words
        out.words[:, -1] &= tail_mask(w.ncols)
    return out


def augment(a: Mat, b: Mat) -> BitMatrix:
    """Columns of a followed by columns of b."""
    if a.nrows != b.nrows:
        raise DimensionError(
            f"augment row counts {a.nrows} and {b.nrows} differ")
    if a.ncols % WORD_BITS == 0:
        out = BitMatrix(a.nrows, a.ncols + b.ncols)
        if a.width:
            out.words[:, :a.width] = a.words
        if b.width:
            out.words[:, a.width:] = b.words
            out.words[:, -1] &= tail_mask(out.ncols)
        return out
    dense = np.hstack([to_dense(a), to_dense(b)])
    return from_dense(dense)


def stack(a: Mat, b: Mat) -> BitMatrix:
    """Rows of a above rows of b."""
    if a.ncols != b.ncols:
        raise DimensionError(
            f"stack column counts {a.ncols} and {b.ncols} differ")
    out = BitMatrix(a.nrows + b.nrows, a.ncols)
    if out.width:
        out.words[:a.nrows] = a.words
        out.words[a.nrows:] = b.words
        out.words[:, -1] &= tail_mask(out.ncols)
    return out


def transpose(a: Mat) -> BitMatrix:
    """New matrix with result[j, i] == a[i, j], packed to packed by the
    active kernel's transpose: 64x64 blocks in the kernel's six rounds,
    vectorized in each engine copy on the compiled kernel. a may be a
    window; what lies beyond its right edge is not read as entries."""
    if not isinstance(a, _Matrix):
        raise DimensionError(f"transpose takes a matrix, not {a!r}")
    out = BitMatrix(a.ncols, a.nrows)
    _kernel.active().transpose(out, a, a.nrows, a.ncols)
    return out


def equal(a: Mat, b: Mat) -> bool:
    """Exact dimension and entry equality."""
    if a.shape != b.shape:
        return False
    if a.nrows == 0 or a.width == 0:
        return True
    if not np.array_equal(a.words[:, :-1], b.words[:, :-1]):
        return False
    return bool(np.array_equal(_masked_last(a.words, a.ncols),
                               _masked_last(b.words, b.ncols)))


def first_difference(a: Mat, b: Mat) -> tuple[int, int] | None:
    """Coordinates of the first differing entry in row-major order."""
    if a.shape != b.shape:
        raise DimensionError(f"shapes {a.shape} and {b.shape} differ")
    if a.nrows == 0 or a.width == 0:
        return None
    diff = a.words ^ b.words
    diff[:, -1] &= tail_mask(a.ncols)
    rows = np.nonzero(diff.any(axis=1))[0]
    if rows.size == 0:
        return None
    r = int(rows[0])
    w = int(np.nonzero(diff[r])[0][0])
    word = int(diff[r, w])
    col = w * WORD_BITS + (WORD_BITS - word.bit_length())
    return (r, col)


def to_dense(a: Mat) -> np.ndarray:
    """Unpack into a (nrows, ncols) uint8 array of 0/1 entries."""
    if a.nrows == 0 or a.ncols == 0:
        return np.zeros((a.nrows, a.ncols), dtype=np.uint8)
    by = a.words.astype(">u8").view(np.uint8).reshape(a.nrows, -1)
    return np.unpackbits(by, axis=1, bitorder="big")[:, :a.ncols]


def from_dense(dense: np.ndarray) -> BitMatrix:
    """Pack a 2-D array into a BitMatrix whose entry (r, c) is the low bit
    of dense[r, c], or for bool input its truth, with zero trailing bits.
    Other dtypes than bool and uint8 are cast to uint8 first (numpy's
    unsafe cast keeps an integer's low bit).

    The active kernel's `pack` fills the matrix. The compiled one reads
    bool and uint8 input once, in place, whatever its strides and values:
    no copy the size of the dense input is made. The Python kernels' pack
    copies uint8 input with values over 1 to mask it (see
    _kernel.NumpyKernel.pack). A bool entry is 1 when its byte is
    nonzero, on every kernel, also for bytes other than 0 and 1 (a view
    of other bytes as bool).
    """
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise DimensionError("from_dense expects a 2-D array")
    if dense.dtype != np.bool_:
        dense = dense.astype(np.uint8, copy=False)
    out = BitMatrix(*dense.shape)
    _kernel.active().pack(out, dense)
    return out


def trailing_bits_clean(a: Mat) -> bool:
    """True when every bit beyond ncols in each row's last word is zero."""
    if a.nrows == 0 or a.width == 0:
        return True
    spare = ~tail_mask(a.ncols)
    return not bool(np.any(a.words[:, -1] & spare))


def save(a: Mat, path) -> None:
    """Write the GF2M file format (magic, version, dims, packed rows).

    The bytes go to a new file beside the target, which then replaces the
    target in one rename, so a write that fails leaves an old file whole.
    """
    header = (_FILE_MAGIC + bytes([_FILE_VERSION])
              + a.nrows.to_bytes(8, "little") + a.ncols.to_bytes(8, "little"))
    body = a.words.astype("<u8")  # an owned copy, so the mask stays here
    if body.size:
        body[:, -1] &= tail_mask(a.ncols)
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(body.data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load(path) -> BitMatrix:
    """Read a GF2M file; rejects bad magic, version, size or dirty bits.

    The header and the file size are checked before the matrix is
    allocated, and the rows are read straight into its buffer.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_BYTES)
        size = os.fstat(fh.fileno()).st_size
        if len(raw) < _HEADER_BYTES:
            raise FormatError(f"truncated header at offset {len(raw)}")
        if raw[:4] != _FILE_MAGIC:
            raise FormatError("bad magic at offset 0")
        if raw[4] != _FILE_VERSION:
            raise FormatError(f"unsupported version {raw[4]} at offset 4")
        nrows = int.from_bytes(raw[5:13], "little")
        ncols = int.from_bytes(raw[13:21], "little")
        width = words_per_row(ncols)
        expect = _HEADER_BYTES + nrows * width * 8
        if size != expect:
            raise FormatError(
                f"file length {size} != expected {expect} at offset "
                f"{min(size, expect)}")
        out = BitMatrix(nrows, ncols)
        got = fh.readinto(out.data.view(np.uint8))
    if got != out.data.nbytes:
        raise FormatError(f"file shrank while read, at offset "
                          f"{_HEADER_BYTES + got}")
    if out.data.size:
        if sys.byteorder != "little":
            out.data.byteswap(inplace=True)
        spare = ~tail_mask(ncols)
        dirty = np.nonzero(out.words[:, -1] & spare)[0]
        if dirty.size:
            r = int(dirty[0])
            off = _HEADER_BYTES + (r * width + width - 1) * 8
            raise FormatError(
                f"dirty trailing bits in row {r} at offset {off}")
    return out
