"""Row-combine kernels behind one seam: compiled C, numpy or scalar loops.

Every row XOR of the library goes through the kernel active in the
current context: matrix and row additions (`add`), Gray table fills
(`gray_fill`) and the M4RM combine C[r] ^= T0[i0] ^ ... ^ T{t-1}[i{t-1}]
(`combine`). Three kernels exist, with bit-identical results and identical
operation counts:

c       the whole M4RM engine (table builds, stripe index reads, fused
        combine) and cubic (transpose of B, row loop) run in `_kernel.c`,
        one call per product; additions use the numpy code.
numpy   vectorised word-array XOR.
scalar  plain per-word Python loops, for wide-vs-scalar comparisons.

`_kernel.c` is compiled with the system `cc` the first time a product
needs it and cached in this package's `__pycache__/`, under a name keyed
by the source, the flags and `cc --version` and suffixed with a digest of
the binary, so a stale or damaged file is rebuilt instead of loaded.
On x86-64 the binary holds the M4RM engine once per instruction set and
each product runs on the widest one the CPU has (`isa()` names it).
Without a compiler or a writable cache the default kernel is `numpy`.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from .errors import DimensionError, ParameterError

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
# Plain -O3: no -march, so a cached binary never meets an unknown opcode;
# wider instruction sets are reached through per-function target
# attributes in the source, chosen at run time.
_CFLAGS = ("-O3", "-std=c99", "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 120
# Hard limits of `_kernel.c`: `read_bits` reads at most 16 entries (the
# Gray width k) and `m4rm` keeps at most MAX_TABLES (8) tables.
MAX_K = 16
MAX_T = 8
# Table scratch one M4RM product may allocate. The fitted parameters keep
# a product's tables within half of a 2 MiB L2, and k=16 with t=8 fits
# rows of up to 1024 columns here; a product that asks for more (k=16,
# t=8 at 4096 columns would take 256 MiB) is a parameter mistake, and is
# refused before anything is allocated rather than left to exhaust memory.
MAX_TABLE_BYTES = 64 << 20


class NumpyKernel:
    """Vectorised word-array XOR; the reference for the other kernels."""

    name = "numpy"
    compiled = False

    def add(self, out: np.ndarray, x: np.ndarray, y: np.ndarray,
            tail: np.uint64) -> None:
        """out = x ^ y on (rows, width) word arrays; bits of out's last
        column outside `tail` are kept. out may alias x or y."""
        if tail == np.uint64(0xFFFFFFFFFFFFFFFF):
            np.bitwise_xor(x, y, out=out)
            return
        np.bitwise_xor(x[:, :-1], y[:, :-1], out=out[:, :-1])
        last = (x[:, -1] ^ y[:, -1]) & tail
        out[:, -1] = (out[:, -1] & ~tail) | last

    def gray_fill(self, table: np.ndarray, src: np.ndarray,
                  steps) -> None:
        """table[0] = 0, then table[slot] = previous slot ^ src[row] for
        each (slot, row) Gray step."""
        table[0] = 0
        rows = list(table)
        src_rows = list(src)
        prev = rows[0]
        for slot, row in steps:
            np.bitwise_xor(prev, src_rows[row], out=rows[slot])
            prev = rows[slot]

    def combine(self, dst: np.ndarray, tables, ids,
                acc: np.ndarray) -> None:
        """dst[r] ^= tables[0][ids[0][r]] ^ ... for every row r of dst;
        acc is scratch of at least dst's shape."""
        if len(tables) == 1:
            dst ^= tables[0][ids[0]]
            return
        a0 = acc[:len(dst)]
        np.take(tables[0], ids[0], axis=0, out=a0)
        for table, idx in zip(tables[1:], ids[1:]):
            a0 ^= table[idx]
        dst ^= a0


class ScalarKernel(NumpyKernel):
    """Plain per-word Python loops (benchmark switch)."""

    name = "scalar"

    def add(self, out, x, y, tail) -> None:
        for r in range(out.shape[0]):
            dst, u, v = out[r], x[r], y[r]
            for i in range(out.shape[1] - 1):
                dst[i] = u[i] ^ v[i]
            dst[-1] = (dst[-1] & ~tail) | ((u[-1] ^ v[-1]) & tail)

    def gray_fill(self, table, src, steps) -> None:
        table[0] = 0
        prev = 0
        for slot, row in steps:
            for i in range(table.shape[1]):
                table[slot, i] = table[prev, i] ^ src[row, i]
            prev = slot

    def combine(self, dst, tables, ids, acc) -> None:
        for r in range(len(dst)):
            row = tables[0][ids[0][r]].copy()
            for table, idx in zip(tables[1:], ids[1:]):
                row ^= table[idx[r]]
            for i in range(dst.shape[1]):
                dst[r, i] = dst[r, i] ^ row[i]


class CKernel(NumpyKernel):
    """M4RM and cubic products whole in compiled C; additions as numpy.

    The products take matrices or windows (see core) and pass the kernel
    each one's recorded address and row stride. ctypes releases the
    interpreter lock for each call, so products on distinct outputs run
    in parallel threads.
    """

    name = "c"
    compiled = True

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self.isa = lib.gf2mat_isa().decode()

    def m4rm(self, c, a, b, l: int, n: int, k: int, b_s: int, t: int,
             tail: int, tables) -> None:
        """c += a @ b (a: m x l, b: l x n entries) with stripes of k <= l
        columns, row blocks of b_s and t tables; `tables` is scratch for
        min(t, stripes) tables of 2^k rows of ceil(n / 64) words, rows of
        the operand's stride apart; `tail` masks b's last word. Operands
        that do not cover these words raise before anything is written."""
        m, wl, wn = c.nrows, (l + 63) // 64, (n + 63) // 64
        if not (1 <= k <= min(l, MAX_K) and 1 <= t <= MAX_T
                and b_s >= 1 and m >= 1 and wn >= 1):
            raise ParameterError(
                f"kernel parameters k={k} t={t} b_s={b_s} for {m}x{l}x{n}")
        if (c.width < wn or a.nrows < m or a.width < wl or b.nrows < l
                or b.width < wn or tables.width < wn
                or tables.nrows < min(t, -(-l // k)) << k):
            raise _short_operands(m, l, n, c=c, a=a, b=b, tables=tables)
        self._lib.gf2mat_m4rm(c.addr, c.stride, a.addr, a.stride, b.addr,
                              b.stride, m, l, n, k, b_s, t, tail,
                              tables.addr, tables.stride)

    def cubic(self, c, a, b, l: int, n: int, bt) -> None:
        """c += a @ b (a: m x l, b: l x n entries); c may be a window, and
        its bits beyond column n are kept. `bt` is scratch for b
        transposed, n rows of ceil(l / 64) words. Operands that do not
        cover these words raise before anything is written."""
        m, wl, wn = c.nrows, (l + 63) // 64, (n + 63) // 64
        if (c.width < wn or a.nrows < m or a.width < wl or b.nrows < l
                or b.width < wn or bt.nrows < n or bt.width < wl):
            raise _short_operands(m, l, n, c=c, a=a, b=b, bt=bt)
        self._lib.gf2mat_cubic(c.addr, c.stride, a.addr, a.stride, b.addr,
                               b.stride, m, l, n, bt.addr)


def _short_operands(m: int, l: int, n: int, **operands) -> DimensionError:
    """The error for kernel operands too small for an m x l x n product."""
    sizes = ", ".join(f"{name} {mat.nrows}x{mat.width}"
                      for name, mat in operands.items())
    return DimensionError(
        f"kernel operands ({sizes} words) do not cover a {m}x{l}x{n} "
        f"product")


def _compiler() -> str | None:
    """Path of the system C compiler, or None when there is none."""
    return shutil.which("cc")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _bind(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    i64, ptr, u64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_uint64
    lib.gf2mat_m4rm.argtypes = (ptr, i64, ptr, i64, ptr, i64, i64, i64, i64,
                                ctypes.c_int, i64, ctypes.c_int, u64, ptr,
                                i64)
    lib.gf2mat_m4rm.restype = None
    lib.gf2mat_cubic.argtypes = (ptr, i64, ptr, i64, ptr, i64, i64, i64,
                                 i64, ptr)
    lib.gf2mat_cubic.restype = None
    lib.gf2mat_isa.argtypes = ()
    lib.gf2mat_isa.restype = ctypes.c_char_p
    return lib


def _build(cc: str, source: bytes, cache_dir: Path, key: str) -> Path:
    """Compile `source` and move the binary into place in one step, so a
    concurrent reader never sees a partial file."""
    cache_dir.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"gf2mat_kernel-{key}-",
                               suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run([cc, *_CFLAGS, "-o", tmp, "-x", "c", "-"],
                       input=source, capture_output=True, check=True,
                       timeout=_COMPILE_TIMEOUT_S)
        path = cache_dir / f"gf2mat_kernel-{key}-" \
                           f"{_digest(Path(tmp).read_bytes())}.so"
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return path


def load_library(cache_dir: Path = _CACHE_DIR) -> ctypes.CDLL | None:
    """The compiled kernel from `cache_dir`, built there first unless an
    intact copy for this source, these flags and this compiler exists.
    None when there is no compiler, the build fails or nothing can be
    written."""
    cc = _compiler()
    if cc is None:
        return None
    try:
        source = _SOURCE.read_bytes()
        version = subprocess.run([cc, "--version"], capture_output=True,
                                 check=True,
                                 timeout=_COMPILE_TIMEOUT_S).stdout
        key = _digest(source + " ".join(_CFLAGS).encode() + version)
        for path in cache_dir.glob(f"gf2mat_kernel-{key}-*.so"):
            if path.stem.rsplit("-", 1)[1] == _digest(path.read_bytes()):
                return _bind(path)
            path.unlink()  # truncated or overwritten
        return _bind(_build(cc, source, cache_dir, key))
    except (OSError, subprocess.SubprocessError):
        return None


_NUMPY = NumpyKernel()
_SCALAR = ScalarKernel()
_c_kernel: CKernel | None = None
_c_loaded = False
_load_lock = threading.Lock()


def _compiled() -> CKernel | None:
    """The C kernel, loaded (or built) once per process on first use."""
    global _c_kernel, _c_loaded
    if _c_loaded:
        return _c_kernel
    with _load_lock:
        if not _c_loaded:
            lib = load_library()
            _c_kernel = CKernel(lib) if lib is not None else None
            _c_loaded = True
    return _c_kernel


def available() -> tuple[str, ...]:
    """Names of the kernels this process can run, fastest first."""
    return ("c", "numpy", "scalar") if _compiled() else ("numpy", "scalar")


def get(name: str) -> NumpyKernel:
    if name == "c" and _compiled() is not None:
        return _c_kernel
    if name == "numpy":
        return _NUMPY
    if name == "scalar":
        return _SCALAR
    raise ParameterError(
        f"kernel {name!r} unavailable; have {', '.join(available())}")


# None selects the default: the C kernel when present, else numpy.
_selected: contextvars.ContextVar[NumpyKernel | None] = \
    contextvars.ContextVar("gf2mat_kernel", default=None)


def active() -> NumpyKernel:
    """The kernel for the current context."""
    kernel = _selected.get()
    if kernel is None:
        kernel = _compiled() or _NUMPY
    return kernel


def select(name: str | None) -> None:
    """Use kernel `name` in the current context; None restores the default."""
    _selected.set(None if name is None else get(name))


@contextlib.contextmanager
def using(name: str | None):
    """Run the enclosed block on kernel `name` (None: the default)."""
    token = _selected.set(None if name is None else get(name))
    try:
        yield
    finally:
        _selected.reset(token)


def backend() -> str:
    """Name of the kernel products use here: "c", "numpy" or "scalar"."""
    return active().name


def isa() -> str | None:
    """Instruction set of the compiled M4RM engine on this CPU: "avx512f",
    "avx2" or "default"; None without the C kernel."""
    kernel = _compiled()
    return kernel.isa if kernel else None
