"""Kernels behind one seam: compiled C, numpy or scalar loops.

A Python kernel is one function, `xor(x, y, out)`: out = x ^ y on word
rows or blocks. Every row XOR of the library goes through the kernel
active in the current context: the masked add behind matrix and row
additions (`add`, written once on `xor`), the Gray table walk
(graycode.make_table), the M4RM combine (m4rm._mul_into) and cubic's
accumulate into C. Three kernels exist, with bit-identical results and
identical operation counts:

c       adds whole products: the M4RM engine (table builds, stripe index
        reads, fused combine), directly or on transposed windows, and
        cubic (transpose of B, row loop) run in `_kernel.c`, one call
        per product, as does `transpose`; `xor` and `add` are numpy's.
numpy   `xor` is np.bitwise_xor; `transpose` is transpose_words, the
        kernel's rounds on every block at once.
scalar  `xor` is a plain per-word Python loop, for wide-vs-scalar
        comparisons.

`_kernel.c` is built as a CPython extension module the first time a
product needs it, with the system `cc`, the interpreter's headers
(`Python.h`, from sysconfig's include path) and numpy's. The binary is
cached in this package's `__pycache__/` and loaded with importlib. Its
name holds a key (a digest of the source, the flags with the include
paths, the compiler's resolved path with its size and modification time,
the interpreter's extension suffix and numpy's version), a digest of the
binary, and that suffix. So a stale or damaged file is rebuilt instead
of loaded, and a new build removes this interpreter's builds of any
other key (and the suffixless builds of the old ctypes binding). Each
digest is a 64-bit BLAKE2b, 16 hex digits, from the interpreter's own
`_blake2` module: `hashlib` would load OpenSSL's `_hashlib` in every
process (about 3.5 ms of a 4 ms import) for these two digests. Loading a
cached build starts no process and imports neither subprocess nor
tempfile; the source and the binary are hashed in 8 KiB chunks. The
module's `m4rm`, `m4rm_t` and `cubic` are METH_FASTCALL functions of
the operand matrices, whose arrays they read through numpy's C API, and
plain integers (see CKernel) that allocate the product's scratch (M4RM's
tables, and on the transpose C^T and the windows of A and B; cubic's B
transposed) from the interpreter's raw allocator, which tracemalloc
traces, and release the interpreter lock around the engine; its
`transpose` writes a matrix's transpose, packed to packed
(core.transpose), and its `pack` fills a matrix's words from a dense
bool/uint8 array in one read of it (core.from_dense). Its init function
is the one symbol the binary exports. On x86-64 the binary holds the
M4RM engine and the transpose once per instruction set, and the module
picks the widest copies the CPU has when it loads (`isa()` names them);
M4RM on the transpose is one portable driver over those copies.
Without a compiler, without the Python headers or without a writable
cache the default kernel is `numpy`; there is no second binding.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib.machinery
import importlib.util
import os
import shutil
import sysconfig
import threading
from _blake2 import blake2b
from pathlib import Path

import numpy as np

from .errors import ParameterError

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
# Plain -O3: no -march, so a cached binary never meets an unknown opcode;
# wider instruction sets are reached through per-function target
# attributes in the source, chosen at run time.
_CFLAGS = ("-O3", "-std=c99", "-fPIC", "-shared")
# The extension's name: its init function is PyInit_gf2mat_kernel.
_MODULE = "gf2mat_kernel"
# This interpreter's C header directory (it holds Python.h) and the file
# suffix of its extension modules. Read at import: sysconfig's data take
# about 130 KB that the first product would otherwise allocate.
_INCLUDE_DIR = sysconfig.get_paths()["include"]
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
# numpy's C header directory: the extension reads its operands' arrays
# through numpy's C API.
_NUMPY_INCLUDE_DIR = np.get_include()
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
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
# The shift of each of the six rounds of the 64x64 bit transpose, and its
# low-half mask: `_kernel.c`'s lo[].
TRANSPOSE_ROUNDS = (
    (32, np.uint64(0x00000000FFFFFFFF)),
    (16, np.uint64(0x0000FFFF0000FFFF)),
    (8, np.uint64(0x00FF00FF00FF00FF)),
    (4, np.uint64(0x0F0F0F0F0F0F0F0F)),
    (2, np.uint64(0x3333333333333333)),
    (1, np.uint64(0x5555555555555555)),
)


def transpose_words(words: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows x cols entries of `words` transposed, as `_kernel.c`'s
    transpose makes them: entry (i, j) at bit 63 - j % 64 of
    words[i, j // 64] lands in a (cols, ceil(rows / 64)) word array whose
    bits beyond column `rows` are clear; entries past column cols are not
    read. Every 64x64 block at once, in the kernel's six rounds: each
    swaps the off-diagonal blocks of every 2sh x 2sh diagonal block."""
    wr, wc = -(-rows // 64), -(-cols // 64)
    padded = np.zeros((wr * 64, wc), np.uint64)
    padded[:rows] = words[:rows, :wc]
    # Block (i, j) of 64 rows of word j, as v[i, j].
    v = padded.reshape(wr, 64, wc).transpose(0, 2, 1).copy()
    for sh, lo in TRANSPOSE_ROUNDS:
        pairs = v.reshape(wr, wc, 32 // sh, 2, sh)
        top, bottom = pairs[:, :, :, 0], pairs[:, :, :, 1]
        x = (top ^ (bottom >> np.uint64(sh))) & lo
        top ^= x
        bottom ^= x << np.uint64(sh)
    return v.transpose(1, 2, 0).reshape(wc * 64, wr)[:cols]


class NumpyKernel:
    """Vectorised word-array XOR, and the masked add, the transpose and
    the packer every Python kernel shares."""

    name = "numpy"
    compiled = False
    # out = x ^ y on word rows or (rows, width) blocks; out may alias x or
    # y. A ufunc is no descriptor, so this is np.bitwise_xor itself.
    xor = np.bitwise_xor

    @staticmethod
    def pack(out, dense: np.ndarray) -> None:
        """out's words = dense's entries, trailing bits zero: a uint8
        byte's low bit, a bool's truth (any nonzero byte); out is a matrix
        of dense's shape, dense a bool or uint8 array (core.from_dense
        checks both).

        Bool input, and uint8 input whose maximum is at most 1, are packed
        from their own memory, whatever their strides. Other values are
        masked with `& 1` first, a copy the size of dense. The packed rows
        go into out in one byte-swapping copy, the partial last word of
        each row through an 8-byte row buffer."""
        if dense.dtype != np.bool_ and dense.size and dense.max() > 1:
            dense = dense & 1
        nrows, ncols = dense.shape
        if nrows == 0 or ncols == 0:
            return
        # ceil(ncols / 8) bytes a row; packbits keeps an F-ordered input's
        # order, and the word view needs contiguous rows.
        packed = np.ascontiguousarray(np.packbits(dense, axis=1))
        full = ncols // 64
        out.words[:, :full] = packed[:, :8 * full].view(">u8")
        if full < out.width:
            last = np.zeros((nrows, 8), dtype=np.uint8)
            last[:, :packed.shape[1] - 8 * full] = packed[:, 8 * full:]
            out.words[:, full] = last.view(">u8")[:, 0]

    @staticmethod
    def transpose(out, a, m: int, n: int) -> None:
        """out's words = the m x n entries of a transposed, bits beyond
        column m clear (transpose_words); out is a matrix of n rows."""
        if m and n:
            out.words[:] = transpose_words(a.words, m, n)

    def add(self, out: np.ndarray, x: np.ndarray, y: np.ndarray,
            tail: np.uint64) -> None:
        """out = x ^ y on (rows, width) word arrays; bits of out's last
        column outside `tail` are kept. out may alias x or y."""
        if tail == _FULL:
            self.xor(x, y, out)
            return
        kept = out[:, -1] & ~tail
        self.xor(x, y, out)
        out[:, -1] = (out[:, -1] & tail) | kept


class ScalarKernel(NumpyKernel):
    """`xor` as a plain per-word Python loop (benchmark switch); rows of a
    2-D block one by one, so operands are never reshaped."""

    name = "scalar"

    @staticmethod
    def xor(x, y, out) -> None:
        if out.ndim == 2:
            for u, v, row in zip(x, y, out):
                ScalarKernel.xor(u, v, row)
            return
        for i in range(len(out)):
            out[i] = x[i] ^ y[i]


class CKernel(NumpyKernel):
    """M4RM and cubic products whole in compiled C, the transpose and the
    packer; `xor` and `add` as numpy.

    `m4rm`, `m4rm_t`, `cubic`, `transpose` and `pack` are the extension's
    entries themselves, so a product crosses into C in one call with no
    Python frame between:

    m4rm(c, a, b, l, n, k, b_s, t, t_stride): c += a @ b (a: m x l, b:
        l x n entries, none of them 0, m the rows of c) with stripes of
        k <= l columns, row blocks of b_s and t tables whose rows are
        t_stride words apart; the extension allocates the min(t, stripes)
        tables of 2^k rows for the call. m4rm._mul_into passes the k and
        stride of the plan m4rm._table_layout made; k, t and b_s were
        checked, and the plan's tables passed the budget, once at the
        public entry.
    m4rm_t(c, a, b, l, n, k, b_s, t, t_stride): the same product as
        c^T += b^T a^T, for a transposed plan: m4rm's engine run on
        windows of a's columns and b's rows, transposed, so its row
        blocks are of c^T's n rows and its tables of a's columns;
        t * k <= 64. It also allocates c^T and the windows of a and b
        (plan.scratch_words in all).
    cubic(c, a, b, l, n): c += a @ b; the extension allocates b
        transposed for the call.
    transpose(out, a, m, n): out's words = a's m x n entries transposed,
        bits beyond column m clear; out has n rows.
    pack(out, dense): as NumpyKernel.pack, in one read of dense and with
        no copy of it: 8 consecutive bytes at a time by a multiply
        gather, byte by byte where a row's bytes are not consecutive.

    The operands are matrices or windows (see core); the extension reads
    each one's `words` through numpy's C API. c may be a window,
    and its bits beyond column n are kept. The entries' checks are
    independent of the callers', since the engines would otherwise divide
    by zero or read or write out of bounds: M4RM's k outside 1..min(l,
    16), t outside 1..8, b_s under 1 or, on the transpose, t * k over 64
    raise ParameterError; operands that do not cover these words, or
    table rows closer than a row of b (of c^T on the transpose), raise
    DimensionError; a dense of the wrong type, rank or shape for `out`
    raises ParameterError or DimensionError. All of them raise before
    anything is allocated or written. The entries release the interpreter
    lock for the engine, so products on distinct outputs run in parallel
    threads.
    """

    name = "c"
    compiled = True

    def __init__(self, mod):
        self._mod = mod
        self.isa = mod.isa
        self.m4rm = mod.m4rm
        self.m4rm_t = mod.m4rm_t
        self.cubic = mod.cubic
        self.pack = mod.pack
        self.transpose = mod.transpose


def _compiler() -> str | None:
    """Path of the system C compiler, or None when there is none."""
    return shutil.which("cc")


def _digest(data: bytes) -> str:
    """64-bit BLAKE2b of data as 16 hex digits."""
    return blake2b(data, digest_size=8).hexdigest()


def _file_digest(path: Path) -> str:
    """`_digest` of a file's bytes, read in chunks of 8 KiB into one
    buffer (unbuffered), so hashing a binary of any size allocates no
    more than that."""
    h = blake2b(digest_size=8)
    chunk = bytearray(8192)
    view = memoryview(chunk)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            h.update(view[:size])
    return h.hexdigest()


def _compiler_id(cc: str) -> bytes:
    """The compiler as the cache key sees it: its resolved path, size and
    modification time. Another compiler, or the same path reinstalled,
    gives other bytes, and no process is spawned to read them."""
    path = os.path.realpath(cc)
    st = os.stat(path)
    return f"{path}\0{st.st_size}\0{st.st_mtime_ns}".encode()


def _flags(include: str) -> list[str]:
    return [*_CFLAGS, f"-I{include}", f"-I{_NUMPY_INCLUDE_DIR}"]


def _key(source: bytes, include: str, version: bytes, suffix: str) -> str:
    """Cache key of a build: the source (load_library passes its digest),
    the flags with the include paths, the compiler's identity (`version`,
    from _compiler_id), the interpreter's extension suffix and the
    version of the numpy whose headers the build compiles against."""
    return _digest(b"\0".join((source, " ".join(_flags(include)).encode(),
                                version, suffix.encode(),
                                np.__version__.encode())))


def _load(path: Path):
    """The extension module built at `path`, imported without entering
    sys.modules, so builds of several sources may be loaded at once."""
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(path))
    spec = importlib.util.spec_from_loader(_MODULE, loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod


def _build(cc: str, source: bytes, cache_dir: Path, key: str) -> Path:
    """Compile `source` as an extension module for this interpreter and
    move the binary into place in one step, so a concurrent reader never
    sees a partial file. Then remove this interpreter's builds of other
    keys, which no later load picks, and builds of the ctypes binding the
    extension replaced, which had no interpreter suffix; builds of this
    key stay, since a concurrent first build may be loading one."""
    import subprocess  # only a build starts a process
    import tempfile
    cache_dir.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{_MODULE}-{key}-", suffix=".tmp",
                               dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run([cc, *_flags(_INCLUDE_DIR), "-o", tmp, "-x", "c",
                        "-"], input=source, capture_output=True, check=True,
                       timeout=_COMPILE_TIMEOUT_S)
        digest = _file_digest(Path(tmp))
        path = cache_dir / f"{_MODULE}-{key}-{digest}{_EXT_SUFFIX}"
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:  # failed or timed out
        raise OSError(f"{cc} did not build {_MODULE}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    hex16 = "[0-9a-f]" * 16
    for stale in [*cache_dir.glob(f"{_MODULE}-*{_EXT_SUFFIX}"),
                  *cache_dir.glob(f"{_MODULE}-{hex16}-{hex16}.so")]:
        if not stale.name.startswith(f"{_MODULE}-{key}-"):
            with contextlib.suppress(OSError):
                stale.unlink()
    return path


def load_library(cache_dir: Path = _CACHE_DIR):
    """The compiled kernel module from `cache_dir`, built there first
    unless an intact copy for this source, these flags, this compiler and
    this interpreter exists. None when there is no compiler, no Python.h,
    the build fails or nothing can be written. Loading a cached build
    starts no process."""
    cc, include, suffix = _compiler(), _INCLUDE_DIR, _EXT_SUFFIX
    if cc is None or not Path(include, "Python.h").is_file():
        return None
    try:
        key = _key(_file_digest(_SOURCE).encode(), include,
                   _compiler_id(cc), suffix)
        prefix = f"{_MODULE}-{key}-"
        for path in cache_dir.glob(f"{prefix}*{suffix}"):
            if path.name[len(prefix):-len(suffix)] == _file_digest(path):
                return _load(path)
            path.unlink()  # truncated or overwritten
        return _load(_build(cc, _SOURCE.read_bytes(), cache_dir, key))
    except (ImportError, OSError):
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
            mod = load_library()
            _c_kernel = CKernel(mod) if mod is not None else None
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
    """The kernel for the current context. Once the C kernel is loaded
    it is read without calling _compiled, a frame less per product."""
    return (_selected.get() or (_c_kernel if _c_loaded else _compiled())
            or _NUMPY)


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
