"""Kernels behind one seam: compiled C, numpy or scalar loops.

A Python kernel is one function, `xor(x, y, out)`: out = x ^ y on word
rows or blocks. Every row XOR of the library goes through the kernel
active in the current context: the masked add behind matrix and row
additions (`add`, written once on `xor`), the Gray table walk
(graycode.make_table), the M4RM combine (m4rm._mul_into) and cubic's
accumulate into C. Three kernels exist, with bit-identical results and
identical operation counts:

c       adds whole products: the M4RM engine (table builds, stripe index
        reads, fused combine) and cubic (transpose of B, row loop) run in
        `_kernel.c`, one call per product; `xor` and `add` are numpy's.
numpy   `xor` is np.bitwise_xor.
scalar  `xor` is a plain per-word Python loop, for wide-vs-scalar
        comparisons.

`_kernel.c` is built as a CPython extension module the first time a
product needs it, with the system `cc` and the interpreter's headers
(`Python.h`, from sysconfig's include path). The binary is cached in
this package's `__pycache__/` and loaded with importlib. Its name holds
a key (a digest of the source, the flags with the include path, the
compiler's resolved path with its size and modification time, and the
interpreter's extension suffix), a digest of the binary, and that
suffix. So a stale or damaged file is rebuilt instead of loaded, and a
new build removes this interpreter's builds of any other key (and the
suffixless builds of the old ctypes binding). Loading a cached build
starts no process and imports neither subprocess nor tempfile; the
source and the binary are hashed in 8 KiB chunks. The module's `m4rm` and
`cubic` are METH_FASTCALL functions of plain integers that allocate the
product's scratch (M4RM's tables, cubic's B transposed) from the
interpreter's raw allocator, which tracemalloc traces, and release the
interpreter lock around the engine; its init function is the one symbol
the binary exports. On x86-64 the binary holds the M4RM engine once per
instruction set, and the module picks the widest one the CPU has when it
loads (`isa()` names it). Without a compiler, without the Python headers
or without a writable cache the default kernel is `numpy`; there is no
second binding.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import sysconfig
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
# The extension's name: its init function is PyInit_gf2mat_kernel.
_MODULE = "gf2mat_kernel"
# This interpreter's C header directory (it holds Python.h) and the file
# suffix of its extension modules. Read at import: sysconfig's data take
# about 130 KB that the first product would otherwise allocate.
_INCLUDE_DIR = sysconfig.get_paths()["include"]
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
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


class NumpyKernel:
    """Vectorised word-array XOR, and the masked add every kernel shares."""

    name = "numpy"
    compiled = False
    # out = x ^ y on word rows or (rows, width) blocks; out may alias x or
    # y. A ufunc is no descriptor, so this is np.bitwise_xor itself.
    xor = np.bitwise_xor

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
    """M4RM and cubic products whole in compiled C; `xor` and `add` as
    numpy.

    The products take matrices or windows (see core) and pass the kernel
    each one's recorded address and row stride. The extension's entries
    release the interpreter lock for the engine, so products on distinct
    outputs run in parallel threads.
    """

    name = "c"
    compiled = True

    def __init__(self, mod):
        self._mod = mod
        self.isa = mod.isa

    def m4rm(self, c, a, b, l: int, n: int, k: int, b_s: int, t: int,
             t_stride: int) -> None:
        """c += a @ b (a: m x l, b: l x n entries, none of them 0) with
        stripes of k <= l columns, row blocks of b_s and t tables whose
        rows are t_stride words apart; the extension allocates the
        min(t, stripes) tables of 2^k rows for the call. m4rm._mul_into
        calls this with the k and stride of the plan m4rm._table_layout
        made; k, t and b_s were checked, and the plan's tables passed the
        budget, once at the public entry. The one check kept here is
        independent of those: operands that do not cover these words, or
        table rows closer than a row of b, raise before anything is
        allocated or written, since the engine would otherwise read or
        write out of bounds."""
        m, wl, wn = c.nrows, (l + 63) // 64, (n + 63) // 64
        if (c.width < wn or a.nrows < m or a.width < wl or b.nrows < l
                or b.width < wn or t_stride < wn):
            raise _short_operands(m, l, n, f", table rows {t_stride} apart",
                                  c=c, a=a, b=b)
        self._mod.m4rm(c.addr, c.stride, a.addr, a.stride, b.addr,
                       b.stride, m, l, n, k, b_s, t, t_stride)

    def cubic(self, c, a, b, l: int, n: int) -> None:
        """c += a @ b (a: m x l, b: l x n entries); c may be a window, and
        its bits beyond column n are kept. The extension allocates the
        scratch for b transposed for the call. Operands that do not cover
        these words raise before anything is allocated or written."""
        m, wl, wn = c.nrows, (l + 63) // 64, (n + 63) // 64
        if (c.width < wn or a.nrows < m or a.width < wl or b.nrows < l
                or b.width < wn):
            raise _short_operands(m, l, n, "", c=c, a=a, b=b)
        self._mod.cubic(c.addr, c.stride, a.addr, a.stride, b.addr,
                        b.stride, m, l, n)


def _short_operands(m: int, l: int, n: int, more: str,
                    **operands) -> DimensionError:
    """The error for kernel operands too small for an m x l x n product;
    `more` is appended to their sizes."""
    sizes = ", ".join(f"{name} {mat.nrows}x{mat.width}"
                      for name, mat in operands.items())
    return DimensionError(
        f"kernel operands ({sizes} words{more}) do not cover a {m}x{l}x{n} "
        f"product")


def _compiler() -> str | None:
    """Path of the system C compiler, or None when there is none."""
    return shutil.which("cc")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _file_digest(path: Path) -> str:
    """`_digest` of a file's bytes, read in chunks of 8 KiB into one
    buffer (unbuffered), so hashing a binary of any size allocates no
    more than that."""
    sha = hashlib.sha256()
    chunk = bytearray(8192)
    view = memoryview(chunk)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            sha.update(view[:size])
    return sha.hexdigest()[:16]


def _compiler_id(cc: str) -> bytes:
    """The compiler as the cache key sees it: its resolved path, size and
    modification time. Another compiler, or the same path reinstalled,
    gives other bytes, and no process is spawned to read them."""
    path = os.path.realpath(cc)
    st = os.stat(path)
    return f"{path}\0{st.st_size}\0{st.st_mtime_ns}".encode()


def _flags(include: str) -> list[str]:
    return [*_CFLAGS, f"-I{include}"]


def _key(source: bytes, include: str, version: bytes, suffix: str) -> str:
    """Cache key of a build: the source (load_library passes its digest),
    the flags with the include path, the compiler's identity (`version`,
    from _compiler_id) and the interpreter's extension suffix."""
    return _digest(b"\0".join((source, " ".join(_flags(include)).encode(),
                                version, suffix.encode())))


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
