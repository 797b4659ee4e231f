"""Every kernel backend against the naive oracle, plus the compiled
kernel's build cache, its fallback and concurrent use."""

import contextlib
import ctypes
import gc
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nested_windows
import gf2mat
from gf2mat import _kernel, cli, core
from gf2mat import _reference as ref
from gf2mat.counters import Counters, counters
from gf2mat.cubic import mul_cubic
from gf2mat.errors import DimensionError, GF2MatError, ParameterError
from gf2mat.m4rm import (_table_layout, mul_m4rm, mul_m4rm_into,
                         mul_m4rm_multitable)
from gf2mat.strassen import (MulParams, _base_mul_into, _base_route,
                             mul_strassen, peel_fixup)

BACKENDS = _kernel.available()
SRC = Path(gf2mat.__file__).resolve().parent.parent


@pytest.fixture(params=BACKENDS)
def backend(request):
    with _kernel.using(request.param):
        yield request.param


def dirty_window(nrows, ncols, seed):
    """Window at (2, 64) of a random parent whose bits around the window,
    beyond its right edge included, are live."""
    parent = core.random(nrows + 4, 64 + ncols + 70, seed)
    return core.window(parent, 2, 64, nrows, ncols)


def expect_added(c, before, product):
    """c's parent equals `before` with `product` XORed into c's region."""
    expected = before.copy()
    expected[c.row_offset:c.row_offset + c.nrows,
             c.col_offset:c.col_offset + c.ncols] ^= product
    assert np.array_equal(core.to_dense(c.parent), expected)


# (m, l, n, k, t, b_s): k = 1..16 with t = 1..8, l not a multiple of k and
# b_s not dividing m; k >= 12 on narrow n; then l < k, aligned widths,
# table rows padded from 10 words to 16, and zero dimensions.
M4RM_CASES = [
    *[(45, 3 * k + 2, 130 if k < 12 else 40, k, (k - 1) % 8 + 1, 7 + k)
      for k in range(1, 17)],
    (30, 5, 70, 8, 2, 30),
    (30, 10, 70, 16, 8, 4),
    (64, 200, 128, 6, 8, 64),
    (30, 40, 600, 5, 3, 17),
    (0, 20, 70, 4, 2, 8),
    (20, 0, 70, 4, 2, 8),
    (20, 20, 0, 4, 2, 8),
]


@pytest.mark.parametrize("m,l,n,k,t,b_s", M4RM_CASES)
def test_m4rm_windows(backend, m, l, n, k, t, b_s):
    a = dirty_window(m, l, seed=1)
    b = dirty_window(l, n, seed=2)
    c = dirty_window(m, n, seed=3)
    before = core.to_dense(c.parent)
    mul_m4rm_into(c, a, b, k, b_s, t)
    expect_added(c, before, ref.naive_product(a, b))


@pytest.mark.parametrize("m,l,n", [
    (37, 130, 20), (37, 130, 64), (37, 130, 150), (1, 1, 1), (64, 64, 128),
    (0, 5, 5), (5, 0, 5), (5, 5, 0),
])
def test_cubic_windows(backend, m, l, n):
    a = dirty_window(m, l, seed=4)
    b = dirty_window(l, n, seed=5)
    expected = ref.naive_product(a, b)
    c = mul_cubic(a, b)
    assert ref.first_mismatch(c, expected) is None
    assert core.trailing_bits_clean(c)
    # Into a window, cubic adds as M4RM does: bits around it are kept.
    c = dirty_window(m, n, seed=17)
    before = core.to_dense(c.parent)
    assert mul_cubic(a, b, c) is c
    expect_added(c, before, expected)
    # A target of the wrong shape is refused before anything is written.
    wrong = dirty_window(m, n + 1, seed=18)
    before = wrong.parent.words.copy()
    with pytest.raises(DimensionError):
        mul_cubic(a, b, wrong)
    assert np.array_equal(wrong.parent.words, before)


@pytest.mark.parametrize("m,l,n", [
    (130, 260, 200), (256, 256, 256), (129, 200, 70), (200, 150, 60),
    (0, 10, 10),
])
def test_strassen_windows(backend, m, l, n):
    a = dirty_window(m, l, seed=6)
    b = dirty_window(l, n, seed=7)
    c = mul_strassen(a, b, MulParams(cutoff=64))
    assert ref.first_mismatch(c, ref.naive_product(a, b)) is None
    assert core.trailing_bits_clean(c)


@pytest.mark.parametrize("accumulate", [False, True])
@pytest.mark.parametrize("n", [130, 30])
def test_base_case_writes_into_window(backend, n, accumulate):
    a = dirty_window(40, 100, seed=8)
    b = dirty_window(100, n, seed=9)
    c = dirty_window(40, n, seed=10)
    before = core.to_dense(c.parent)
    params = MulParams(cutoff=64, k=5)
    plan = _base_route(40, 100, n, params, _kernel.MAX_TABLE_BYTES)
    _base_mul_into(c, a, b, plan, accumulate)
    if not accumulate:
        before[2:42, 64:64 + n] = 0
    expect_added(c, before, ref.naive_product(a, b))


@st.composite
def transposed_products(draw, most=200):
    """(m, l, n, k, t, b_s) of a product the transposed engine runs: m, l
    and n ragged in 1..most, k in 1..8 and t with t * k <= 64, dividing
    64 or not; l over several windows of 256 columns included, so groups
    cross a window's edge; b_s under n included."""
    k = draw(st.integers(1, 8))
    t = draw(st.integers(1, min(8, 64 // k)))
    l = draw(st.one_of(st.integers(1, most), st.integers(250, 600)))
    m = draw(st.integers(1, most))
    n = draw(st.integers(1, most // 2))
    return m, l, n, k, t, draw(st.one_of(st.just(8192),
                                         st.integers(1, max(1, n))))


@settings(max_examples=60, deadline=None)
@given(transposed_products(), st.booleans(), st.integers(0, 2 ** 16))
def test_transposed_products_match_the_oracle(product, accumulate, seed):
    """A transposed plan gives the oracle's product on every backend, into
    a window whose parent's bits around it, beyond its right edge
    included, are kept, as dst = a @ b or dst += a @ b; every backend
    books the same counter deltas, the scratch words the plan states."""
    m, l, n, k, t, b_s = product
    a = dirty_window(m, l, seed)
    b = dirty_window(l, n, seed + 1)
    plan = _table_layout(m, l, n, k, b_s, t, transposed=True)
    expected = ref.naive_product(a, b)
    names = [f.name for f in fields(counters)]
    deltas = {}
    for name in BACKENDS:
        c = dirty_window(m, n, seed + 2)
        before = core.to_dense(c.parent)
        if not accumulate:
            before[2:2 + m, 64:64 + n] = 0
        start = {f: getattr(counters, f) for f in names}
        with _kernel.using(name):
            _base_mul_into(c, a, b, plan, accumulate)
        deltas[name] = {f: getattr(counters, f) - start[f] for f in names}
        expect_added(c, before, expected)
    assert all(d == deltas["numpy"] for d in deltas.values()), deltas
    assert deltas["numpy"]["words_allocated"] == plan.scratch_words
    assert (deltas["numpy"]["table_adds"], deltas["numpy"]["row_adds"],
            deltas["numpy"]["c_writes"]) == (plan.table_adds, plan.row_adds,
                                             plan.c_writes)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(BACKENDS))
def test_transpose_matches_dense(data, name):
    """core.transpose on every backend: a matrix or a window with live
    bits around it, empty dimensions included, gives to_dense(a).T with
    clean trailing bits, and transposing back gives a."""
    _, a, _, _ = data.draw(nested_windows())
    with _kernel.using(name):
        at = core.transpose(a)
        back = core.transpose(at)
    assert at.shape == (a.ncols, a.nrows)
    assert np.array_equal(core.to_dense(at), core.to_dense(a).T)
    assert core.trailing_bits_clean(at)
    assert core.equal(back, a)


def test_transpose_of_a_non_matrix_raises():
    allocated = counters.words_allocated
    for bad in (1, None, np.zeros((2, 2), np.uint8)):
        with pytest.raises(GF2MatError):
            core.transpose(bad)
    assert counters.words_allocated == allocated


@pytest.mark.parametrize("operands", ["rows", "window-blocks"])
def test_xor_is_bitwise_xor(backend, operands):
    """A Python kernel's one primitive, on 1-D rows and on the 2-D words
    of windows (rows the parent's stride apart), with out aliasing x, then
    y."""
    xor = _kernel.active().xor
    parent = core.random(12, 64 * 7, seed=19)
    if operands == "rows":
        x, y = parent.words[0], parent.words[11]
    else:
        x = core.window(parent, 1, 64, 5, 192).words
        y = core.window(parent, 6, 192, 5, 192).words
        assert not x.flags.c_contiguous
    for out in (x, y):
        expected = np.bitwise_xor(x, y)
        xor(x, y, out)
        assert np.array_equal(out, expected)


def test_add_keeps_bits_beyond_the_tail(backend):
    """The masked add into a window whose last word holds 36 of its
    columns, with the target as either operand: bits around the window,
    beyond its right edge included, are kept."""
    c = dirty_window(5, 100, seed=24)
    a = dirty_window(5, 100, seed=25)
    b = core.random(5, 100, seed=26)
    before = core.to_dense(c.parent)
    core.add_into(c, c, b)
    expect_added(c, before, core.to_dense(b))
    before = core.to_dense(c.parent)
    core.add_into(c, a, c)
    expect_added(c, before, core.to_dense(a))


COUNTED_RUNS = {
    "m4rm": lambda a, b: mul_m4rm(a, b, 7),
    "m4rm-t3": lambda a, b: mul_m4rm_multitable(a, b, 5, 3, 17),
    "strassen": lambda a, b: mul_strassen(a, b, MulParams(cutoff=64)),
    "cubic": mul_cubic,
}


# n=170 gives tables of 3 words a row, padded to 4; n=600 gives 10,
# padded to 16; n=30 gives B under a word. Over 200 inner columns (4
# words) the route takes cubic for 63 columns up to 20 rows of A
# (20 * 63 < 5 * 64 * 4) and M4RM from 21 rows on; 81 and 82 rows, M4RM
# both, were that edge before the route's constant was refitted.
@pytest.mark.parametrize("run,m,n", [
    pytest.param(run, 150, n, id=name if n == 170 else f"{name}-n{n}")
    for n in (170, 600, 30) for name, run in COUNTED_RUNS.items()] + [
    pytest.param(COUNTED_RUNS["strassen"], m, 63, id=f"strassen-m{m}-n63")
    for m in (20, 21, 81, 82)])
def test_counter_deltas_identical_across_backends(run, m, n):
    a = core.random(m, 200, seed=11)
    b = core.random(200, n, seed=12)
    names = [f.name for f in fields(counters)]
    deltas = {}
    for name in BACKENDS:
        before = {f: getattr(counters, f) for f in names}
        with _kernel.using(name):
            run(a, b)
        deltas[name] = {f: getattr(counters, f) - before[f] for f in names}
    assert all(d == deltas["numpy"] for d in deltas.values()), deltas


# Row additions one drawn product may cost a Python engine, table builds
# and C row updates together; a single k=16 table goes beyond it.
COUNTED_WORK = 1 << 14


@st.composite
def counted_products(draw):
    """(m, l, n, k, t, b_s): m, l, n in 1..300; k in 1..16, k > l and a
    ragged l % k included; t in 1..8, t above the stripe count included;
    b_s = 1, above m, or between. l and m are capped so that the Python
    engines' work stays near COUNTED_WORK."""
    k = draw(st.integers(1, 16))
    l = draw(st.integers(1, min(300, k * max(1, COUNTED_WORK >> k))))
    kk = min(k, l)
    nstripes = -(-l // kk)
    per_block = (l // kk) * ((1 << kk) - 1) + (1 << l % kk) - 1
    blocks = max(1, COUNTED_WORK // per_block)
    m = draw(st.integers(1, min(300, max(1, COUNTED_WORK // nstripes))))
    b_s = draw(st.one_of(st.just(1) if m <= blocks else st.nothing(),
                         st.integers(m + 1, m + 64),
                         st.integers(-(-m // blocks), m)))
    return m, l, draw(st.integers(1, 300)), k, draw(st.integers(1, 8)), b_s


@settings(max_examples=100, deadline=None)
@given(counted_products())
def test_counted_cost_identical_across_backends(product):
    """Every backend records the deltas the Python engines count, the
    words of C and the table scratch included: on the compiled kernel
    they are the plan's, booked in one step."""
    m, l, n, k, t, b_s = product
    a = core.random(m, l, seed=m + l)
    b = core.random(l, n, seed=l + n)
    names = [f.name for f in fields(counters)]
    deltas = {}
    for name in BACKENDS:
        before = {f: getattr(counters, f) for f in names}
        with _kernel.using(name):
            mul_m4rm_multitable(a, b, k, t, b_s)
        deltas[name] = {f: getattr(counters, f) - before[f] for f in names}
    assert all(d == deltas["numpy"] for d in deltas.values()), deltas


def test_counters_reset():
    tally = Counters(row_adds=3, c_writes=2, words_allocated=5)
    tally.reset()
    assert tally == Counters()


@contextlib.contextmanager
def numpy_bytes():
    """Yield a function giving the bytes of numpy buffers allocated since
    entry and still alive: tracemalloc's numpy domain, measured exactly.
    The collector is off inside, so buffers die only when dropped."""
    gc.collect()
    gc.disable()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

    def traced():
        snapshot = tracemalloc.take_snapshot().filter_traces([domain])
        return sum(trace.size for trace in snapshot.traces)

    base = traced()
    try:
        yield lambda: traced() - base
    finally:
        if started:
            tracemalloc.stop()
        gc.enable()


def buffer_bytes(c):
    """Bytes of an owned matrix's buffer: its words, plus the 7 words
    that line up rows of 8 words or more on a cache line."""
    return 8 * (c.nrows * c.width + (7 if c.width >= 8 and c.nrows else 0))


@pytest.mark.parametrize("run,levels", [
    (lambda a, b: mul_m4rm_multitable(a, b, 5, 3, 17), 0),
    (mul_cubic, 0),
    (lambda a, b: mul_strassen(a, b, MulParams(cutoff=64)), 2),
], ids=["m4rm", "cubic", "strassen"])
def test_live_words_return_after_products(backend, run, levels):
    # Only C's buffer outlives a product: tables, Strassen temporaries and
    # numpy temporaries are all gone. n=600 gives C rows of 10 words, which
    # start on a cache line.
    for n in (256, 600):
        a = core.random(256, 256, seed=13)
        b = core.random(256, n, seed=14)
        with numpy_bytes() as live:
            temps = counters.temp_quadrants
            c = run(a, b)
            assert counters.temp_quadrants - temps == 2 * levels
            assert live() == buffer_bytes(c)
            del c
            assert live() == 0


def test_flat_m4rm_peak_is_c_plus_tables(backend):
    # A flat M4RM product allocates C and its t tables; only C outlives it.
    # Table rows narrower than a line are padded to a power of two words:
    # 2 stay 2, 3 become 4, 5 and 7 become 8. C's rows are not padded.
    m, l, k, t = 150, 200, 5, 3
    for n, padded in ((100, 2), (170, 4), (300, 8), (420, 8)):
        a = core.random(m, l, seed=15)
        b = core.random(l, n, seed=16)
        wn = core.words_per_row(n)
        start = counters.words_allocated
        with numpy_bytes() as live:
            c = mul_m4rm_multitable(a, b, k, t, 17)
            assert live() == buffer_bytes(c)
        assert ref.first_mismatch(c, ref.naive_product(a, b)) is None
        assert counters.words_allocated - start \
            == m * wn + (t << k) * padded


def test_flat_m4rm_peak_counts_padded_table_rows(backend):
    # Rows of 10 words: table rows are padded to 16 words, C's are not.
    m, l, n, k, t, padded = 150, 200, 600, 5, 3, 16
    a = core.random(m, l, seed=15)
    b = core.random(l, n, seed=16)
    wn = core.words_per_row(n)
    start = counters.words_allocated
    with numpy_bytes() as live:
        c = mul_m4rm_multitable(a, b, k, t, 17)
        assert live() == buffer_bytes(c)
    assert counters.words_allocated - start == m * wn + (t << k) * padded


def test_window_keeps_root_words_live():
    with numpy_bytes() as live:
        root = core.create(10, 200)
        win = core.window(core.window(root, 2, 64, 5, 100), 1, 0, 2, 30)
        del root
        assert live() == 10 * 4 * 8
        del win
        assert live() == 0


def test_backend_reports_selection():
    for name in BACKENDS:
        with _kernel.using(name):
            assert gf2mat.backend() == name
    assert gf2mat.backend() == BACKENDS[0]
    try:
        gf2mat.set_scalar_xor(True)
        assert gf2mat.backend() == "scalar"
    finally:
        gf2mat.set_scalar_xor(False)
    assert gf2mat.backend() == BACKENDS[0]


def start_python(script, *args, **env):
    """A child interpreter running `script` with this checkout first on
    its path and the variables `env` added to its environment."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def finish(proc):
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    return out


def run_python(script, *args, **env):
    return finish(start_python(script, *args, **env))


needs_c = pytest.mark.skipif("c" not in BACKENDS, reason="no C compiler")


# Products checked against the oracle; then the backend's name.
PRODUCTS_ON_DEFAULT = """
import gf2mat
from gf2mat import _kernel
from gf2mat import _reference as ref
assert _kernel.available() == ("numpy", "scalar")
for m, l, n in [(70, 130, 90), (300, 300, 300), (50, 40, 20)]:
    a = gf2mat.random(m, l, seed=1)
    b = gf2mat.random(l, n, seed=2)
    c = gf2mat.mul_strassen(a, b, gf2mat.MulParams(cutoff=64))
    assert ref.first_mismatch(c, ref.naive_product(a, b)) is None
print(gf2mat.backend())
"""


def test_no_compiler_falls_back_to_numpy():
    out = run_python("""
from gf2mat import _kernel
_kernel._compiler = lambda: None
""" + PRODUCTS_ON_DEFAULT)
    assert out.strip() == "numpy"


def test_no_python_headers_falls_back_to_numpy(tmp_path):
    """An include path without Python.h: no build is tried, and products
    run on numpy."""
    out = run_python("""
import sys
from gf2mat import _kernel
_kernel._INCLUDE_DIR = sys.argv[1]
_kernel._build = lambda *args: sys.exit("a build was tried")
""" + PRODUCTS_ON_DEFAULT, tmp_path)
    assert out.strip() == "numpy"


def test_cache_key_covers_the_interpreter():
    """The key changes with the extension suffix and with the include
    path, so another interpreter never loads this one's build."""
    base = (b"source", "/usr/include/python3.11", b"cc 12",
            ".cpython-311-x86_64-linux-gnu.so")
    key = _kernel._key(*base)
    assert key == _kernel._key(*base)
    assert _kernel._key(base[0], base[1], base[2],
                        ".cpython-312-x86_64-linux-gnu.so") != key
    assert _kernel._key(base[0], "/usr/local/include/python3.11", base[2],
                        base[3]) != key
    assert _kernel._key(b"source2", *base[1:]) != key
    assert _kernel._key(base[0], base[1], b"cc 13", base[3]) != key


def test_cache_key_follows_the_compiler(tmp_path):
    """The compiler enters the key by its resolved path, size and mtime: a
    link to it gives its key; another path, size or mtime another."""
    mtime = 1_700_000_000_000_000_000

    def install(path, content):
        path.write_bytes(content)
        os.utime(path, ns=(mtime, mtime))
        return path

    def key(path):
        return _kernel._key(b"source", "/usr/include/python3.11",
                            _kernel._compiler_id(str(path)), ".so")

    cc = install(tmp_path / "gcc-12", b"compiler")
    (tmp_path / "cc").symlink_to(cc)
    base = key(cc)
    assert key(tmp_path / "cc") == base
    assert key(install(tmp_path / "gcc-13", b"compiler")) != base
    os.utime(cc, ns=(mtime, mtime + 1))
    assert key(cc) != base
    install(cc, b"compiler")
    assert key(cc) == base
    install(cc, b"compiler 2")
    assert key(cc) != base


# Makes every attempt to start a process fail.
NO_PROCESSES = """
import subprocess
def refuse(*args, **kwargs):
    raise AssertionError("a process was started")
subprocess.run = subprocess.Popen = refuse
"""


@needs_c
def test_warm_cache_load_starts_no_process(tmp_path):
    run_python(LOAD_FROM_CACHE, tmp_path)
    [built] = tmp_path.glob("*.so")
    run_python(NO_PROCESSES + LOAD_FROM_CACHE, tmp_path)
    assert list(tmp_path.glob("*.so")) == [built]


def test_warm_load_imports_no_subprocess():
    """A fresh interpreter that imports numpy and gf2mat and runs one
    product from a warm cache never imports subprocess (numpy does not
    import it either)."""
    _kernel.available()  # warms the package's cache
    out = run_python("""
import sys
import numpy
after_numpy = "subprocess" in sys.modules
import gf2mat
a = gf2mat.random(32, 32, seed=1)
gf2mat.mul_strassen(a, a)
print(after_numpy, "subprocess" in sys.modules, gf2mat.backend())
""")
    assert out.split() == ["False", "False", BACKENDS[0]]


def test_import_leaves_openssl_unloaded():
    """`import gf2mat`, and one product from a warm cache, never load
    OpenSSL's `_hashlib`: the cache digests come from `_blake2` (numpy
    does not load `_hashlib` either)."""
    _kernel.available()  # warms the package's cache
    out = run_python("""
import sys
import numpy
after_numpy = "_hashlib" in sys.modules
import gf2mat
after_import = "_hashlib" in sys.modules
a = gf2mat.random(32, 32, seed=1)
gf2mat.mul_strassen(a, a)
print(after_numpy, after_import, "_hashlib" in sys.modules)
""")
    assert out.split() == ["False", "False", "False"]


@needs_c
def test_warm_load_peak_is_small():
    """Loading the kernel from a warm cache allocates little: the source
    and the binary are hashed in 8 KiB chunks and no process is started."""
    _kernel.available()  # warms the package's cache
    out = run_python("""
import tracemalloc
import numpy
from gf2mat import _kernel
tracemalloc.start()
assert _kernel._compiled() is not None
print(tracemalloc.get_traced_memory()[1])
""")
    assert int(out) < 32 * 1024


def test_file_digest_reads_in_chunks(tmp_path):
    """The chunked digest equals the digest of the whole file, across
    chunk boundaries."""
    for size in (0, 1, 8191, 8192, 8193, 3 * 8192 + 5):
        path = tmp_path / f"f{size}"
        data = os.urandom(size)
        path.write_bytes(data)
        assert _kernel._file_digest(path) == _kernel._digest(data)


def test_unwritable_cache_gives_no_library(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    assert _kernel.load_library(blocker / "cache") is None


@needs_c
def test_failed_build_gives_no_library(tmp_path, monkeypatch):
    """A source the compiler rejects gives None and leaves no file."""
    bad = tmp_path / "bad.c"
    bad.write_text("this is not C;\n")
    monkeypatch.setattr(_kernel, "_SOURCE", bad)
    assert _kernel.load_library(tmp_path / "cache") is None
    assert not list((tmp_path / "cache").iterdir())


@needs_c
def test_builds_of_another_interpreter_are_kept(tmp_path):
    """A build removes older builds for its own interpreter only: one
    made under another extension suffix stays beside it. The child
    builds into the test's cache only, not the package's."""
    other = ".cpython-399-other.so"
    before = set(_kernel._CACHE_DIR.glob(f"*{other}"))
    run_python("""
import sys
from pathlib import Path
from gf2mat import _kernel
_kernel._EXT_SUFFIX = sys.argv[2]
assert _kernel.load_library(Path(sys.argv[1])).isa == sys.argv[3]
""", tmp_path, other, _kernel.isa())
    assert set(_kernel._CACHE_DIR.glob(f"*{other}")) == before
    run_python(LOAD_FROM_CACHE, tmp_path)
    built = sorted(path.name for path in tmp_path.iterdir())
    assert len(built) == 2
    assert any(name.endswith(other) for name in built)
    assert any(name.endswith(_kernel._EXT_SUFFIX) for name in built)


@needs_c
def test_build_sweeps_ctypes_builds(tmp_path):
    """A build removes a build of the old ctypes binding (no interpreter
    suffix) and keeps builds of its own key and of other interpreters."""
    key, hex16 = "0123456789abcdef", "fedcba9876543210"
    kept = {f"gf2mat_kernel-{key}-{hex16}{_kernel._EXT_SUFFIX}",
            f"gf2mat_kernel-{hex16}-{key}.cpython-399-other.so"}
    for name in (*kept, f"gf2mat_kernel-{hex16}-{key}.so"):
        (tmp_path / name).write_bytes(b"")
    path = _kernel._build(_kernel._compiler(), _kernel._SOURCE.read_bytes(),
                          tmp_path, key)
    assert {p.name for p in tmp_path.iterdir()} == kept | {path.name}


# Loads the kernel from the cache directory argv[1] (a source file in
# argv[2] replaces _kernel.c) and checks one product with it unless the
# source was replaced.
LOAD_FROM_CACHE = """
import sys
from pathlib import Path
from gf2mat import _kernel, core
from gf2mat import _reference as ref
if len(sys.argv) > 2:
    _kernel._SOURCE = Path(sys.argv[2])
mod = _kernel.load_library(Path(sys.argv[1]))
assert mod is not None
a = core.random(40, 100, seed=1)
b = core.random(100, 70, seed=2)
c = core.create(40, 70)
_kernel.CKernel(mod).m4rm(c, a, b, 100, 70, 4, 16, 2, 2)
if len(sys.argv) == 2:
    assert ref.first_mismatch(c, ref.naive_product(a, b)) is None
"""

def intact(path):
    stem = path.name[:-len(_kernel._EXT_SUFFIX)]
    return stem.rsplit("-", 1)[1] == _kernel._digest(path.read_bytes())


@needs_c
def test_truncated_cache_is_rebuilt(tmp_path):
    run_python(LOAD_FROM_CACHE, tmp_path)
    [built] = tmp_path.glob("*.so")
    size = built.stat().st_size
    built.write_bytes(built.read_bytes()[:size // 2])
    run_python(LOAD_FROM_CACHE, tmp_path)
    [rebuilt] = tmp_path.glob("*.so")
    assert intact(rebuilt) and rebuilt.stat().st_size == size


@needs_c
def test_stale_cache_is_not_loaded(tmp_path):
    cache = tmp_path / "cache"
    old = tmp_path / "old.c"
    # An older kernel that ORs where it must XOR.
    source = _kernel._SOURCE.read_text()
    or_source = source.replace("AT(c) ^= x[i];", "AT(c) |= x[i];")
    assert or_source != source
    old.write_text(or_source)
    run_python(LOAD_FROM_CACHE, cache, old)
    [stale] = cache.glob("*.so")
    run_python(LOAD_FROM_CACHE, cache)
    # The new build removed the stale one.
    [current] = cache.glob("*.so")
    assert current != stale and intact(current)


@needs_c
def test_concurrent_first_builds(tmp_path):
    procs = [start_python(LOAD_FROM_CACHE, tmp_path) for _ in range(3)]
    for proc in procs:
        finish(proc)
    built = list(tmp_path.glob("*.so"))
    assert built and all(intact(path) for path in built)
    assert not list(tmp_path.glob("*.tmp"))


@needs_c
def test_concurrent_products_on_c_backend():
    jobs = []
    for i in range(12):
        m, l, n = 150 + 17 * i, 200 + 9 * i, (130 + 11 * i) if i % 3 else 40
        a = core.random(m, l, seed=100 + i)
        b = core.random(l, n, seed=200 + i)
        jobs.append((a, b, ref.naive_product(a, b)))
    results = [None] * len(jobs)

    def work(i):
        a, b, _ = jobs[i]
        with _kernel.using("c"):
            for _ in range(3):
                results[i] = mul_strassen(a, b, MulParams(cutoff=64))

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for (a, b, expected), got in zip(jobs, results):
        assert got is not None
        assert ref.first_mismatch(got, expected) is None


# One engine call per case that runs for 50 ms or more: M4RM at k=1,
# t=1 over 4096 x 2048 x 2048 (70 ms on a 2-vCPU AVX-512 Xeon), directly
# and on the transpose (70 ms there too), and cubic over 4096 x 4096 x
# 1024 (70 ms).
ENGINE_CALLS = {
    "m4rm": ((4096, 2048, 2048),
             lambda kernel, c, a, b, l, n: kernel.m4rm(
                 c, a, b, l, n, 1, 4096, 1, n // 64)),
    "m4rm_t": ((4096, 2048, 2048),
               lambda kernel, c, a, b, l, n: kernel.m4rm_t(
                   c, a, b, l, n, 1, 4096, 1, 64)),

    "cubic": ((4096, 4096, 1024),
              lambda kernel, c, a, b, l, n: kernel.cubic(c, a, b, l, n)),
}


@needs_c
@pytest.mark.parametrize("engine", ENGINE_CALLS)
def test_engines_release_the_interpreter_lock(engine):
    """A pure-Python thread advances while one engine call runs on the
    main thread. The switch interval is far longer than the call, so the
    thread gets no forced turn: it can only run while the call has
    released the lock. It yields the lock on every step, so the main
    thread takes it back as soon as the call returns."""
    (m, l, n), call = ENGINE_CALLS[engine]
    kernel = _kernel.get("c")
    a = core.random(m, l, seed=81)
    b = core.random(l, n, seed=82)
    c = core.create(m, n)
    ticks = [0]
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            ticks[0] += 1
            time.sleep(0)

    spinner = threading.Thread(target=spin)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(2.0)
    try:
        spinner.start()
        deadline = time.monotonic() + 10
        while not ticks[0] and time.monotonic() < deadline:
            time.sleep(0)
        assert ticks[0], "the spinner never ran"
        before, begun = ticks[0], time.perf_counter()
        call(kernel, c, a, b, l, n)
        took = time.perf_counter() - begun
        advanced = ticks[0] - before
    finally:
        stop.set()
        spinner.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not spinner.is_alive()
    assert advanced > 0, (engine, took)
    assert ref.first_mismatch(c, ref.naive_product(a, b)) is None


# (operand, rows, columns) of one too small for its stated role: c, a
# and b sized for 40 x 100 x 70 (m4rm with k=4, t=2; cubic). c's rows
# set m. The engines' scratch is their own (see test_scratch_is_safe).
SHORT_OPERANDS = {
    "m4rm": [("c", 40, 64), ("a", 39, 100), ("a", 40, 64), ("b", 99, 70),
             ("b", 100, 64)],
    "cubic": [("c", 40, 64), ("a", 39, 100), ("a", 40, 64), ("b", 99, 70),
              ("b", 100, 64)],
}


@needs_c
@pytest.mark.parametrize("product,which,rows,cols", [
    (p, *case) for p, cases in SHORT_OPERANDS.items() for case in cases])
def test_short_kernel_operand_raises_before_writing(product, which, rows,
                                                    cols):
    ops = {"c": core.random(40, 70, seed=31),
           "a": core.random(40, 100, seed=32),
           "b": core.random(100, 70, seed=33)}
    roots = {name: mat.words for name, mat in ops.items()}
    before = {name: words.copy() for name, words in roots.items()}
    ops[which] = core.window(ops[which], 0, 0, rows, cols)
    kernel = _kernel.get("c")
    with pytest.raises(DimensionError):
        if product == "m4rm":
            kernel.m4rm(ops["c"], ops["a"], ops["b"], 100, 70, 4, 16, 2, 2)
        else:
            kernel.cubic(ops["c"], ops["a"], ops["b"], 100, 70)
    for name, words in roots.items():
        assert np.array_equal(words, before[name]), name


@needs_c
def test_short_padded_tables_raise_before_writing():
    # Table rows for 40 x 100 x 600 are 10 words wide; rows padded to one
    # cache line, 8 words apart, would overlap, and are refused before
    # anything is allocated or written, as are rows a negative stride
    # apart. 16 words apart they are not.
    ops = {"c": core.random(40, 600, seed=34),
           "a": core.random(40, 100, seed=35),
           "b": core.random(100, 600, seed=36)}
    roots = [mat.words for mat in ops.values()]
    before = [words.copy() for words in roots]
    kernel = _kernel.get("c")
    for t_stride in (8, -1):
        with pytest.raises(DimensionError,
                           match=f"table rows {t_stride} apart"):
            kernel.m4rm(ops["c"], ops["a"], ops["b"], 100, 600, 4, 16, 2,
                        t_stride)
    with pytest.raises(DimensionError, match="table rows -1 apart"):
        kernel.m4rm(ops["c"], ops["a"], ops["b"], 100, 600, 1, 16, 1, -1)
    for words, old in zip(roots, before):
        assert np.array_equal(words, old)
    kernel.m4rm(ops["c"], ops["a"], ops["b"], 100, 600, 4, 16, 2, 16)
    assert np.array_equal(core.to_dense(ops["c"]), core.to_dense(
        core.random(40, 600, seed=34)) ^ ref.naive_product(ops["a"],
                                                           ops["b"]))


@pytest.mark.parametrize("k,t,b_s", [(0, 1, 8), (17, 1, 8), (4, 0, 8),
                                     (4, 9, 8), (4, 2, 0)])
def test_bad_parameters_raise_before_allocating(backend, k, t, b_s):
    """k, t and b_s are checked once, before the kernel: out of range,
    they raise before anything is allocated, with C unchanged."""
    a = core.random(40, 100, seed=69)
    b = core.random(100, 70, seed=70)
    c = core.random(40, 70, seed=71)
    before = c.words.copy()
    allocated = counters.words_allocated
    with pytest.raises(ParameterError):
        mul_m4rm_into(c, a, b, k, b_s, t)
    assert counters.words_allocated == allocated
    assert np.array_equal(c.words, before)


def test_oversized_tables_raise_before_allocating(backend):
    """k=16, t=8 at 4096 columns asks for 8 << 16 table rows of 64 words,
    256 MiB: refused before anything is allocated, with C unchanged."""
    a = core.random(4, 128, seed=61)
    b = core.random(128, 4096, seed=62)
    c = core.random(4, 4096, seed=63)
    before = c.words.copy()
    allocated = counters.words_allocated
    with pytest.raises(ParameterError):
        mul_m4rm_into(c, a, b, 16, t=8)
    assert counters.words_allocated == allocated
    assert np.array_equal(c.words, before)


# Leaves of 64 x 64 x 64 need 128 bytes of k=4 tables, a 1-row or
# 128-row strip over B of 128 columns 256 bytes.
PEELED = MulParams(cutoff=64, k=4, t=1)


# id -> (product of a, b into c, m, l, n, table budget in bytes or None).
# The whole products ask for k=16, t=8 tables of 4096 columns, 256 MiB;
# the recursive product's leaves fit a 200-byte budget but its 128-column
# row strip does not, and peel_fixup's first strip clears c's last row
# before its tables would be checked unless the plan is checked first.
OVERSIZED = {
    "strassen": (lambda a, b, c: mul_strassen(
        a, b, MulParams(cutoff=8192, b_s=8192, k=16, t=8)),
        10, 4096, 4096, None),
    "m4rm-t8": (lambda a, b, c: mul_m4rm_multitable(a, b, 16, 8, 8192),
                10, 4096, 4096, None),
    "strassen-peeled": (lambda a, b, c: mul_strassen(a, b, PEELED),
                        129, 128, 128, 200),
    "peel-fixup": (lambda a, b, c: peel_fixup(c, a, b, 128, 128, 0, PEELED),
                   129, 128, 128, 200),
}


@pytest.mark.parametrize("case", OVERSIZED)
def test_oversized_product_raises_before_allocating_result(backend, case,
                                                           monkeypatch):
    """The same tables asked for by a whole product, or by one base
    product of a recursive plan: refused before C or a temporary is
    allocated and before any product or write."""
    product, m, l, n, budget = OVERSIZED[case]
    a = core.random(m, l, seed=66)
    b = core.random(l, n, seed=67)
    c = core.random(m, n, seed=68)
    before = c.words.copy()
    if budget is not None:
        monkeypatch.setattr(_kernel, "MAX_TABLE_BYTES", budget)
    allocated = counters.words_allocated
    products = counters.strassen_products
    with pytest.raises(ParameterError):
        product(a, b, c)
    assert counters.words_allocated == allocated
    assert counters.strassen_products == products
    assert np.array_equal(c.words, before)


def test_table_budget_counts_padded_scratch(backend, monkeypatch):
    """The budget is compared with the scratch the product allocates: for
    30 x 40 x 600 with k=5, t=3, 3 << 5 rows of 16 padded words."""
    a = core.random(30, 40, seed=64)
    b = core.random(40, 600, seed=65)
    scratch = (3 << 5) * 16 * 8
    monkeypatch.setattr(_kernel, "MAX_TABLE_BYTES", scratch)
    c = core.create(30, 600)
    mul_m4rm_into(c, a, b, 5, 17, 3)
    assert ref.first_mismatch(c, ref.naive_product(a, b)) is None
    monkeypatch.setattr(_kernel, "MAX_TABLE_BYTES", scratch - 1)
    with pytest.raises(ParameterError):
        mul_m4rm_into(c, a, b, 5, 17, 3)


@needs_c
def test_isa_names_the_engine_copy_in_use(isa_kernels):
    assert _kernel.isa() == isa_kernels["shipped"].isa
    assert _kernel.isa() in ("avx512f", "avx2", "default")
    assert isa_kernels["no-avx512"].isa in ("avx2", "default")
    assert isa_kernels["portable"].isa == "default"


@needs_c
def test_binary_exports_only_its_init(isa_kernels):
    """Every build exports the module's init function and no kernel
    symbol; cubic starts on a 64-byte boundary (read with nm, where
    there is one)."""
    nm = shutil.which("nm")
    for kernel in isa_kernels.values():
        path = kernel._mod.__file__
        lib = ctypes.CDLL(path)
        assert hasattr(lib, "PyInit_gf2mat_kernel")
        for name in ("gf2mat_m4rm", "gf2mat_cubic", "gf2mat_isa"):
            assert not hasattr(lib, name), name
        if nm:
            symbols = subprocess.run([nm, path], capture_output=True,
                                     text=True, check=True).stdout
            [cubic] = [int(line.split()[0], 16)
                       for line in symbols.splitlines()
                       if line.endswith(" gf2mat_cubic")]
            assert cubic % 64 == 0


# Row widths of 1..40 words, so every remainder of the 8-, 4-, 2- and
# 1-word chunks, ragged unless w % 3 == 0, and wide rows of 45, 48, 64 and
# 65 words; k cycles 1..16 and t 1..8; l spans two groups of t stripes and
# ends in a narrower stripe. At w = 13, 29 and 45 a group is 8 stripes of
# 13 columns, wider than the 64-bit window, so its indices are read one by
# one. The last cases slice full groups of 8 stripes of 5 columns, the
# second starting at bit 40 of a's first word, on the widest rows.
ISA_CASES = [(37, 2 * ((w * 3) % 8 + 1) * ((w - 1) % 16 + 1) + 3,
              64 * w - (w % 3) * 21, (w - 1) % 16 + 1, (w * 3) % 8 + 1, 16)
             for w in [*range(1, 41), 45, 48, 64, 65]]
ISA_CASES += [(37, 83, 64 * w - (w % 3) * 21, 5, 8, 16) for w in (64, 65)]


@needs_c
@pytest.mark.parametrize("m,l,n,k,t,b_s", ISA_CASES)
def test_m4rm_identical_on_every_isa(isa_kernels, m, l, n, k, t, b_s):
    a = dirty_window(m, l, seed=21)
    b = dirty_window(l, n, seed=22)
    expected = ref.naive_product(a, b)
    parents = {}
    for name, kernel in isa_kernels.items():
        c = dirty_window(m, n, seed=23)
        before = core.to_dense(c.parent)
        kernel.m4rm(c, a, b, l, n, k, b_s, t, core.words_per_row(n))
        expect_added(c, before, expected)
        parents[name] = c.parent.words
    for words in parents.values():
        assert np.array_equal(words, parents["shipped"])


@needs_c
@settings(max_examples=40, deadline=None)
@given(transposed_products(most=300), st.integers(0, 2 ** 16))
def test_m4rm_t_identical_on_every_isa(isa_kernels, product, seed):
    """Every engine copy's m4rm_t adds the oracle's product into a window
    whose parent's bits around it are kept, with identical words."""
    m, l, n, k, t, b_s = product
    a = dirty_window(m, l, seed)
    b = dirty_window(l, n, seed + 1)
    plan = _table_layout(m, l, n, k, b_s, t, transposed=True)
    expected = ref.naive_product(a, b)
    parents = []
    for kernel in isa_kernels.values():
        c = dirty_window(m, n, seed + 2)
        before = core.to_dense(c.parent)
        kernel.m4rm_t(c, a, b, l, n, plan.k, b_s, t, plan.table_stride)
        expect_added(c, before, expected)
        parents.append(c.parent.words)
    for words in parents:
        assert np.array_equal(words, parents[0])


@needs_c
@pytest.mark.parametrize("m,l,n", [(1100, 300, 600), (530, 700, 1030)])
def test_m4rm_t_whole_tiles_on_every_isa(isa_kernels, m, l, n):
    """C^T added back into C through whole tiles of the transpose (512
    rows and columns on the avx512f copy) and the blocks around them, on
    every engine copy."""
    a = dirty_window(m, l, seed=27)
    b = dirty_window(l, n, seed=28)
    plan = _table_layout(m, l, n, 4, 8192, 8, transposed=True)
    expected = ref.naive_product(a, b)
    for kernel in isa_kernels.values():
        c = dirty_window(m, n, seed=29)
        before = core.to_dense(c.parent)
        kernel.m4rm_t(c, a, b, l, n, plan.k, 8192, 8, plan.table_stride)
        expect_added(c, before, expected)


@needs_c
@pytest.mark.parametrize("m,n", [(0, 5), (5, 0), (1, 1), (63, 65), (64, 64),
                                 (130, 1000), (1024, 1024), (1000, 130)])
def test_transpose_identical_on_every_isa(isa_kernels, m, n):
    """Every engine copy's transpose entry gives to_dense(a).T, bits
    beyond the last column clear, from a window with live bits around
    it."""
    a = dirty_window(m, n, seed=m + n)
    for kernel in isa_kernels.values():
        out = core.random(n, m, seed=1)
        kernel.transpose(out, a, m, n)
        assert np.array_equal(core.to_dense(out), core.to_dense(a).T)
        assert core.trailing_bits_clean(out)


# guarded(nbytes, at) in a child: nbytes of writable memory between two
# PROT_NONE guard pages, flush against the page after them (at "end") or
# the one before (at "start"); a read or write past them kills the child.
GUARD_PAGES = """
import ctypes, mmap, sys
from pathlib import Path
import numpy as np
from gf2mat import _kernel, core

libc = ctypes.CDLL(None, use_errno=True)
libc.mmap.restype = ctypes.c_void_p
libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                      ctypes.c_int, ctypes.c_int, ctypes.c_long)
libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
PROT_NONE = 0


def guarded(nbytes, at="end"):
    \"\"\"A uint8 array of nbytes (> 0) between two guard pages.\"\"\"
    page = mmap.PAGESIZE
    span = -(-nbytes // page) * page
    base = libc.mmap(None, span + 2 * page,
                     mmap.PROT_READ | mmap.PROT_WRITE,
                     mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS, -1, 0)
    assert base not in (None, ctypes.c_void_p(-1).value)
    assert libc.mprotect(base, page, PROT_NONE) == 0
    assert libc.mprotect(base + page + span, page, PROT_NONE) == 0
    start = base + page + (span - nbytes if at == "end" else 0)
    return np.ctypeslib.as_array(
        (ctypes.c_uint8 * nbytes).from_address(start))
"""

# Runs one product (argv[1]: "m4rm", "m4rm_t" or "cubic") per engine copy (the
# binaries in argv[4:]) with the operand named argv[2] ("a", "b" or "c")
# placed so that its last word ends where a guard page starts (see
# GUARD_PAGES). argv[2] "tables" (M4RM) or "bt" (cubic) names the
# engine's own scratch instead, which no page can guard: those runs go
# under PYTHONMALLOC=debug, whose pads around every raw block are checked
# when it is freed. A: 21 x 128 entries, so with k=5, t=3 its last group
# starts at column 120, in its last word; B: 128 x n with n = argv[3]. C
# starts random, since both products read it and add to it.
GUARDED_PRODUCT = GUARD_PAGES + """
from gf2mat import _reference as ref


class Guarded:
    \"\"\"The words of `mat` copied to end at a guard page: a duck-typed
    kernel operand (nrows, width, words).\"\"\"

    def __init__(self, mat):
        self.nrows, self.width = mat.nrows, mat.width
        self.words = guarded(mat.nrows * mat.width * 8).view(
            np.uint64).reshape(mat.nrows, mat.width)
        self.words[:] = mat.words


product, which, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
m, l, k, t = 21, 128, 5, 3
a = core.random(m, l, seed=51)
b = core.random(l, n, seed=52)
start = core.random(m, n, seed=53)
expected = core.to_dense(start) ^ ref.naive_product(a, b)
for path in sys.argv[4:]:
    kernel = _kernel.CKernel(_kernel._load(Path(path)))
    c = core.copy_out(start)
    ops = {"a": a, "b": b, "c": c}
    if which in ops:
        ops[which] = Guarded(ops[which])
    if product == "m4rm":
        kernel.m4rm(ops["c"], ops["a"], ops["b"], l, n, k, 8, t,
                    core.words_per_row(core.padded_cols(n)))
    elif product == "m4rm_t":
        kernel.m4rm_t(ops["c"], ops["a"], ops["b"], l, n, k, 8, t,
                      core.words_per_row(core.padded_cols(m)))
    else:
        kernel.cubic(ops["c"], ops["a"], ops["b"], l, n)
    if which == "c":
        c.words[:] = ops["c"].words
    assert ref.first_mismatch(c, expected) is None, path
print("ok")
"""

guard_page = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="maps a guard page with Linux mmap flags")


def scratch_guard(which):
    """The child's environment for GUARDED_PRODUCT's operand `which`: the
    debug allocator for the engine's own scratch."""
    return {"PYTHONMALLOC": "debug"} if which in ("tables", "bt") else {}


@needs_c
@guard_page
@pytest.mark.parametrize("n", [100, 64 * 40 - 3])
@pytest.mark.parametrize("which", ["a", "b", "tables", "c"])
def test_m4rm_reads_stay_inside_operands(isa_kernels, which, n):
    """Every engine copy reads and writes only inside its operands, the
    last word of A's last row included, which a stripe group starting
    inside that word would overrun."""
    paths = [kernel._mod.__file__ for kernel in isa_kernels.values()]
    assert run_python(GUARDED_PRODUCT, "m4rm", which, n, *paths,
                      **scratch_guard(which)).strip() == "ok"


@needs_c
@guard_page
@pytest.mark.parametrize("n", [100, 64 * 40 - 3])
@pytest.mark.parametrize("which", ["a", "b", "tables", "c"])
def test_m4rm_t_reads_stay_inside_operands(isa_kernels, which, n):
    """M4RM on the transpose reads and writes only inside its operands
    and its scratch, B's last row and A's last word included, which its
    windows of 256 columns reach."""
    paths = [kernel._mod.__file__ for kernel in isa_kernels.values()]
    assert run_python(GUARDED_PRODUCT, "m4rm_t", which, n, *paths,
                      **scratch_guard(which)).strip() == "ok"


@needs_c
@guard_page
@pytest.mark.parametrize("n", [100, 64 * 40 - 3])
@pytest.mark.parametrize("which", ["a", "b", "c", "bt"])
def test_cubic_reads_stay_inside_operands(isa_kernels, which, n):
    """Cubic reads and writes only inside its operands, C included, which
    it reads to add the product into it."""
    paths = [kernel._mod.__file__ for kernel in isa_kernels.values()]
    assert run_python(GUARDED_PRODUCT, "cubic", which, n, *paths,
                      **scratch_guard(which)).strip() == "ok"


# Packs dense uint8 arrays, and bool views of them, whose bytes lie in
# guarded memory (see GUARD_PAGES), at argv[2] ("end" or "start") of it,
# with every kernel build (the binaries in argv[3:]), in the layout
# argv[1] names: rows of consecutive bytes, every other row, rows
# reversed, every third column, rows and columns reversed, or transposed.
# Each layout's first and last bytes in memory are the buffer's, so a
# read before or past it, such as a whole 64-byte chunk of a partial last
# word, kills the child. 21 rows
# of 1, 63, 189 (two whole words, then 8-byte groups and single bytes)
# and 256 columns; the words must equal the numpy kernel's.
GUARDED_PACK = GUARD_PAGES + """
layout, at = sys.argv[1], sys.argv[2]
rows = 21
for ncols in (1, 63, 189, 256):
    shape, view = {
        "plain": ((rows, ncols), lambda buf: buf),
        "rows": ((2 * rows - 1, ncols), lambda buf: buf[::2]),
        "flipped": ((rows, ncols), lambda buf: buf[::-1]),
        "cols": ((rows, 3 * ncols - 2), lambda buf: buf[:, ::3]),
        "reversed": ((rows, ncols), lambda buf: buf[::-1, ::-1]),
        "transposed": ((ncols, rows), lambda buf: buf.T),
    }[layout]
    buf = guarded(shape[0] * shape[1], at).reshape(shape)
    buf[:] = np.random.default_rng(ncols).integers(0, 256, shape, np.uint8)
    for dense in (view(buf), view(buf.view(np.bool_))):
        expected = core.create(rows, ncols)
        _kernel.get("numpy").pack(expected, dense.copy())
        for path in sys.argv[3:]:
            kernel = _kernel.CKernel(_kernel._load(Path(path)))
            out = core.create(rows, ncols)
            kernel.pack(out, dense)
            assert np.array_equal(out.words, expected.words), (path, ncols)
print("ok")
"""


@needs_c
@guard_page
@pytest.mark.parametrize("at", ["end", "start"])
@pytest.mark.parametrize("layout", ["plain", "rows", "flipped", "cols",
                                    "reversed", "transposed"])
def test_pack_reads_stay_inside_its_input(isa_kernels, layout, at):
    """Every kernel build's packer reads only the dense input's own bytes,
    the last row's partial chunk included, in every stride layout."""
    paths = [kernel._mod.__file__ for kernel in isa_kernels.values()]
    assert run_python(GUARDED_PACK, layout, at, *paths).strip() == "ok"


@needs_c
@pytest.mark.parametrize("transposed", [False, True])
def test_pack_copies_no_dense_input(transposed):
    """On the c backend, a 2048 x 2048 uint8 input with values up to 255,
    or its transposed view, is packed with no temporary the size of the
    input: the peak is the packed words (512 KiB) and little more."""
    dense = np.random.default_rng(8).integers(0, 256, (2048, 2048),
                                              np.uint8)
    if transposed:
        dense = dense.T
    with _kernel.using("c"):
        gc.collect()
        tracemalloc.start()
        try:
            a = core.from_dense(dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.2 * 2048 * 32 * 8
    assert np.array_equal(core.to_dense(a), dense & 1)


# Evaluates argv[1], a call of one entry of the C kernel, in a child under
# PYTHONMALLOC=debug, so a regression that divides by zero or writes
# outside its memory cannot take the test run down; it must raise
# gf2mat.errors' argv[2] (or, for "None", return) and leave c unchanged.
ENTRY_CALL = """
import sys
import numpy as np
from gf2mat import _kernel, core, errors

kernel = _kernel.get("c")
a = core.random(40, 100, seed=1)
b = core.random(100, 70, seed=2)
c = core.random(40, 70, seed=3)
dense = np.ones((40, 70), np.uint8)
before = c.words.copy()
try:
    eval(sys.argv[1])
except Exception as exc:
    assert type(exc).__name__ == sys.argv[2], repr(exc)
else:
    assert sys.argv[2] == "None", "no " + sys.argv[2]
assert np.array_equal(c.words, before)
print("ok")
"""

# id -> (call, the error it raises). An M4RM call of 40 x 100 x 70 with
# k=4, b_s=16, t=2 and tables 2 words apart is valid; each case spoils
# one argument. Before the entry checked them, k=0 divided by zero, t=12
# overran the engine's per-group arrays, and n=0 wrote one word before
# the tables: into the block's alignment pad, or before the block when
# it started on a line.
ENTRY_CALLS = {
    "m4rm-k0": ("kernel.m4rm(c, a, b, 100, 70, 0, 16, 2, 2)",
                "ParameterError"),
    "m4rm-k17": ("kernel.m4rm(c, a, b, 100, 70, 17, 16, 2, 2)",
                 "ParameterError"),
    "m4rm-k-over-l": ("kernel.m4rm(c, a, b, 3, 70, 4, 16, 2, 2)",
                      "ParameterError"),
    "m4rm-k-negative": ("kernel.m4rm(c, a, b, 100, 70, -1, 16, 2, 2)",
                        "ParameterError"),
    "m4rm-t0": ("kernel.m4rm(c, a, b, 100, 70, 4, 16, 0, 2)",
                "ParameterError"),
    "m4rm-t9": ("kernel.m4rm(c, a, b, 100, 70, 4, 16, 9, 2)",
                "ParameterError"),
    "m4rm-t12": ("kernel.m4rm(c, a, b, 100, 70, 4, 16, 12, 2)",
                 "ParameterError"),
    "m4rm-bs0": ("kernel.m4rm(c, a, b, 100, 70, 4, 0, 2, 2)",
                 "ParameterError"),
    "m4rm-bs-negative": ("kernel.m4rm(c, a, b, 100, 70, 4, -1, 2, 2)",
                         "ParameterError"),
    "m4rm-n-negative": ("kernel.m4rm(c, a, b, 100, -1, 4, 16, 2, 2)",
                        "DimensionError"),
    "m4rm-huge-stride": ("kernel.m4rm(c, a, b, 100, 70, 4, 16, 2, 2**61)",
                         "MemoryError"),
    "m4rm-n0": ("kernel.m4rm(c, a, b, 100, 0, 4, 16, 2, 0)", "None"),
    "m4rm_t-t-k-over-64": ("kernel.m4rm_t(c, a, b, 100, 70, 9, 16, 8, 1)",
                           "ParameterError"),
    "m4rm_t-k0": ("kernel.m4rm_t(c, a, b, 100, 70, 0, 16, 2, 1)",
                  "ParameterError"),
    "m4rm_t-short-tables": ("kernel.m4rm_t(c, a, b, 100, 70, 4, 16, 2, 0)",
                            "DimensionError"),
    "m4rm_t-huge-stride": (
        "kernel.m4rm_t(c, a, b, 100, 70, 4, 16, 2, 2**61)", "MemoryError"),
    "m4rm_t-n0": ("kernel.m4rm_t(c, a, b, 100, 0, 4, 16, 2, 1)", "None"),
    "cubic-l-negative": ("kernel.cubic(c, a, b, -1, 70)", "DimensionError"),
    "transpose-short-a": ("kernel.transpose(b, a, 41, 100)",
                          "DimensionError"),
    "transpose-short-out": ("kernel.transpose(c, a, 40, 100)",
                            "DimensionError"),
    "transpose-negative": ("kernel.transpose(c, a, -1, 70)",
                           "DimensionError"),
    "transpose-args": ("kernel.transpose(c, a, 40)", "TypeError"),
    "pack-1d": ("kernel.pack(c, dense[0])", "DimensionError"),
    "pack-3d": ("kernel.pack(c, dense[None])", "DimensionError"),
    "pack-rows": ("kernel.pack(c, dense[1:])", "DimensionError"),
    "pack-cols": ("kernel.pack(c, dense[:, 1:])", "DimensionError"),
    "pack-int64": ("kernel.pack(c, dense.astype(np.int64))",
                   "ParameterError"),
    "pack-float": ("kernel.pack(c, dense.astype(np.float32))",
                   "ParameterError"),
    "pack-list": ("kernel.pack(c, dense.tolist())", "ParameterError"),
}


@needs_c
@pytest.mark.parametrize("case", ENTRY_CALLS)
def test_entries_check_their_arguments(case):
    """Each entry checks what it is given, independently of its callers,
    and raises before anything is allocated or written."""
    call, error = ENTRY_CALLS[case]
    assert run_python(ENTRY_CALL, call, error,
                      PYTHONMALLOC="debug").strip() == "ok"


# Runs products on every engine copy (the binaries in argv[1:]) under
# PYTHONMALLOC=debug, which fills each fresh raw block with 0xCD and checks
# the pads around it when it is freed: a scratch word read before it is
# written shows as a wrong product, and a write past the block as a fatal
# error. M4RM: k = 1..16, each with two t that together cover 1..8, one
# odd and one even, and l of t stripes and a narrower one (k > 1), so a
# row's lookups are odd in number for one of them and the same unwritten
# row read in every table cannot cancel; groups wider than the 64-bit
# window among them (t * k > 64); n of 1 word, 1 word ragged, 8 words and
# 9 and 10 words (rows padded to 16); t lowered, to one table at most,
# to keep the tables near 2^19 words. Cubic: n below, at and above 64
# columns, over l of one word, ragged and several. M4RM on the transpose:
# k = 1..8, each with t = min(8, 64 // k) (a group of a whole word, or
# nearly) and t = k, over C^T rows of 1, 3 and 10 words (padded to 1, 4
# and 16) and l of one, two and three windows of 256 columns, so groups
# cross a window's edge. A, B and C are windows with live bits around
# them.
SCRATCH_PRODUCTS = """
import os, sys
from pathlib import Path
import numpy as np
from gf2mat import _kernel, core
from gf2mat import _reference as ref
from gf2mat.m4rm import _table_layout

assert os.environ["PYTHONMALLOC"] == "debug"


def dirty_window(nrows, ncols, seed):
    parent = core.random(nrows + 4, 64 + ncols + 70, seed)
    return core.window(parent, 2, 64, nrows, ncols)


def check(run, m, l, n, seed):
    a = dirty_window(m, l, seed)
    b = dirty_window(l, n, seed + 1)
    c = dirty_window(m, n, seed + 2)
    expected = core.to_dense(c.parent)
    expected[2:2 + m, 64:64 + n] ^= ref.naive_product(a, b)
    run(c, a, b)
    assert np.array_equal(core.to_dense(c.parent), expected), (m, l, n)


m, b_s = 37, 16
for path in sys.argv[1:]:
    kernel = _kernel.CKernel(_kernel._load(Path(path)))
    for k in range(1, 17):
        for asked in sorted({(k - 1) % 8 + 1, 8 - (k - 1) % 8}):
            for n in (64, 37, 512, 571, 600):
                stride = _table_layout(m, 1, n, k, b_s, 1).table_stride
                t = max(1, min(asked, (1 << 19) // (stride << k)))
                l = t * k + (k + 1) // 2
                plan = _table_layout(m, l, n, k, b_s, t)
                check(lambda c, a, b: kernel.m4rm(
                    c, a, b, l, n, plan.k, b_s, t, plan.table_stride),
                    m, l, n, seed=k * n + t)
    for l in (64, 100, 300):
        for n in (1, 63, 64, 130):
            check(lambda c, a, b: kernel.cubic(c, a, b, l, n), 21, l, n,
                  seed=l + n)
    for k in range(1, 9):
        for t in sorted({min(8, 64 // k), k}):
            for mt, nt, l in ((37, 5, 70), (150, 70, 300), (600, 37, 530)):
                plan = _table_layout(mt, l, nt, k, 16, t, transposed=True)
                check(lambda c, a, b: kernel.m4rm_t(
                    c, a, b, l, nt, plan.k, 16, t, plan.table_stride),
                    mt, l, nt, seed=k * l + t)
print("ok")
"""


@needs_c
def test_scratch_is_safe(isa_kernels):
    """Every engine copy writes each scratch word before reading it and
    stays inside its scratch, on the allocator that makes both visible."""
    paths = [kernel._mod.__file__ for kernel in isa_kernels.values()]
    assert run_python(SCRATCH_PRODUCTS, *paths,
                      PYTHONMALLOC="debug").strip() == "ok"


@needs_c
@pytest.mark.parametrize("m,l,n", [(150, 200, 170), (40, 300, 600),
                                   (16, 1000, 40), (30, 700, 63),
                                   (800, 400, 50), (1000, 200, 40),
                                   (700, 64, 64)])
def test_peak_memory_counts_kernel_scratch(m, l, n):
    """tracemalloc sees the extension's scratch: one product on the
    compiled kernel peaks at no less than C's words plus the M4RM plan's
    scratch (its tables, and transposed also C^T and the windows of A and
    B), or plus B transposed for cubic, and words_allocated books exactly
    those words. The scratch is 5-25 KB, more than the objects of C, so a
    product whose scratch escaped the trace would fall short. The last
    three shapes run transposed."""
    params = MulParams(cutoff=1024, k=8, t=3)
    a = core.random(m, l, seed=m)
    b = core.random(l, n, seed=n)
    plan = _base_route(m, l, n, params, _kernel.MAX_TABLE_BYTES)
    scratch = n * core.words_per_row(l) if plan is None \
        else plan.scratch_words
    assert (plan is not None and plan.transposed) == (m >= 700)
    words = m * core.words_per_row(n) + scratch
    allocated = counters.words_allocated
    with _kernel.using("c"):
        peak = cli._peak_bytes(
            lambda a, b: mul_strassen(a, b, params), a, b)
    assert peak >= words * 8
    assert counters.words_allocated - allocated == words


# Table row widths in words: narrow ones padded to a power of two (3 and
# 5), and around one cache line (8 words) and two.
STRIDE_WIDTHS = (1, 3, 5, 7, 8, 9, 15, 16, 17)
# Table words a case may allocate (16 MiB), which caps t at the largest k.
MAX_TABLE_WORDS = 1 << 21


@needs_c
@pytest.mark.parametrize("width", STRIDE_WIDTHS)
@settings(max_examples=25, deadline=None)
@given(spare=st.integers(1, 63), k=st.integers(1, 16), t=st.integers(1, 8),
       m=st.integers(1, 40), groups=st.integers(1, 2),
       narrow=st.integers(0, 15), b_s=st.integers(4, 48))
def test_m4rm_table_stride_on_every_isa(isa_kernels, width, spare, k, t, m,
                                        groups, narrow, b_s):
    """Every engine copy, with the product's own padded table stride and
    with table rows as far apart as they are wide, gives the oracle's
    product. A stride that is a power of two turns a table index into a
    row address by a shift, any other by a multiply. Every padded stride
    here but 17's (24 words) is a power of two, and no bare width is one
    but 1, 8 and 16, so every copy runs both."""
    n = 64 * width - spare
    stride = 1 << (width - 1).bit_length() if width < 8 \
        else -(-width // 8) * 8
    t = max(1, min(t, MAX_TABLE_WORDS // (stride << k)))
    l = groups * t * k + narrow % k
    a = dirty_window(m, l, seed=41)
    b = dirty_window(l, n, seed=42)
    expected = ref.naive_product(a, b)
    assert _table_layout(m, l, n, k, b_s, t).table_stride == stride
    parents = []
    for kernel in isa_kernels.values():
        for t_stride in {stride, width}:
            c = dirty_window(m, n, seed=43)
            before = core.to_dense(c.parent)
            kernel.m4rm(c, a, b, l, n, k, b_s, t, t_stride)
            expect_added(c, before, expected)
            parents.append(c.parent.words)
    for words in parents:
        assert np.array_equal(words, parents[0])


@needs_c
@pytest.mark.parametrize("width", STRIDE_WIDTHS)
def test_m4rm_tables_start_on_cache_lines(monkeypatch, width):
    """The table scratch of an M4RM product has rows a whole number of
    cache lines apart once rows are 8 words or wider; narrower rows are
    a power of two words apart, the least that holds them. The
    extension's one block for them holds the tables and the 63 bytes
    that let them start on a line, and is gone when the call returns."""
    calls = []
    kernel = _kernel.get("c")
    m4rm = kernel.m4rm

    def spy(*args):
        peak = cli._peak_bytes(lambda *_: m4rm(*args), None, None)
        calls.append((args[-1], peak))

    monkeypatch.setattr(kernel, "m4rm", spy)
    n = 64 * width - 5
    a = core.random(30, 40, seed=44)
    b = core.random(40, n, seed=45)
    with _kernel.using("c"):
        c = mul_m4rm_multitable(a, b, 5, 3, 17)
    assert ref.first_mismatch(c, ref.naive_product(a, b)) is None
    [(stride, peak)] = calls
    if width >= 8:
        assert stride % 8 == 0 and 0 <= stride - width < 8
    else:
        assert stride & (stride - 1) == 0 and stride // 2 < width <= stride
    assert peak == (3 << 5) * stride * 8 + 63
