import numpy as np
import pytest
from hypothesis import strategies as st

from gf2mat import _kernel, core


@pytest.fixture(scope="session", autouse=True)
def no_stray_kernel_builds():
    """Errors at the end of the session if the package's kernel cache
    gained a file that this interpreter never loads: a build under
    another interpreter's suffix, or a build's temporary file. Tests that
    build for other interpreters must build into their own cache."""
    def listed():
        return set(_kernel._CACHE_DIR.glob("gf2mat_kernel-*"))

    before = listed()
    yield
    stray = sorted(path.name for path in listed() - before
                   if path.suffix == ".tmp"
                   or not path.name.endswith(_kernel._EXT_SUFFIX))
    if stray:
        pytest.fail(f"stray files in {_kernel._CACHE_DIR}: {stray}")


# Edits of _kernel.c that leave the M4RM engine fewer instruction sets:
# AVX-512 never chosen, and the copies beyond the portable one compiled out.
ISA_EDITS = {
    "no-avx512": ('__builtin_cpu_supports("avx512f")', "0"),
    "portable": ("#if defined(__x86_64__) && defined(__GNUC__)", "#if 0"),
}


@pytest.fixture(scope="session")
def isa_kernels(tmp_path_factory):
    """The shipped C kernel and one build of each ISA_EDITS copy; none
    without the C kernel."""
    if "c" not in _kernel.available():
        return {}
    source = _kernel._SOURCE.read_text()
    kernels = {"shipped": _kernel.get("c")}
    for name, (old, new) in ISA_EDITS.items():
        edited = source.replace(old, new)
        assert edited != source, name
        path = _kernel._build(_kernel._compiler(), edited.encode(),
                              tmp_path_factory.mktemp(name), name)
        kernels[name] = _kernel.CKernel(_kernel._load(path))
    return kernels


def from_rows(rows) -> core.BitMatrix:
    """Build a small matrix from a list of 0/1 row lists."""
    return core.from_dense(np.array(rows, dtype=np.uint8))


def rows_of(a) -> list:
    return core.to_dense(a).tolist()


def random_triple(rng, lo, hi):
    return (int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)),
            int(rng.integers(lo, hi + 1)))


@st.composite
def nested_windows(draw, nrows=None, ncols=None):
    """A random parent, a chain of 1..3 nested windows into it (64-aligned
    column offsets, ragged widths) and the innermost one's offsets. Given
    `nrows` or `ncols` (at most 300), the innermost window has that many
    rows or columns."""
    lo_r, lo_c = nrows or 0, ncols or 0
    parent = core.random(draw(st.integers(lo_r, 300)),
                         draw(st.integers(lo_c, 300)),
                         seed=draw(st.integers(0, 2 ** 32)))
    win, r0, c0 = parent, 0, 0
    levels = draw(st.integers(1, 3))
    for level in range(levels):
        ro = draw(st.integers(0, win.nrows - lo_r))
        co = 64 * draw(st.integers(0, (win.ncols - lo_c) // 64))
        last = level == levels - 1
        nr = nrows if last and nrows is not None else \
            draw(st.integers(lo_r, win.nrows - ro))
        nc = ncols if last and ncols is not None else \
            draw(st.integers(lo_c, win.ncols - co))
        win = core.window(win, ro, co, nr, nc)
        r0, c0 = r0 + ro, c0 + co
    return parent, win, r0, c0
