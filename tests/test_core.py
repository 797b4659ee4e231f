import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import from_rows, nested_windows, rows_of
from gf2mat import _kernel, _reference, core
from gf2mat.counters import counters
from gf2mat.errors import (AlignmentError, DimensionError, FormatError,
                           GF2MatError, ParameterError)


def read_bits_oracle(a, r, sc, k):
    """Brute-force per-bit evaluation of the read_bits formula."""
    v = 0
    for i in range(k):
        v = (v << 1) | core.get_bit(a, r, sc + i)
    return v


class TestCreate:
    def test_zero_matrix(self):
        m = core.create(2, 2)
        assert rows_of(m) == [[0, 0], [0, 0]]

    def test_width_exact_word(self):
        assert core.create(3, 64).width == 1

    def test_width_overflow_word(self):
        m = core.create(1, 65)
        assert m.width == 2
        core.set_bit(m, 0, 64, 1)
        assert core.get_bit(m, 0, 64) == 1

    @pytest.mark.parametrize("nrows,ncols", [
        (0, 0), (0, 40), (0, 600), (4, 0), (1, 1), (3, 63), (3, 600)])
    def test_root_records_its_address(self, nrows, ncols):
        # `data` is a flat view of `words`, whose rows are `width` words
        # apart.
        m = core.create(nrows, ncols)
        assert m.words.ctypes.data == m.data.ctypes.data
        assert m.words.shape == (nrows, m.width)
        assert m.words.flags.c_contiguous

    @pytest.mark.parametrize("ncols", [449, 512, 4133])
    def test_rows_of_eight_words_start_on_a_cache_line(self, ncols):
        for nrows in (1, 3, 100):
            m = core.create(nrows, ncols)
            assert m.data.ctypes.data % 64 == 0
            assert m.data.size == nrows * m.width
        assert core.random(5, ncols, seed=1).data.ctypes.data % 64 == 0

    @pytest.mark.parametrize("ncols,padded", [
        (0, 0), (1, 1), (64, 64), (65, 65), (128, 128), (129, 256),
        (192, 256), (256, 256), (257, 512), (448, 512), (449, 449),
        (512, 512), (513, 1024), (600, 1024), (4133, 4608)])
    def test_padded_cols(self, ncols, padded):
        """Scratch rows narrower than a line are padded to a power of two
        words, wider ones to whole lines; ncols is kept when it needs no
        padding, and 0 stays 0."""
        assert core.padded_cols(ncols) == padded

    def test_empty_dims_legal(self):
        for shape in [(0, 0), (0, 5), (5, 0)]:
            m = core.create(*shape)
            assert m.shape == shape
            assert core.equal(m, core.copy_out(m))

    def test_negative_dims_rejected(self):
        with pytest.raises(DimensionError):
            core.create(-1, 3)


def window_of_parent(*args):
    return core.window(WINDOW_PARENT, *args)


WINDOW_PARENT = core.random(4, 200, seed=2)
# Every size, offset and seed of the matrix constructors and of window,
# spoiled in turn: (call, arguments, index of the spoiled one).
INTEGER_ARGUMENTS = [
    (core.create, (2, 3), 0), (core.create, (2, 3), 1),
    (core.identity, (2,), 0),
    (core.random, (2, 3, 1), 0), (core.random, (2, 3, 1), 1),
    (core.random, (2, 3, 1), 2),
    *[(window_of_parent, (1, 64, 2, 3), i) for i in range(4)],
]


@pytest.mark.parametrize("bad", [4.5, 32.0, "4"])
@pytest.mark.parametrize("call,args,spoiled", INTEGER_ARGUMENTS)
def test_non_integer_sizes_raise_before_allocating(call, args, spoiled,
                                                   bad):
    """A float or string size, offset or seed raises ParameterError
    before anything is allocated."""
    args = list(args)
    args[spoiled] = bad
    before = counters.words_allocated
    with pytest.raises(ParameterError, match="must be an integer"):
        call(*args)
    assert counters.words_allocated == before


@pytest.mark.parametrize("call,args,spoiled", INTEGER_ARGUMENTS)
def test_numpy_integer_sizes_accepted(call, args, spoiled):
    expected = call(*args)
    args = list(args)
    args[spoiled] = np.int64(args[spoiled])
    got = call(*args)
    assert core.equal(got, expected)
    assert all(type(x) is int for x in (got.nrows, got.ncols))


# The bit and row accessors and create, each as a call on one operand
# matrix with arguments that work: (call, integer arguments).
ACCESSORS = {
    "get_bit": (core.get_bit, (1, 70)),
    "set_bit": (core.set_bit, (1, 70, 1)),
    "read_bits": (core.read_bits, (1, 60, 8)),
    "row_add": (lambda m, r1, r2: core.row_add(m, r1, m, r2), (0, 2)),
    "create": (lambda m, nrows, ncols: core.create(nrows, ncols), (2, 3)),
}
ACCESSOR_ARGUMENTS = [(name, i) for name, (_, args) in ACCESSORS.items()
                      for i in range(len(args))]


@pytest.mark.parametrize("backend", _kernel.available())
@pytest.mark.parametrize("bad", [4.5, 1.0, "4", None])
@pytest.mark.parametrize("name,spoiled", ACCESSOR_ARGUMENTS)
def test_non_integer_accessor_arguments_raise_before_writing(name, spoiled,
                                                             bad, backend):
    """A non-integer index, width, value or size raises a GF2MatError
    before any counter moves or any word of the operand is written."""
    call, args = ACCESSORS[name]
    args = list(args)
    args[spoiled] = bad
    m = core.random(3, 130, seed=9)
    words = m.words.copy()
    before = dataclasses.asdict(counters)
    with _kernel.using(backend), pytest.raises(GF2MatError):
        call(m, *args)
    assert dataclasses.asdict(counters) == before
    assert np.array_equal(m.words, words)


@pytest.mark.parametrize("backend", _kernel.available())
@pytest.mark.parametrize("name,spoiled", ACCESSOR_ARGUMENTS)
def test_numpy_integer_accessor_arguments_accepted(name, spoiled, backend):
    call, args = ACCESSORS[name]
    m, expected_m = core.random(3, 130, seed=9), core.random(3, 130, seed=9)
    with _kernel.using(backend):
        expected = call(expected_m, *args)
        args = list(args)
        args[spoiled] = np.int64(args[spoiled])
        got = call(m, *args)
    assert got == expected
    assert core.equal(m, expected_m)


@pytest.mark.parametrize("call,args", [
    (core.create, (2 ** 40, 2 ** 40)), (core.create, (2 ** 62, 64)),
    (core.identity, (2 ** 40,)), (core.random, (2 ** 40, 2 ** 40, 1))])
def test_oversized_matrix_raises_before_allocating(call, args):
    """More bytes than sys.maxsize raise DimensionError, not numpy's
    ValueError, before anything is allocated."""
    before = counters.words_allocated
    with pytest.raises(DimensionError, match="more bytes"):
        call(*args)
    assert counters.words_allocated == before


class TestGetSetBit:
    def test_identity_diagonal(self):
        assert core.get_bit(core.identity(4), 2, 2) == 1

    def test_identity_off_diagonal(self):
        assert core.get_bit(core.identity(4), 2, 3) == 0

    def test_roundtrip_across_word_boundary(self):
        m = core.create(1, 100)
        core.set_bit(m, 0, 70, 1)
        assert core.get_bit(m, 0, 70) == 1

    def test_set_clear_involution(self):
        m = core.random(3, 90, seed=5)
        before = rows_of(m)
        orig = core.get_bit(m, 1, 88)
        core.set_bit(m, 1, 88, 1 - orig)
        core.set_bit(m, 1, 88, orig)
        assert rows_of(m) == before

    def test_last_column_keeps_trailing_clean(self):
        m = core.create(2, 65)
        core.set_bit(m, 0, 64, 1)
        assert core.trailing_bits_clean(m)

    def test_all_ones_row_gives_full_words(self):
        m = core.create(1, 128)
        for c in range(128):
            core.set_bit(m, 0, c, 1)
        assert m.words[0, 0] == 0xFFFFFFFFFFFFFFFF
        assert m.words[0, 1] == 0xFFFFFFFFFFFFFFFF

    def test_out_of_range_is_contract_violation(self):
        m = core.create(2, 2)
        with pytest.raises(IndexError):
            core.get_bit(m, 2, 0)
        with pytest.raises(IndexError):
            core.set_bit(m, 0, 2, 1)


class TestRowAdd:
    def test_self_add_zeroes_row(self):
        m = core.random(2, 100, seed=1)
        core.row_add(m, 0, m, 0)
        assert rows_of(m)[0] == [0] * 100

    def test_xor_truth_table(self):
        m = from_rows([[1, 0, 1], [0, 1, 1]])
        core.row_add(m, 0, m, 1)
        assert rows_of(m)[0] == [1, 1, 0]

    def test_involution(self):
        m = core.random(4, 130, seed=2)
        before = rows_of(m)
        core.row_add(m, 1, m, 3)
        core.row_add(m, 1, m, 3)
        assert rows_of(m) == before

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            core.row_add(core.create(1, 5), 0, core.create(1, 6), 0)

    def test_window_target_preserves_outside_bits(self):
        parent = core.random(2, 128, seed=3)
        snapshot = rows_of(parent)
        win = core.window(parent, 0, 0, 2, 70)
        core.row_add(win, 0, win, 1)
        after = rows_of(parent)
        for c in range(70):
            assert after[0][c] == snapshot[0][c] ^ snapshot[1][c]
        assert after[0][70:] == snapshot[0][70:]
        assert after[1] == snapshot[1]


class TestReadBits:
    def test_direct_formula(self):
        m = from_rows([[1, 0, 1, 1]])
        assert core.read_bits(m, 0, 0, 4) == 11

    def test_zero_row(self):
        m = core.create(1, 40)
        for sc, k in [(0, 1), (3, 8), (24, 16)]:
            assert core.read_bits(m, 0, sc, k) == 0

    def test_word_boundary_crossing(self):
        m = core.create(1, 128)
        core.set_bit(m, 0, 64, 1)
        assert core.read_bits(m, 0, 62, 4) == 2

    def test_matches_per_bit_oracle_everywhere(self):
        # rows up to 4 words wide, every (start, width) pair
        m = core.random(1, 256, seed=7)
        for k in range(1, 17):
            for sc in range(0, 256 - k + 1):
                assert core.read_bits(m, 0, sc, k) == \
                    read_bits_oracle(m, 0, sc, k), (sc, k)

    def test_range_violations(self):
        m = core.create(1, 10)
        with pytest.raises(IndexError):
            core.read_bits(m, 0, 8, 4)
        with pytest.raises(IndexError):
            core.read_bits(m, 0, 0, 17)


class TestAdd:
    def test_self_inverse(self):
        a = core.random(9, 70, seed=4)
        assert core.equal(core.add(a, a), core.create(9, 70))

    def test_zero_neutral(self):
        a = core.random(9, 70, seed=5)
        assert core.equal(core.add(a, core.create(9, 70)), a)

    def test_per_entry_oracle(self):
        a = core.random(100, 100, seed=6)
        b = core.random(100, 100, seed=7)
        got = core.to_dense(core.add(a, b))
        expected = core.to_dense(a) ^ core.to_dense(b)
        assert np.array_equal(got, expected)

    def test_commutative_associative(self):
        a = core.random(20, 33, seed=8)
        b = core.random(20, 33, seed=9)
        c = core.random(20, 33, seed=10)
        assert core.equal(core.add(a, b), core.add(b, a))
        assert core.equal(core.add(core.add(a, b), c),
                          core.add(a, core.add(b, c)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            core.add(core.create(2, 3), core.create(3, 2))

    def test_in_place_variant_aliases(self):
        a = core.random(5, 100, seed=11)
        b = core.random(5, 100, seed=12)
        expected = core.add(a, b)
        core.add_into(a, a, b)
        assert core.equal(a, expected)


class TestWindow:
    def test_full_window_behaves_like_matrix(self):
        a = core.random(6, 193, seed=13)
        w = core.window(a, 0, 0, a.nrows, a.ncols)
        assert core.equal(w, a)
        assert rows_of(w) == rows_of(a)

    def test_offset_window_reads_region(self):
        a = core.random(4, 128, seed=14)
        w = core.window(a, 1, 64, 2, 64)
        dense = core.to_dense(a)
        assert np.array_equal(core.to_dense(w), dense[1:3, 64:128])

    def test_aliasing_both_directions(self):
        a = core.create(4, 128)
        w = core.window(a, 1, 64, 2, 64)
        core.set_bit(w, 0, 0, 1)
        assert core.get_bit(a, 1, 64) == 1
        core.set_bit(a, 2, 70, 1)
        assert core.get_bit(w, 1, 6) == 1

    def test_window_of_window_flattens(self):
        a = core.random(8, 256, seed=15)
        w1 = core.window(a, 2, 64, 6, 192)
        w2 = core.window(w1, 1, 64, 3, 64)
        assert w2.parent is a
        dense = core.to_dense(a)
        assert np.array_equal(core.to_dense(w2), dense[3:6, 128:192])

    def test_misaligned_column_rejected(self):
        a = core.create(4, 128)
        with pytest.raises(AlignmentError):
            core.window(a, 0, 32, 2, 64)

    def test_out_of_bounds_rejected(self):
        a = core.create(4, 128)
        with pytest.raises(DimensionError):
            core.window(a, 0, 64, 2, 65)
        with pytest.raises(DimensionError):
            core.window(a, 3, 0, 2, 64)

    def test_window_of_window_wider_than_window_rejected(self):
        w = core.window(core.random(100, 200, seed=16), 10, 64, 10, 64)
        with pytest.raises(DimensionError):
            core.window(w, 0, 0, 20, 128)

    def test_window_of_window_before_window_rejected(self):
        w = core.window(core.random(100, 200, seed=17), 10, 64, 10, 64)
        with pytest.raises(DimensionError):
            core.window(w, -5, 0, 5, 64)


class TestCopyOut:
    def test_full_copy_equal(self):
        a = core.random(5, 70, seed=16)
        assert core.equal(core.copy_out(core.window(a, 0, 0, 5, 70)), a)

    def test_copy_is_owned(self):
        a = core.random(5, 70, seed=17)
        c = core.copy_out(core.window(a, 0, 0, 5, 70))
        before = rows_of(a)
        core.set_bit(c, 0, 0, 1 - core.get_bit(c, 0, 0))
        assert rows_of(a) == before

    def test_ragged_width_clean(self):
        a = core.random(4, 192, seed=18)
        w = core.window(a, 1, 64, 3, 65)
        c = core.copy_out(w)
        assert c.width == 2
        assert core.trailing_bits_clean(c)
        assert np.array_equal(core.to_dense(c), core.to_dense(w))


class TestAugmentStack:
    def test_augment_word_aligned(self):
        a = core.random(2, 64, seed=19)
        b = core.random(2, 64, seed=20)
        c = core.augment(a, b)
        assert c.shape == (2, 128)
        assert np.array_equal(c.words[:, 0], a.words[:, 0])
        assert np.array_equal(c.words[:, 1], b.words[:, 0])

    def test_augment_with_zero_block(self):
        a = core.random(3, 70, seed=21)
        c = core.augment(a, core.create(3, 30))
        assert np.array_equal(core.to_dense(c)[:, :70], core.to_dense(a))
        assert not core.to_dense(c)[:, 70:].any()

    def test_augment_ragged_per_entry(self):
        a = from_rows([[1, 0, 1], [0, 1, 1]])
        b = core.random(2, 70, seed=22)
        c = core.augment(a, b)
        da, db, dc = core.to_dense(a), core.to_dense(b), core.to_dense(c)
        assert np.array_equal(dc[:, :3], da)
        assert np.array_equal(dc[:, 3:], db)

    def test_augment_row_mismatch(self):
        with pytest.raises(DimensionError):
            core.augment(core.create(2, 3), core.create(3, 3))

    def test_stack_order(self):
        a = core.random(1, 90, seed=23)
        b = core.random(1, 90, seed=24)
        c = core.stack(a, b)
        assert c.shape == (2, 90)
        assert rows_of(c) == rows_of(a) + rows_of(b)

    def test_stack_with_empty(self):
        a = core.random(3, 50, seed=25)
        assert core.equal(core.stack(a, core.create(0, 50)), a)

    def test_stack_index_identity(self):
        a = core.random(3, 70, seed=26)
        b = core.random(2, 70, seed=27)
        c = core.stack(a, b)
        for i in range(2):
            for j in (0, 35, 69):
                assert core.get_bit(c, a.nrows + i, j) == core.get_bit(b, i, j)

    def test_stack_col_mismatch(self):
        with pytest.raises(DimensionError):
            core.stack(core.create(2, 3), core.create(2, 4))


class TestTranspose:
    def test_involution(self):
        a = core.random(33, 170, seed=28)
        assert core.equal(core.transpose(core.transpose(a)), a)

    def test_identity_fixed(self):
        i = core.identity(65)
        assert core.equal(core.transpose(i), i)

    def test_per_entry_oracle(self):
        a = core.random(65, 130, seed=29)
        at = core.transpose(a)
        assert np.array_equal(core.to_dense(at), core.to_dense(a).T)


class TestEqualRandom:
    def test_reflexive(self):
        a = core.random(17, 80, seed=30)
        assert core.equal(a, a)

    def test_bit_flip_detected(self):
        a = core.random(17, 80, seed=31)
        b = core.copy_out(a)
        core.set_bit(b, 16, 79, 1 - core.get_bit(b, 16, 79))
        assert not core.equal(a, b)
        assert core.first_difference(a, b) == (16, 79)

    def test_deterministic(self):
        assert core.equal(core.random(100, 100, seed=42),
                          core.random(100, 100, seed=42))

    def test_different_seeds_differ(self):
        assert not core.equal(core.random(100, 100, seed=42),
                              core.random(100, 100, seed=43))

    def test_first_difference_none_when_equal(self):
        a = core.random(5, 70, seed=32)
        assert core.first_difference(a, core.copy_out(a)) is None

    def test_operators(self):
        # ==, hash, m[r, c] and repr on matrices and windows.
        a = core.random(5, 130, seed=33)
        w = core.window(a, 1, 64, 3, 66)
        copy = core.copy_out(w)
        assert w == copy and copy == w and a != w
        assert (a == "a") is False
        # Matrices are mutable and compare by entries, so they are
        # unhashable: equal matrices cannot hash equally and stay usable
        # as keys after a write.
        for mat in (a, w, copy):
            with pytest.raises(TypeError):
                hash(mat)
        assert w[2, 65] == core.get_bit(a, 3, 129)
        w[2, 65] = 1 - w[2, 65]
        assert core.get_bit(a, 3, 129) == w[2, 65] and w != copy
        with pytest.raises(IndexError):
            w[3, 0]
        assert repr(a) == "BitMatrix(5x130)"
        assert repr(w) == "MatrixWindow(3x66@(1,64))"


def packed_words(dense) -> list[list[int]]:
    """Each row's words as Python integers, bit by bit from the low bit of
    every entry (column c at bit 63 - c % 64 of word c // 64)."""
    nrows, ncols = dense.shape
    rows = []
    for r in range(nrows):
        words = [0] * ((ncols + 63) // 64)
        for c in range(ncols):
            words[c // 64] |= (int(dense[r, c]) & 1) << (63 - c % 64)
        rows.append(words)
    return rows


@st.composite
def dense_inputs(draw):
    """A 2-D array of one of several dtypes and value ranges, given as is,
    transposed or step-sliced; often with no rows or no columns, and
    ncols % 64 often 0, 1 or 63, ncols % 8 often 0, 1 or 7."""
    nrows = draw(st.one_of(st.integers(0, 40), st.sampled_from([0, 1])))
    ncols = draw(st.one_of(
        st.integers(0, 200),
        st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192,
                         193, 255, 256, 257])))
    dtype, values = draw(st.sampled_from([
        (np.uint8, st.integers(0, 1)),
        (np.bool_, st.booleans()),
        (np.int64, st.integers(0, 1)),
        (np.int64, st.integers(-2 ** 40, 2 ** 40)),
        (np.uint8, st.sampled_from([0, 1, 2, 3, 255])),
        (np.uint8, st.integers(0, 255))]))
    layout = draw(st.sampled_from(["plain", "transposed", "sliced"]))
    rs, cs = (draw(st.integers(1, 3)), draw(st.integers(1, 3))) \
        if layout == "sliced" else (1, 1)
    shape = (ncols, nrows) if layout == "transposed" else \
        (nrows * rs, ncols * cs)
    base = draw(hnp.arrays(dtype, shape, elements=values))
    if layout == "transposed":
        return base.T
    return base[::rs, ::cs]


def words_of(a) -> list[list[int]]:
    return [[int(w) for w in row] for row in a.words]


class TestFromDense:
    @settings(max_examples=300, deadline=None)
    @given(dense=dense_inputs())
    def test_packs_the_low_bit_of_every_entry(self, isa_kernels, dense):
        """Exact words, the entries' low bits and zero trailing bits, on
        every backend and from every build of the compiled kernel, whose
        packer must also overwrite whatever its target held."""
        nrows, ncols = dense.shape
        width = (ncols + 63) // 64
        expected = packed_words(dense)
        low = dense.astype(np.uint8) & 1
        for backend in _kernel.available():
            with _kernel.using(backend):
                start = counters.words_allocated
                a = core.from_dense(dense)
                assert counters.words_allocated - start == nrows * width
                assert (a.nrows, a.ncols, a.width) == (nrows, ncols, width)
                assert words_of(a) == expected, backend
                assert core.trailing_bits_clean(a)
                assert np.array_equal(core.to_dense(a), low)
                assert core.from_dense(low) == a
                assert core.from_dense(core.to_dense(a)) == a
        if dense.dtype != np.bool_:
            dense = dense.astype(np.uint8, copy=False)
        for name, kernel in isa_kernels.items():
            out = core.random(nrows, ncols, seed=1)
            out.words[:] = ~out.words
            kernel.pack(out, dense)
            assert words_of(out) == expected, name

    @pytest.mark.parametrize("ncols", [4, 8, 64, 71, 130])
    def test_bool_bytes_other_than_0_and_1_are_true(self, isa_kernels,
                                                   ncols):
        """A bool view of other bytes packs each nonzero byte as 1 on every
        backend and build, consecutive, transposed or column-sliced."""
        rng = np.random.default_rng(ncols)
        raw = rng.choice(np.array([0, 1, 2, 3, 128, 254, 255], np.uint8),
                         size=(5, 2 * ncols))
        for dense in (raw[:, :ncols], raw.T[:ncols], raw[:, ::2]):
            expected = packed_words(dense != 0)
            dense = dense.view(np.bool_)
            for backend in _kernel.available():
                with _kernel.using(backend):
                    assert words_of(core.from_dense(dense)) == expected, \
                        backend
            for name, kernel in isa_kernels.items():
                out = core.create(*dense.shape)
                kernel.pack(out, dense)
                assert words_of(out) == expected, name

    def test_leaves_its_input_as_it_was(self):
        dense = np.array([[0, 1, 2, 3], [255, 254, 1, 0]], dtype=np.uint8)
        kept = dense.copy()
        assert rows_of(core.from_dense(dense)) == [[0, 1, 0, 1],
                                                   [1, 0, 1, 0]]
        assert np.array_equal(dense, kept)

    def test_lists_and_bad_ranks(self):
        assert rows_of(core.from_dense([[1, 0, 1], [0, 1, 1]])) == \
            [[1, 0, 1], [0, 1, 1]]
        for bad in (np.zeros(3, np.uint8), np.zeros((2, 2, 2), np.uint8)):
            with pytest.raises(DimensionError):
                core.from_dense(bad)


class TestTrailingCleanliness:
    def test_fuzz_all_ops(self):
        rng = np.random.default_rng(123)
        for trial in range(15):
            m = int(rng.integers(1, 201))
            n = int(rng.integers(1, 201))
            if n % 64 == 0:
                n += 1
            a = core.random(m, n, seed=trial)
            b = core.random(m, n, seed=trial + 1000)
            assert core.trailing_bits_clean(a)
            core.set_bit(a, m - 1, n - 1, 1)
            assert core.trailing_bits_clean(a)
            core.row_add(a, 0, b, m - 1)
            assert core.trailing_bits_clean(a)
            assert core.trailing_bits_clean(core.add(a, b))
            core.add_into(a, a, b)
            assert core.trailing_bits_clean(a)
            assert core.trailing_bits_clean(core.copy_out(a))
            assert core.trailing_bits_clean(core.augment(a, b))
            assert core.trailing_bits_clean(core.stack(a, b))
            assert core.trailing_bits_clean(core.transpose(a))
            t = core.create(m, n)
            core.copy_into(t, a)
            assert core.trailing_bits_clean(t)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        a = core.random(37, 130, seed=33)
        path = tmp_path / "a.gf2m"
        core.save(a, path)
        assert core.equal(core.load(path), a)

    def test_empty_round_trip(self, tmp_path):
        a = core.create(0, 17)
        path = tmp_path / "e.gf2m"
        core.save(a, path)
        assert core.load(path).shape == (0, 17)

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.gf2m"
        a = core.random(2, 10, seed=34)
        core.save(a, path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 0"):
            core.load(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.gf2m"
        core.save(core.random(2, 10, seed=35), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 4"):
            core.load(path)

    def test_dirty_trailing_bits_rejected_with_offset(self, tmp_path):
        path = tmp_path / "bad.gf2m"
        core.save(core.random(3, 10, seed=36), path)
        raw = bytearray(path.read_bytes())
        # row 1 occupies one word; poison a bit beyond column 10
        word_off = 21 + 1 * 8
        raw[word_off + 0] |= 1  # little-endian low byte = bit 63 - 63
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"offset {word_off}"):
            core.load(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.gf2m"
        core.save(core.random(3, 100, seed=37), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            core.load(path)


    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.gf2m"
        old = core.random(40, 300, seed=38)
        core.save(old, path)
        before = path.read_bytes()
        real_fdopen = os.fdopen

        class DiskFull:
            """A file whose second write fails, after the header."""

            def __init__(self, fd, mode):
                self.fh = real_fdopen(fd, mode)
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    self.fh.write(bytes(memoryview(data)[:100]))
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(os, "fdopen", DiskFull)
        with pytest.raises(OSError, match="No space"):
            core.save(core.random(40, 300, seed=39), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert core.equal(core.load(path), old)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.gf2m"]

    def test_save_replaces_and_writes_windows(self, tmp_path):
        path = tmp_path / "a.gf2m"
        core.save(core.random(5, 5, seed=40), path)
        parent = core.random(30, 260, seed=41)
        win = core.window(parent, 3, 64, 20, 130)  # parent bits lie beyond
        core.save(win, str(path))
        assert core.equal(core.load(path), win)
        assert core.trailing_bits_clean(core.load(path))
        assert [p.name for p in tmp_path.iterdir()] == ["a.gf2m"]

    def test_load_peak_is_about_the_matrix(self, tmp_path):
        path = tmp_path / "big.gf2m"
        a = core.random(512, 4096, seed=42)
        core.save(a, path)
        nbytes = a.data.nbytes
        tracemalloc.start()
        try:
            got = core.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert core.equal(got, a)
        assert peak < 1.2 * nbytes, (peak, nbytes)

    def test_size_checked_before_allocating(self, tmp_path):
        path = tmp_path / "bad.gf2m"
        core.save(core.random(3, 100, seed=43), path)
        raw = bytearray(path.read_bytes())
        raw[5:13] = (1 << 40).to_bytes(8, "little")  # 2^40 rows claimed
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="file length"):
            core.load(path)


class TestScalarXorMode:
    def test_same_results_as_wide_path(self):
        a = core.random(7, 130, seed=38)
        b = core.random(7, 130, seed=39)
        wide = core.add(a, b)
        try:
            core.set_scalar_xor(True)
            scalar = core.add(a, b)
            m = core.copy_out(a)
            core.row_add(m, 2, b, 3)
        finally:
            core.set_scalar_xor(False)
        assert core.equal(scalar, wide)
        expected = core.copy_out(a)
        core.row_add(expected, 2, b, 3)
        assert core.equal(m, expected)


class TestWindowAddressing:
    """Every read through a (nested) window sees exactly its slice of the
    parent, whatever live bits lie beyond its edges."""

    @settings(max_examples=150, deadline=None)
    @given(nested_windows(), st.randoms(use_true_random=False))
    def test_reads_match_parent_slice(self, case, rnd):
        parent, win, r0, c0 = case
        want = core.to_dense(parent)[r0:r0 + win.nrows, c0:c0 + win.ncols]
        assert np.array_equal(core.to_dense(win), want)
        assert np.array_equal(_reference.unpack_entries(win), want)
        if win.nrows == 0 or win.ncols == 0:
            return
        for _ in range(50):
            r, c = rnd.randrange(win.nrows), rnd.randrange(win.ncols)
            assert core.get_bit(win, r, c) == want[r, c]
        for k in range(1, min(16, win.ncols) + 1):
            r = rnd.randrange(win.nrows)
            # one span anywhere and, where the window allows, one that
            # crosses a word boundary
            starts = {rnd.randrange(win.ncols - k + 1)}
            if 64 - k // 2 + k <= win.ncols:
                starts.add(64 - k // 2)
            for sc in starts:
                expect = int("".join(map(str, want[r, sc:sc + k])), 2)
                assert core.read_bits(win, r, sc, k) == expect

    @settings(max_examples=150, deadline=None)
    @given(nested_windows())
    def test_recorded_address_and_stride(self, case):
        parent, win, r0, c0 = case
        # A window's `words` start at its first word of the root's and
        # keep the root's row stride.
        if win.words.size:
            assert win.words.ctypes.data == parent.words.ctypes.data + 8 * (
                r0 * parent.width + c0 // 64)
        for mat in (parent, win):
            if mat.nrows > 1 and mat.width:
                assert mat.words.strides == (8 * parent.width, 8)

    @settings(max_examples=100, deadline=None)
    @given(nested_windows(), st.sampled_from(
        ["row_before", "col_before", "rows_past", "cols_past", "negative"]))
    def test_sub_window_outside_window_raises(self, case, how):
        _, win, _, _ = case
        ro, co, nr, nc = 0, 0, win.nrows, win.ncols
        if how == "row_before":
            ro = -1
        elif how == "col_before":
            co = -64
        elif how == "rows_past":
            nr += 1
        elif how == "cols_past":
            nc += 1
        else:
            nr = -1
        with pytest.raises(DimensionError):
            core.window(win, ro, co, nr, nc)
