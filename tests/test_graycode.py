import numpy as np
import pytest

from conftest import from_rows
from gf2mat import _kernel, core
from gf2mat.counters import counters
from gf2mat.errors import DimensionError, ParameterError
from gf2mat.graycode import CombinationTable, build_gray, gray_code, make_table


def combination_oracle(b, start_row, k, x):
    """Brute-force XOR of the rows selected by x, bit k-1 = first row."""
    acc = np.zeros(b.ncols, dtype=np.uint8)
    for i in range(k):
        if (x >> (k - 1 - i)) & 1:
            acc ^= core.to_dense(b)[start_row + i]
    return acc


class TestBuildGray:
    def test_base_case(self):
        assert build_gray(1).code == (0, 1)

    def test_two_bit_sequence(self):
        assert build_gray(2).code == (0b00, 0b01, 0b11, 0b10)

    def test_three_bit_sequence(self):
        assert build_gray(3).code == (0b000, 0b001, 0b011, 0b010,
                                      0b110, 0b111, 0b101, 0b100)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_permutation_and_single_bit_steps(self, k):
        g = build_gray(k)
        assert g.code[0] == 0
        assert sorted(g.code) == list(range(1 << k))
        for j in range(1, 1 << k):
            step = g.code[j] ^ g.code[j - 1]
            assert bin(step).count("1") == 1
            assert g.changed_bit[j] == step.bit_length() - 1

    @pytest.mark.parametrize("k", range(1, 17))
    def test_reflected_binary_code(self, k):
        # The compiled table build walks j ^ (j >> 1) flipping bit ctz(j).
        g = build_gray(k)
        for j in range(1, 1 << k):
            assert g.code[j] == j ^ (j >> 1)
            assert g.changed_bit[j] == (j & -j).bit_length() - 1

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            build_gray(0)
        with pytest.raises(ParameterError):
            build_gray(17)

    def test_cache_returns_shared_object(self):
        assert gray_code(5) is gray_code(5)


@pytest.mark.parametrize("bad", [4.5, 32.0, "4"])
def test_non_integer_widths_raise_before_allocating(bad):
    gray_code(4)  # a cached width-4 code must not serve 4.0
    b = core.random(6, 10, seed=13)
    table = CombinationTable(8, 10)
    before = counters.words_allocated
    for make in (build_gray, gray_code, lambda k: CombinationTable(k, 10),
                 lambda k: make_table(b, 0, k, table)):
        with pytest.raises(ParameterError, match="must be an integer"):
            make(bad)
    assert counters.words_allocated == before


def test_numpy_integer_widths_accepted():
    assert build_gray(np.int64(4)) == build_gray(4)
    b = core.random(6, 10, seed=14)
    t1, t2 = CombinationTable(np.int64(4), 10), CombinationTable(4, 10)
    assert t1.capacity == 4
    make_table(b, np.int64(1), np.int64(4), t1)
    make_table(b, 1, 4, t2)
    assert core.equal(t1.matrix, t2.matrix)


class TestMakeTable:
    def test_k1_is_zero_then_row(self):
        b = core.random(4, 100, seed=1)
        t = CombinationTable(1, 100)
        make_table(b, 2, 1, t)
        assert not core.to_dense(t.matrix)[0].any()
        assert np.array_equal(core.to_dense(t.matrix)[1],
                              core.to_dense(b)[2])

    def test_k2_slot3_is_row_xor(self):
        b = core.random(2, 70, seed=2)
        t = CombinationTable(2, 70)
        make_table(b, 0, 2, t)
        expected = core.to_dense(b)[0] ^ core.to_dense(b)[1]
        assert np.array_equal(core.to_dense(t.matrix)[3], expected)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_all_slots_match_brute_force(self, k):
        b = core.random(k + 3, 130, seed=k)
        t = CombinationTable(k, 130)
        make_table(b, 1, k, t)
        dense = core.to_dense(t.matrix)
        for x in range(1 << k):
            assert np.array_equal(dense[x], combination_oracle(b, 1, k, x)), x

    @pytest.mark.parametrize("k", range(1, 13))
    def test_exactly_2k_minus_1_row_additions(self, k):
        b = core.random(16, 100, seed=40 + k)
        t = CombinationTable(k, 100)
        before = counters.table_adds
        make_table(b, 0, k, t)
        assert counters.table_adds - before == (1 << k) - 1

    def test_single_bit_indices_select_rows(self):
        k = 6
        b = core.random(k, 200, seed=3)
        t = CombinationTable(k, 200)
        make_table(b, 0, k, t)
        dense = core.to_dense(t.matrix)
        for i in range(k):
            assert np.array_equal(dense[1 << i],
                                  core.to_dense(b)[k - 1 - i]), i

    def test_linearity_spot_checks(self):
        k = 7
        b = core.random(k, 90, seed=4)
        t = CombinationTable(k, 90)
        make_table(b, 0, k, t)
        dense = core.to_dense(t.matrix)
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = int(rng.integers(0, 1 << k))
            y = int(rng.integers(0, 1 << k))
            assert np.array_equal(dense[x ^ y], dense[x] ^ dense[y])

    def test_reuse_with_smaller_width(self):
        b = core.random(8, 64, seed=6)
        t = CombinationTable(8, 64)
        make_table(b, 0, 8, t)
        make_table(b, 0, 3, t)
        assert t.k == 3
        dense = core.to_dense(t.matrix)
        for x in range(8):
            assert np.array_equal(dense[x], combination_oracle(b, 0, 3, x))

    def test_zero_slot_stays_zero(self):
        b = core.random(5, 77, seed=7)
        t = CombinationTable(5, 77)
        make_table(b, 0, 5, t)
        assert not core.to_dense(t.matrix)[0].any()

    def test_rows_field_tracks_fill_width(self):
        b = core.random(8, 64, seed=12)
        t = CombinationTable(8, 64)
        make_table(b, 0, 3, t)
        assert t.rows.shape == (8, 1)
        assert np.array_equal(t.rows, t.matrix.words[:8])
        for x in range(8):
            packed = core.from_dense(combination_oracle(b, 0, 3, x)[None])
            assert np.array_equal(t.row(x), packed.words[0])

    def test_source_window_with_live_right_edge(self):
        parent = core.random(6, 192, seed=8)
        win = core.window(parent, 0, 64, 6, 70)
        t = CombinationTable(4, 70)
        make_table(win, 1, 4, t)
        assert core.trailing_bits_clean(t.matrix)
        dense = core.to_dense(t.matrix)
        for x in range(16):
            assert np.array_equal(dense[x], combination_oracle(win, 1, 4, x))

    @pytest.mark.parametrize("backend", ["numpy", "scalar"])
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_window_source_on_python_kernels(self, k, width, backend):
        # The parent holds random bits on both sides of the window, so the
        # window's last word carries live bits beyond its right edge
        # unless the width is a whole number of words.
        parent = core.random(k + 2, 64 + width + 70, seed=8 + k + width)
        win = core.window(parent, 0, 64, k + 2, width)
        t = CombinationTable(k, width)
        with _kernel.using(backend):
            make_table(win, 1, k, t)
        assert core.trailing_bits_clean(t.matrix)
        assert not t.matrix.parent.words[:, t.matrix.width:].any()
        dense = core.to_dense(t.matrix)
        for x in range(1 << k):
            assert np.array_equal(dense[x], combination_oracle(win, 1, k, x))

    def test_range_and_width_errors(self):
        b = core.random(4, 50, seed=9)
        t = CombinationTable(4, 50)
        with pytest.raises(DimensionError):
            make_table(b, 2, 4, t)
        with pytest.raises(DimensionError):
            make_table(core.random(4, 51, seed=10), 0, 4, t)
        with pytest.raises(ParameterError):
            make_table(b, 0, 5, t)

    def test_scalar_mode_equivalent(self):
        b = core.random(6, 130, seed=11)
        t1 = CombinationTable(5, 130)
        t2 = CombinationTable(5, 130)
        make_table(b, 0, 5, t1)
        try:
            core.set_scalar_xor(True)
            make_table(b, 0, 5, t2)
        finally:
            core.set_scalar_xor(False)
        assert core.equal(t1.matrix, t2.matrix)
