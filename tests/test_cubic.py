import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import from_rows, random_triple
from gf2mat import _kernel, core, cubic
from gf2mat import _reference as ref
from gf2mat.cubic import mul_cubic, parity64, parity_accumulate
from gf2mat.errors import DimensionError


class TestParity:
    def test_even_popcount_word(self):
        assert parity_accumulate([0xFFFFFFFFFFFFFFFF]) == 0

    def test_single_bit(self):
        assert parity_accumulate([0x1]) == 1

    def test_fold_then_parity(self):
        # 3 ^ 5 = 6, two bits set
        assert parity_accumulate([3, 5]) == 0
        assert parity_accumulate([3, 4]) == 1

    def test_parity64_matches_scalar_popcounts(self):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 1 << 63, size=64, dtype=np.uint64)
        packed = parity64(words)
        for i in range(64):
            expected = int(words[i]).bit_count() & 1
            assert (packed >> (63 - i)) & 1 == expected, i

    def test_parity_without_bitwise_count(self, monkeypatch):
        # numpy before 2.0 has no bitwise_count; the shift-fold fallback
        # gives the same parities and numpy-kernel products.
        monkeypatch.setattr(cubic, "_HAS_BITWISE_COUNT", False)
        words = core.random(1, 64 * 200, seed=16).words[0]
        expected = [int(w).bit_count() & 1 for w in words]
        assert cubic._popcount_parity(words).tolist() == expected
        a = core.random(37, 130, seed=17)
        b = core.random(130, 100, seed=18)
        with _kernel.using("numpy"):
            got = mul_cubic(a, b)
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None

    @given(st.integers(1, 16).flatmap(lambda nb: st.lists(
        st.sampled_from([0, (1 << 64) - 1]) | st.integers(0, (1 << 64) - 1),
        min_size=64 * nb, max_size=64 * nb)))
    def test_parity64_blocks_match_popcounts(self, words):
        blocks = np.array(words, dtype=np.uint64).reshape(-1, 64)
        kept = blocks.copy()
        packed = cubic._parity64_blocks(blocks)
        assert np.array_equal(blocks, kept)
        assert packed.shape == (len(blocks),)
        for i, block in enumerate(blocks.tolist()):
            expected = sum((w.bit_count() & 1) << (63 - j)
                           for j, w in enumerate(block))
            assert int(packed[i]) == expected, i

    def test_parity64_wrong_length(self):
        with pytest.raises(DimensionError):
            parity64(np.zeros(63, dtype=np.uint64))


class TestMulCubic:
    def test_identity_right(self):
        a = core.random(70, 70, seed=2)
        assert core.equal(mul_cubic(a, core.identity(70)), a)

    def test_worked_two_by_two(self):
        a = from_rows([[1, 0], [1, 1]])
        b = from_rows([[0, 1], [1, 0]])
        assert core.to_dense(mul_cubic(a, b)).tolist() == [[0, 1], [1, 1]]

    def test_thin_shapes_against_triple_loop(self):
        a = core.random(3, 200, seed=3)
        b = core.random(200, 5, seed=4)
        expected = ref.naive_product_slow(a, b)
        assert ref.first_mismatch(mul_cubic(a, b), expected) is None

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mul_cubic(core.create(2, 3), core.create(4, 2))

    def test_identity_left_and_zero(self):
        b = core.random(90, 33, seed=5)
        assert core.equal(mul_cubic(core.identity(90), b), b)
        z = mul_cubic(core.random(10, 20, seed=6), core.create(20, 7))
        assert core.equal(z, core.create(10, 7))

    def test_empty_inner_dimension(self):
        c = mul_cubic(core.create(4, 0), core.create(0, 9))
        assert core.equal(c, core.create(4, 9))

    def test_distributivity(self):
        a = core.random(64, 64, seed=7)
        b = core.random(64, 64, seed=8)
        c = core.random(64, 64, seed=9)
        lhs = mul_cubic(a, core.add(b, c))
        rhs = core.add(mul_cubic(a, b), mul_cubic(a, c))
        assert core.equal(lhs, rhs)

    def test_window_operands(self):
        pa = core.random(40, 192, seed=10)
        pb = core.random(80, 128, seed=11)
        a = core.window(pa, 3, 64, 30, 70)
        b = core.window(pb, 5, 0, 70, 100)
        expected = ref.naive_product(a, b)
        assert ref.first_mismatch(mul_cubic(a, b), expected) is None

    def test_200_random_triples_match_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(200):
            m, l, n = random_triple(rng, 1, 257)
            a = core.random(m, l, seed=trial * 2 + 1)
            b = core.random(l, n, seed=trial * 2 + 2)
            got = mul_cubic(a, b)
            assert ref.first_mismatch(got, ref.naive_product(a, b)) is None, \
                (m, l, n)


class TestOracleSelfCheck:
    def test_fast_oracle_matches_literal_loop(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            m, l, n = random_triple(rng, 1, 24)
            a = core.random(m, l, seed=trial + 100)
            b = core.random(l, n, seed=trial + 200)
            assert np.array_equal(ref.naive_product(a, b),
                                  ref.naive_product_slow(a, b))

    def test_unpack_matches_get_bit(self):
        a = core.random(7, 130, seed=14)
        dense = ref.unpack_entries(a)
        for r in range(7):
            for c in (0, 63, 64, 129):
                assert dense[r, c] == core.get_bit(a, r, c)

    def test_unpack_window(self):
        p = core.random(9, 256, seed=15)
        w = core.window(p, 2, 64, 5, 100)
        assert np.array_equal(ref.unpack_entries(w), core.to_dense(w))
