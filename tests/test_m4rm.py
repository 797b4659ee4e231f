import numpy as np
import pytest

from conftest import from_rows, random_triple
from gf2mat import _reference as ref
from gf2mat import core
from gf2mat.counters import counters
from gf2mat.cubic import mul_cubic
from gf2mat.errors import DimensionError, ParameterError
from gf2mat.m4rm import (
    StripeSpec,
    _read_bits_rows,
    _stripes,
    mul_m4rm,
    mul_m4rm_blocked,
    mul_m4rm_into,
    mul_m4rm_multitable,
)


class TestStripeSpec:
    def test_valid_bundle(self):
        s = StripeSpec(k=6, t=8, b_s=256)
        assert (s.k, s.t, s.b_s) == (6, 8, 256)

    def test_invariants(self):
        with pytest.raises(ParameterError):
            StripeSpec(k=0)
        with pytest.raises(ParameterError):
            StripeSpec(k=17)
        with pytest.raises(ParameterError):
            StripeSpec(k=4, t=9)
        with pytest.raises(ParameterError):
            StripeSpec(k=4, t=1, b_s=0)

    @pytest.mark.parametrize("bad", [4.5, 32.0, "4"])
    @pytest.mark.parametrize("field", ["k", "t", "b_s"])
    def test_non_integer_raises_before_allocating(self, field, bad):
        a = core.random(70, 130, seed=90)
        b = core.random(130, 90, seed=91)
        c = core.random(70, 90, seed=92)
        kept = core.copy_out(c)
        args = {"k": 4, "t": 2, "b_s": 32, field: bad}
        k, t, b_s = args["k"], args["t"], args["b_s"]
        calls = [lambda: StripeSpec(**args),
                 lambda: mul_m4rm_multitable(a, b, k, t, b_s),
                 lambda: mul_m4rm_into(c, a, b, k, b_s, t)]
        if field != "t":
            calls.append(lambda: mul_m4rm_blocked(a, b, k, b_s))
        if field == "k":
            calls.append(lambda: mul_m4rm(a, b, k))
        before = counters.words_allocated
        for call in calls:
            with pytest.raises(ParameterError,
                               match=f"{field} must be an integer"):
                call()
        assert counters.words_allocated == before
        assert core.equal(c, kept)

    def test_numpy_integers_accepted(self):
        s = StripeSpec(np.int64(4), np.uint8(2), np.int32(32))
        assert (s.k, s.t, s.b_s) == (4, 2, 32)
        assert all(type(v) is int for v in (s.k, s.t, s.b_s))
        a = core.random(70, 130, seed=93)
        b = core.random(130, 90, seed=94)
        assert core.equal(
            mul_m4rm_multitable(a, b, np.int64(4), np.int64(2),
                                np.int64(32)),
            mul_m4rm_multitable(a, b, 4, 2, 32))


class TestReadBitsRows:
    def test_matches_scalar_read_bits(self):
        a = core.random(50, 193, seed=1)
        for sc, k in [(0, 8), (60, 8), (62, 4), (120, 16), (190, 3)]:
            ids = _read_bits_rows(a, 5, 45, sc, k)
            for off, r in enumerate(range(5, 45)):
                assert ids[off] == core.read_bits(a, r, sc, k), (sc, k, r)


class TestStripes:
    def test_exact_division(self):
        assert _stripes(12, 4) == [(0, 4), (4, 4), (8, 4)]

    def test_ragged_tail(self):
        assert _stripes(10, 4) == [(0, 4), (4, 4), (8, 2)]

    def test_narrower_than_k(self):
        assert _stripes(3, 8) == [(0, 3)]


class TestMulM4rm:
    def test_worked_two_by_two_k1(self):
        a = from_rows([[1, 0], [1, 1]])
        b = from_rows([[0, 1], [1, 0]])
        got = mul_m4rm(a, b, 1)
        assert core.to_dense(got).tolist() == [[0, 1], [1, 1]]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_identity(self, k):
        a = core.random(100, 100, seed=k)
        assert core.equal(mul_m4rm(a, core.identity(100), k), a)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_rect_vs_cubic(self, k):
        a = core.random(129, 100, seed=20)
        b = core.random(100, 193, seed=21)
        assert core.equal(mul_m4rm(a, b, k), mul_cubic(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mul_m4rm(core.create(2, 3), core.create(4, 2), 4)

    def test_k_out_of_range(self):
        a = core.create(2, 2)
        with pytest.raises(ParameterError):
            mul_m4rm(a, a, 0)
        with pytest.raises(ParameterError):
            mul_m4rm(a, a, 17)

    def test_empty_operands(self):
        c = mul_m4rm(core.create(0, 5), core.create(5, 7), 3)
        assert c.shape == (0, 7)
        c = mul_m4rm(core.create(4, 0), core.create(0, 7), 3)
        assert core.equal(c, core.create(4, 7))


class TestMulM4rmBlocked:
    @pytest.mark.parametrize("b_s", [1, 7, 64, 150, 1000])
    def test_equals_plain(self, b_s):
        a = core.random(150, 150, seed=30)
        b = core.random(150, 150, seed=31)
        assert core.equal(mul_m4rm_blocked(a, b, 6, b_s), mul_m4rm(a, b, 6))

    def test_large_block_degenerates(self):
        a = core.random(40, 70, seed=32)
        b = core.random(70, 90, seed=33)
        assert core.equal(mul_m4rm_blocked(a, b, 5, 40),
                          mul_m4rm_blocked(a, b, 5, 4000))

    def test_partial_last_block(self):
        a = core.random(103, 80, seed=34)
        b = core.random(80, 61, seed=35)
        got = mul_m4rm_blocked(a, b, 4, 25)
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None


class TestMulM4rmMultitable:
    def test_t1_reduces_to_blocked(self):
        a = core.random(90, 90, seed=40)
        b = core.random(90, 90, seed=41)
        assert core.equal(mul_m4rm_multitable(a, b, 5, 1, 32),
                          mul_m4rm_blocked(a, b, 5, 32))

    def test_t2_vs_cubic(self):
        a = core.random(128, 128, seed=42)
        b = core.random(128, 128, seed=43)
        assert core.equal(mul_m4rm_multitable(a, b, 5, 2, 128),
                          mul_cubic(a, b))

    def test_t8_ragged_groups(self):
        # t*k = 48 does not divide l = 100: trailing group has fewer tables
        a = core.random(64, 100, seed=44)
        b = core.random(100, 77, seed=45)
        got = mul_m4rm_multitable(a, b, 6, 8, 64)
        assert core.equal(got, mul_cubic(a, b))

    def test_t_out_of_range(self):
        a = core.create(2, 2)
        with pytest.raises(ParameterError):
            mul_m4rm_multitable(a, a, 1, 0, 2)
        with pytest.raises(ParameterError):
            mul_m4rm_multitable(a, a, 1, 9, 2)


class TestVariantEquivalence:
    def test_100_random_triples(self):
        rng = np.random.default_rng(50)
        for trial in range(100):
            m, l, n = random_triple(rng, 1, 300)
            k = int(rng.integers(1, 11))
            t = int(rng.integers(1, 9))
            b_s = int(rng.integers(1, m + 1))
            a = core.random(m, l, seed=trial + 500)
            b = core.random(l, n, seed=trial + 900)
            expected = ref.naive_product(a, b)
            plain = mul_m4rm(a, b, k)
            blocked = mul_m4rm_blocked(a, b, k, b_s)
            multi = mul_m4rm_multitable(a, b, k, t, b_s)
            assert ref.first_mismatch(plain, expected) is None, (m, l, n, k)
            assert core.equal(blocked, plain), (m, l, n, k, b_s)
            assert core.equal(multi, plain), (m, l, n, k, t, b_s)


class TestCounters:
    def test_table_build_cost(self):
        a = core.random(60, 100, seed=60)
        b = core.random(100, 64, seed=61)
        k = 7
        before = counters.table_adds
        mul_m4rm(a, b, k)
        # ceil(l/k) stripes; ragged stripe costs 2^(l mod k) - 1
        expected = (100 // k) * ((1 << k) - 1) + ((1 << (100 % k)) - 1)
        assert counters.table_adds - before == expected

    def test_fused_update_touches_each_row_once_per_group(self):
        m, l, n = 70, 96, 50
        a = core.random(m, l, seed=62)
        b = core.random(l, n, seed=63)
        k, t, b_s = 4, 3, 32
        n_stripes = len(_stripes(l, k))
        n_groups = -(-n_stripes // t)
        before = counters.c_writes
        mul_m4rm_multitable(a, b, k, t, b_s)
        assert counters.c_writes - before == n_groups * m

    def test_blocked_rebuilds_tables_per_block(self):
        a = core.random(100, 64, seed=64)
        b = core.random(64, 64, seed=65)
        k, b_s = 4, 25
        blocks = -(-100 // b_s)
        per_pass = (64 // k) * ((1 << k) - 1)
        before = counters.table_adds
        mul_m4rm_blocked(a, b, k, b_s)
        assert counters.table_adds - before == blocks * per_pass


class TestAccumulateVariant:
    def test_accumulates_into_target(self):
        a = core.random(30, 60, seed=70)
        b = core.random(60, 40, seed=71)
        seed_c = core.random(30, 40, seed=72)
        c = core.copy_out(seed_c)
        mul_m4rm_into(c, a, b, 5)
        assert core.equal(c, core.add(seed_c, mul_m4rm(a, b, 5)))

    def test_window_target_keeps_outside_bits(self):
        a = core.random(8, 8, seed=73)
        parent = core.random(10, 64, seed=76)
        before = core.copy_out(parent)
        mul_m4rm_into(core.window(parent, 1, 0, 8, 8), a, a, 2)
        expected = core.to_dense(before)
        expected[1:9, :8] ^= ref.naive_product(a, a)
        assert np.array_equal(core.to_dense(parent), expected)

    def test_window_operands_supported(self):
        pa = core.random(50, 256, seed=74)
        pb = core.random(90, 192, seed=75)
        a = core.window(pa, 5, 64, 40, 80)
        b = core.window(pb, 10, 64, 80, 100)
        got = mul_m4rm(a, b, 6)
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None


class TestScalarXorMode:
    def test_matches_wide_path(self):
        a = core.random(33, 70, seed=80)
        b = core.random(70, 45, seed=81)
        wide = mul_m4rm_multitable(a, b, 4, 3, 10)
        try:
            core.set_scalar_xor(True)
            scalar = mul_m4rm_multitable(a, b, 4, 3, 10)
        finally:
            core.set_scalar_xor(False)
        assert core.equal(scalar, wide)
