import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_triple
from gf2mat import _kernel, core, cubic, m4rm, strassen, tuning
from gf2mat import _reference as ref
from gf2mat.counters import counters
from gf2mat.cubic import mul_cubic
from gf2mat.errors import DimensionError, ParameterError
from gf2mat.m4rm import _table_layout, mul_m4rm
from gf2mat.strassen import (
    _CUBIC_ROWS,
    MulParams,
    _base_route,
    _temp_arena,
    mul_strassen,
    peel_fixup,
    peel_split,
    schedule_winograd,
)


class TestMulParams:
    def test_defaults_derive_block_size(self):
        p = MulParams(cutoff=128)
        assert p.b_s == 64

    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):
            MulParams(cutoff=32)
        with pytest.raises(ParameterError):
            MulParams(cutoff=128, t=9)
        with pytest.raises(ParameterError):
            MulParams(cutoff=128, b_s=256)
        with pytest.raises(ParameterError):
            MulParams(cutoff=128, k=17)

    @pytest.mark.parametrize("l1, l2", [(0, 1 << 20), (32768, -1), (0, -1)])
    def test_non_positive_cache_sizes_rejected(self, l1, l2):
        with pytest.raises(ParameterError):
            MulParams(cutoff=128, l1_bytes=l1, l2_bytes=l2)

    def test_hash_is_taken_once_from_the_fields(self, monkeypatch):
        """Equal parameters hash alike, as the field tuple does; the
        hash is computed when an instance is made, never again."""
        p = MulParams(cutoff=512, t=5)
        fields = dataclasses.astuple(p)
        assert hash(p) == hash(fields) == hash(MulParams(cutoff=512, t=5))
        assert hash(dataclasses.replace(p, t=4)) == hash(
            dataclasses.astuple(MulParams(cutoff=512, t=4)))
        monkeypatch.setattr(MulParams, "cutoff", property(
            lambda self: pytest.fail("a field was read to hash")),
            raising=False)
        assert hash(p) == hash(fields)


class TestPeelSplit:
    def test_conforming_power_of_two(self):
        ps = peel_split(16384, 16384, 16384, 4096)
        assert ps == (16384, 16384, 16384, 2)

    def test_one_past_power_of_two(self):
        n = 2 ** 14 + 1
        ps = peel_split(n, n, n, 4096)
        assert (ps.m, ps.l, ps.n) == (16384, 16384, 16384)
        assert ps.depth == 2

    def test_all_below_cutoff_falls_back(self):
        assert peel_split(100, 100, 100, 4096) == (0, 0, 0, 0)

    def test_targets_divisible_and_halves_conforming(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m, l, n = random_triple(rng, 1, 5000)
            ps = peel_split(m, l, n, 128)
            if ps.depth == 0:
                continue
            unit = 64 << ps.depth
            for x, x0 in [(ps.m, m), (ps.l, l), (ps.n, n)]:
                assert x % unit == 0
                assert x <= x0 < x + unit
                assert (x >> ps.depth) >= 128
                assert (x >> ps.depth) % 64 == 0


class TestScheduleWinograd:
    def _temps(self, m2, l2, n2):
        return (core.create(m2, max(l2, n2)), core.create(l2, n2))

    def test_quadrant_blocks_match_cubic(self):
        a = core.random(128, 128, seed=2)
        b = core.random(128, 128, seed=3)
        c = core.create(128, 128)
        schedule_winograd(a, b, c, self._temps(64, 64, 64),
                          lambda cc, aa, bb: core.copy_into(cc, mul_cubic(aa, bb)))
        assert core.equal(c, mul_cubic(a, b))

    def test_rectangular_blocks(self):
        a = core.random(70, 256, seed=4)
        b = core.random(256, 128, seed=5)
        c = core.create(70, 128)
        schedule_winograd(a, b, c, self._temps(35, 128, 64),
                          lambda cc, aa, bb: core.copy_into(cc, mul_cubic(aa, bb)))
        assert core.equal(c, mul_cubic(a, b))

    def test_exactly_seven_products_fifteen_additions(self):
        a = core.random(128, 128, seed=6)
        b = core.random(128, 128, seed=7)
        c = core.create(128, 128)
        p0, a0 = counters.strassen_products, counters.quadrant_adds
        schedule_winograd(a, b, c, self._temps(64, 64, 64),
                          lambda cc, aa, bb: core.copy_into(cc, mul_cubic(aa, bb)))
        assert counters.strassen_products - p0 == 7
        assert counters.quadrant_adds - a0 == 15

    def test_odd_dimensions_rejected(self):
        a = core.random(127, 128, seed=8)
        b = core.random(128, 128, seed=9)
        with pytest.raises(DimensionError):
            schedule_winograd(a, b, core.create(127, 128),
                              self._temps(64, 64, 64), lambda *args: None)

    def test_operands_unchanged(self):
        a = core.random(128, 128, seed=10)
        b = core.random(128, 128, seed=11)
        da, db = core.to_dense(a), core.to_dense(b)
        c = core.create(128, 128)
        schedule_winograd(a, b, c, self._temps(64, 64, 64),
                          lambda cc, aa, bb: core.copy_into(cc, mul_cubic(aa, bb)))
        assert np.array_equal(core.to_dense(a), da)
        assert np.array_equal(core.to_dense(b), db)


class TestPeelFixup:
    def test_noop_when_conforming(self):
        a = core.random(64, 64, seed=12)
        b = core.random(64, 64, seed=13)
        c = mul_cubic(a, b)
        snapshot = core.to_dense(c).copy()
        peel_fixup(c, a, b, 64, 64, 64, MulParams(cutoff=64))
        assert np.array_equal(core.to_dense(c), snapshot)

    def test_single_extra_row(self):
        a = core.random(65, 64, seed=14)
        b = core.random(64, 64, seed=15)
        c = core.create(65, 64)
        core.copy_into(core.window(c, 0, 0, 64, 64),
                       mul_cubic(core.window(a, 0, 0, 64, 64), b))
        peel_fixup(c, a, b, 64, 64, 64, MulParams(cutoff=64))
        assert ref.first_mismatch(c, ref.naive_product(a, b)) is None

    def test_all_three_corrections(self):
        a = core.random(100, 70, seed=16)
        b = core.random(70, 130, seed=17)
        c = core.create(100, 130)
        core.copy_into(
            core.window(c, 0, 0, 64, 64),
            mul_cubic(core.window(a, 0, 0, 64, 64),
                      core.window(b, 0, 0, 64, 64)))
        peel_fixup(c, a, b, 64, 64, 64, MulParams(cutoff=64))
        assert ref.first_mismatch(c, ref.naive_product(a, b)) is None

    def test_never_invokes_recursion(self):
        a = core.random(300, 300, seed=18)
        b = core.random(300, 300, seed=19)
        c = core.create(300, 300)
        core.copy_into(
            core.window(c, 0, 0, 256, 256),
            mul_cubic(core.window(a, 0, 0, 256, 256),
                      core.window(b, 0, 0, 256, 256)))
        before = counters.strassen_entries
        peel_fixup(c, a, b, 256, 256, 256, MulParams(cutoff=64))
        assert counters.strassen_entries == before
        assert ref.first_mismatch(c, ref.naive_product(a, b)) is None

    @pytest.mark.parametrize("n2", [256, 192])
    def test_column_strip_route(self, n2):
        # Only the column strip is left, 40 rows over 1000 inner columns
        # (16 words). 44 columns go to cubic (40 * 44 < 5 * 64 * 16),
        # which builds no Gray tables and allocates only its B^T scratch
        # (no product of its own); 108 columns go to M4RM, which builds
        # them.
        m, l, n = 40, 1000, 300
        a = core.random(m, l, seed=21)
        b = core.random(l, n, seed=22)
        c = core.create(m, n)
        core.copy_into(core.window(c, 0, 0, m, n2),
                       mul_cubic(a, core.window(b, 0, 0, l, n2)))
        adds, words = counters.table_adds, counters.words_allocated
        peel_fixup(c, a, b, m, l, n2, MulParams(cutoff=64))
        if n - n2 < 64:
            assert counters.table_adds == adds
            assert counters.words_allocated - words \
                == (n - n2) * core.words_per_row(l)
        else:
            assert counters.table_adds > adds
        assert ref.first_mismatch(c, ref.naive_product(a, b)) is None

    def test_inconsistent_primes_rejected(self):
        a = core.random(10, 10, seed=20)
        with pytest.raises(DimensionError):
            peel_fixup(core.create(10, 10), a, a, 11, 10, 10,
                       MulParams(cutoff=64))


class TestMulStrassen:
    @pytest.mark.parametrize("shape", [
        (0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5), (5, 5, 0), (5, 0, 5),
        (0, 5, 5), (0, 5, 70), (5, 0, 70), (0, 70, 200)])
    def test_empty_products_with_automatic_parameters(self, shape):
        """An empty product is all zero, and allocates C alone."""
        m, l, n = shape
        a = core.random(m, l, seed=31)
        b = core.random(l, n, seed=32)
        words = counters.words_allocated
        got = mul_strassen(a, b)
        assert got.shape == (m, n) and not core.to_dense(got).any()
        assert counters.words_allocated - words == m * core.words_per_row(n)

    def test_identity_times_identity(self):
        i = core.identity(512)
        got = mul_strassen(i, i, MulParams(cutoff=128))
        assert core.equal(got, i)

    def test_square_power_of_two(self):
        a = core.random(1024, 1024, seed=21)
        b = core.random(1024, 1024, seed=22)
        got = mul_strassen(a, b, MulParams(cutoff=128))
        assert core.equal(got, mul_cubic(a, b))

    @pytest.mark.parametrize("n", [2 ** 10 - 1, 2 ** 10, 2 ** 10 + 1])
    def test_peeling_dimension_pattern(self, n):
        a = core.random(n, n, seed=n)
        b = core.random(n, n, seed=n + 1)
        got = mul_strassen(a, b, MulParams(cutoff=128))
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None

    def test_narrow_b_uses_cubic(self):
        # Cubic builds no Gray tables; M4RM does. Cubic takes B narrower
        # than a word when A is short against B's rows, M4RM the rest.
        for (m, l, n), cubic in [((22, 410, 24), True),
                                 ((100, 436, 22), True),
                                 ((500, 500, 63), False),
                                 ((500, 500, 64), False),
                                 ((18, 708, 455), False)]:
            a = core.random(m, l, seed=23)
            b = core.random(l, n, seed=24)
            adds = counters.table_adds
            got = mul_strassen(a, b, MulParams(cutoff=128))
            assert (counters.table_adds == adds) == cubic, (m, l, n)
            assert ref.first_mismatch(got, ref.naive_product(a, b)) is None

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 400), l=st.integers(1, 900),
           n=st.integers(1, 127))
    def test_route_follows_shape(self, m, l, n):
        # Only the product's shape picks the engine: cubic, which builds
        # no Gray tables, exactly when B is narrower than a word and
        # m * n < _CUBIC_ROWS * 64 * ceil(l / 64).
        cubic = n < 64 and m * n < _CUBIC_ROWS * 64 * core.words_per_row(l)
        a = core.random(m, l, seed=m)
        b = core.random(l, n, seed=n)
        adds = counters.table_adds
        got = mul_strassen(a, b, MulParams(cutoff=1024))
        assert (counters.table_adds == adds) == cubic
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None

    def test_small_dims_dispatch_to_m4rm(self):
        a = core.random(100, 100, seed=25)
        b = core.random(100, 100, seed=26)
        p = MulParams(cutoff=4096)
        before = counters.strassen_entries
        got = mul_strassen(a, b, p)
        assert counters.strassen_entries == before  # no recursion entered
        assert core.equal(got, mul_cubic(a, b))

    def test_empty_and_degenerate(self):
        assert mul_strassen(core.create(0, 5), core.create(5, 7)).shape \
            == (0, 7)
        z = mul_strassen(core.create(4, 0), core.create(0, 7))
        assert core.equal(z, core.create(4, 7))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mul_strassen(core.create(2, 3), core.create(4, 2))

    def test_100_random_triples_vs_cubic(self):
        rng = np.random.default_rng(27)
        params = MulParams(cutoff=128)
        for trial in range(100):
            m, l, n = random_triple(rng, 1, 1500)
            a = core.random(m, l, seed=trial + 3000)
            b = core.random(l, n, seed=trial + 4000)
            got = mul_strassen(a, b, params)
            assert ref.first_mismatch(got, ref.naive_product(a, b)) is None, \
                (m, l, n)


# Dimensions around word and table-row boundaries, up to 1100.
ROUTE_DIMS = (1, 2, 3, 5, 8, 13, 20, 31, 32, 33, 47, 63, 64, 65, 100, 127,
              128, 129, 200, 255, 256, 257, 400, 511, 512, 513, 700, 1000,
              1023, 1024, 1025, 1100)


class TestBaseRoute:
    @pytest.mark.parametrize("params", [
        tuning.auto_params(), MulParams(cutoff=1024, b_s=100, t=3)],
        ids=["fitted", "paper-t3"])
    def test_memo_equals_the_rule(self, params):
        """The memoized route, computed and then recalled, is the rule:
        cubic (None) where B is narrower than a word and m * n <
        _CUBIC_ROWS * 64 * ceil(l / 64), else the M4RM plan _table_layout
        makes at the Gray width params give for m rows and n columns."""
        budget = _kernel.MAX_TABLE_BYTES
        for m in ROUTE_DIMS:
            for l in ROUTE_DIMS:
                for n in ROUTE_DIMS:
                    cubic = n < 64 and m * n < _CUBIC_ROWS * 64 * -(-l // 64)
                    rule = None if cubic else _table_layout(
                        m, l, n, params.effective_k(n, nrows=m), params.b_s,
                        params.t)
                    for _ in range(2):
                        assert _base_route(m, l, n, params, budget) \
                            == rule, (m, l, n)

    def test_repeated_flat_product_plans_once(self, monkeypatch):
        """A repeated flat mul_strassen of one shape takes its whole plan,
        the budget check included, from one route memo hit, so neither
        _table_layout nor _fit_budget is called."""
        params = MulParams(cutoff=1024, t=3)
        a = core.random(70, 300, seed=73)
        b = core.random(300, 200, seed=74)
        mul_strassen(a, b, params)
        calls = {"_table_layout": 0, "_fit_budget": 0}
        for module in (m4rm, strassen):
            for name in calls:
                def spy(*args, _real=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _real(*args)
                monkeypatch.setattr(module, name, spy)
        got = mul_strassen(a, b, params)
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None
        assert calls == {"_table_layout": 0, "_fit_budget": 0}

    @pytest.mark.parametrize("shape", [(70, 300, 200), (16, 1000, 40)],
                             ids=["m4rm", "cubic"])
    def test_flat_product_looks_its_route_up_once(self, monkeypatch,
                                                  shape):
        """A flat mul_strassen takes its route from the memo once, under
        the kernel's table budget, and hands it to _base_mul_into, for
        either engine."""
        m, l, n = shape
        params = MulParams(cutoff=1024, t=3)
        a = core.random(m, l, seed=75)
        b = core.random(l, n, seed=76)
        looked = []

        def spy(*args, _real=strassen._base_route):
            looked.append(args)
            return _real(*args)

        monkeypatch.setattr(strassen, "_base_route", spy)
        got = mul_strassen(a, b, params)
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None
        assert looked == [(m, l, n, params, _kernel.MAX_TABLE_BYTES)]

    def test_cubic_route_runs_unchecked(self, monkeypatch):
        """The base route runs cubic as it runs an M4RM plan: through the
        unchecked runner (bound in strassen under the public name), never
        through the public mul_cubic and its checks."""
        def public(*args):
            raise AssertionError("public mul_cubic on the base route")

        monkeypatch.setattr(cubic, "mul_cubic", public)
        assert strassen.mul_cubic is cubic._cubic_into
        a = core.random(16, 1000, seed=79)
        b = core.random(1000, 40, seed=80)
        params = MulParams(cutoff=1024, t=3)
        assert _base_route(16, 1000, 40, params,
                           _kernel.MAX_TABLE_BYTES) is None
        got = mul_strassen(a, b, params)
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None

    def test_memo_is_shared_by_equal_params(self):
        budget = _kernel.MAX_TABLE_BYTES
        route = _base_route(70, 300, 200, MulParams(cutoff=512, t=5), budget)
        assert _base_route(70, 300, 200, MulParams(cutoff=512, t=5),
                           budget) is route
        assert _base_route(70, 300, 200, MulParams(cutoff=512, t=4),
                           budget) != route

    def test_recursive_product_compares_each_budget_once(self,
                                                          monkeypatch):
        """A recursive mul_strassen looks the route up, with its table
        budget check, once per base shape of its plan, the leaf and the
        three peel strips, and hands the strips' plans to peel_fixup,
        which looks none of them up again; a peel_fixup called on its own
        looks its strips up once."""
        params = MulParams(cutoff=64, k=4, t=1)
        a = core.random(129, 129, seed=77)
        b = core.random(129, 130, seed=78)
        calls = []

        def spy(*args, _real=strassen._base_route):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(strassen, "_base_route", spy)
        got = mul_strassen(a, b, params)
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None
        assert len(calls) == 4
        c = core.create(129, 130)
        core.copy_into(core.window(c, 0, 0, 128, 128),
                       mul_cubic(core.window(a, 0, 0, 128, 128),
                                 core.window(b, 0, 0, 128, 128)))
        peel_fixup(c, a, b, 128, 128, 128, params)
        assert ref.first_mismatch(c, ref.naive_product(a, b)) is None
        assert len(calls) == 4 + 3

    @pytest.mark.parametrize("shape,params", [
        ((40, 300, 200), MulParams(cutoff=1024, k=6, t=3)),
        ((129, 128, 128), MulParams(cutoff=64, k=4, t=1)),
    ], ids=["flat", "peeled"])
    def test_smaller_budget_refuses_a_cached_shape(self, shape, params,
                                                   monkeypatch):
        """The memo follows the budget: after a product of a shape
        succeeds, a smaller _kernel.MAX_TABLE_BYTES still refuses it
        before anything is allocated."""
        m, l, n = shape
        a = core.random(m, l, seed=71)
        b = core.random(l, n, seed=72)
        got = mul_strassen(a, b, params)
        assert ref.first_mismatch(got, ref.naive_product(a, b)) is None
        monkeypatch.setattr(_kernel, "MAX_TABLE_BYTES", 100)
        allocated = counters.words_allocated
        with pytest.raises(ParameterError):
            mul_strassen(a, b, params)
        assert counters.words_allocated == allocated


class TestStructuralCounts:
    def test_products_additions_entries_per_level(self):
        a = core.random(512, 512, seed=28)
        b = core.random(512, 512, seed=29)
        params = MulParams(cutoff=128)
        assert peel_split(512, 512, 512, 128).depth == 2
        p0 = counters.strassen_products
        q0 = counters.quadrant_adds
        e0 = counters.strassen_entries
        mul_strassen(a, b, params)
        # depth 2: schedules at depths 0 and 1 -> 1 + 7 = 8 invocations
        assert counters.strassen_products - p0 == 7 * 8
        assert counters.quadrant_adds - q0 == 15 * 8
        assert counters.strassen_entries - e0 == 1 + 7 + 49

    def test_two_temporaries_per_level(self):
        t0 = counters.temp_quadrants
        arena = _temp_arena(512, 512, 512, 2)
        assert counters.temp_quadrants - t0 == 2 * 2
        assert len(arena) == 2
        for s, pair in enumerate(arena, start=1):
            assert len(pair) == 2
            x, y = pair
            assert x.nrows == 512 >> s
            assert y.shape == (512 >> s, 512 >> s)

    def test_arena_quadrants_cover_rectangular(self):
        arena = _temp_arena(256, 512, 128, 1)
        (x, y), = arena
        assert x.shape == (128, 256)   # max(l, n) / 2 columns
        assert y.shape == (256, 64)
