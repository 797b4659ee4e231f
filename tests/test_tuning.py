import dataclasses
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2mat import _reference, core, strassen
from gf2mat.counters import counters
from gf2mat.cubic import mul_cubic
from gf2mat.errors import ParameterError
from gf2mat.m4rm import _table_layout
from gf2mat.strassen import mul_strassen, peel_fixup
from gf2mat.tuning import (
    CONFIG_ENV,
    DEFAULT_L1_BYTES,
    DEFAULT_L2_BYTES,
    FITTED_CUTOFF,
    FITTED_L2_BYTES,
    MulParams,
    _fitted_k,
    auto_params,
    base_k,
    choose_k,
    default_params,
    parse_config,
    resolve_params,
)


class TestDefaultParams:
    def test_one_mib_l2_config(self):
        p = default_params(l1_bytes=64 * 1024, l2_bytes=1 << 20)
        assert (p.cutoff, p.b_s, p.k, p.t) == (2048, 1024, 5, 8)

    def test_four_mib_l2_config(self):
        p = default_params(l1_bytes=32 * 1024, l2_bytes=4 << 20)
        assert (p.cutoff, p.b_s, p.k, p.t) == (4096, 2048, 6, 8)

    def test_two_matrices_fill_l2_exactly(self):
        # the fit rule: 2 * cutoff^2 / 8 bytes <= L2, tight at 2048 / 1 MiB
        assert 2 * 2048 * 2048 // 8 == 1 << 20

    def test_cutoff_is_multiple_of_64(self):
        for l2 in (1 << 18, 3 << 19, 1 << 21, 5 << 20):
            assert default_params(l2_bytes=l2).cutoff % 64 == 0

    def test_degenerate_cache_rejected(self):
        with pytest.raises(ParameterError):
            default_params(l2_bytes=0)
        with pytest.raises(ParameterError):
            default_params(l1_bytes=-1)
        with pytest.raises(ParameterError):
            default_params(l2_bytes=512)
        with pytest.raises(ParameterError):
            default_params(l2_bytes=-1)


class TestChooseK:
    def test_block_1024_gives_five(self):
        assert choose_k(1024, 64 * 1024, 8, 2048) == 5

    def test_eight_tables_fill_l1_exactly(self):
        # 8 tables of 2^5 rows, 2048 columns = 256 bytes per row
        assert 8 * (1 << 5) * (2048 // 8) == 64 * 1024

    def test_block_2048_gives_six(self):
        assert choose_k(2048, 32 * 1024, 8, 4096) == 6

    def test_reduction_only_when_it_fits(self):
        # k0 = 5 with 2048-bit rows: 8*32*256 = 64 KiB does not fit 48 KiB,
        # but 8*16*256 = 32 KiB does, so k drops to 4
        assert choose_k(1024, 48 * 1024, 8, 2048) == 4
        # neither fits in 16 KiB: keep k0
        assert choose_k(1024, 16 * 1024, 8, 2048) == 5

    def test_monotone_in_block_size(self):
        prev = 0
        for b_s in range(2, 4096):
            k = choose_k(b_s, 32 * 1024, 8, 1024)
            assert k >= prev
            prev = k

    def test_clamped_to_valid_range(self):
        assert choose_k(2, 32 * 1024) == 1
        assert choose_k(2 ** 30, 1 << 40) <= 16

    def test_small_block_rejected(self):
        with pytest.raises(ParameterError):
            choose_k(1, 32 * 1024)


class TestConfig:
    def test_parse_happy_path(self):
        cfg = parse_config("l1_bytes = 65536\nl2_bytes=1048576\nk=5\n")
        assert cfg == {"l1_bytes": 65536, "l2_bytes": 1048576, "k": 5}

    def test_comments_and_blanks(self):
        cfg = parse_config("# cache\n\ncutoff=2048  # fits L2\n")
        assert cfg == {"cutoff": 2048}

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            parse_config("cutofff=2048\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ParameterError):
            parse_config("k=five\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ParameterError):
            parse_config("just a line\n")


class TestResolveParams:
    def test_all_derived(self):
        p = resolve_params()
        assert p.cutoff == default_params().cutoff
        assert p.b_s == p.cutoff // 2
        assert p.t == 8

    def test_explicit_beats_config(self):
        p = resolve_params(cutoff=256, config={"cutoff": 2048, "t": 4})
        assert p.cutoff == 256
        assert p.t == 4
        assert p.b_s == 128  # rederived from the explicit cutoff

    def test_config_beats_derived(self):
        p = resolve_params(config={"l2_bytes": 4 << 20, "l1_bytes": 32768})
        assert p.cutoff == 4096
        assert p.k == 6

    def test_non_positive_cache_rejected_with_cutoff(self):
        with pytest.raises(ParameterError):
            resolve_params(cutoff=256, l1_bytes=-5, l2_bytes=0)
        with pytest.raises(ParameterError):
            resolve_params(config={"cutoff": 256, "l1_bytes": 0})

    @pytest.mark.parametrize("caches, message", [
        ({"l2_bytes": 512}, "L2 of 512 bytes is too small to tune"),
        ({"l2_bytes": -1}, "L2 of -1 bytes is too small to tune"),
        ({"l1_bytes": -1},
         "cache sizes must be positive, got L1=-1 L2=1048576"),
        ({"l1_bytes": 0, "l2_bytes": 0}, "L2 of 0 bytes is too small"),
    ])
    def test_cache_errors_are_the_same_on_both_entries(self, caches,
                                                       message):
        for entry in (default_params, resolve_params):
            with pytest.raises(ParameterError, match=message):
                entry(**caches)

    def test_k_uses_resolved_t(self):
        # with one table, 2^5 rows of 256 bytes fit 32 KiB L1, so k stays 5
        p1 = resolve_params(cutoff=2048, t=1)
        p8 = resolve_params(cutoff=2048, t=8)
        assert p1.k == 5
        assert p8.k == 4


def _paper_k(b_s, l1_bytes, t, ncols):
    """The paper's Gray-width rule as first written, kept here to pin
    choose_k."""
    k0 = max(1, min(16, int(math.floor(0.75 * math.log2(b_s))) - 2))
    if k0 > 1:
        row_bytes = -(-ncols // 64) * 8
        big = t * (1 << k0) * row_bytes <= l1_bytes
        small = t * (1 << (k0 - 1)) * row_bytes <= l1_bytes
        if not big and small:
            return k0 - 1
    return k0


FITTED = MulParams(cutoff=FITTED_CUTOFF, b_s=FITTED_CUTOFF,
                   l2_bytes=FITTED_L2_BYTES)


class TestFittedGrayWidth:
    """base_k's fitted Gray width: the rule of the automatic parameters."""

    @staticmethod
    def auto_k(m, n, t=8):
        return _fitted_k(m, n, dataclasses.replace(FITTED, t=t))

    def test_measured_shapes(self):
        assert self.auto_k(2048, 2048) == 6
        assert self.auto_k(4096, 4096) == 7
        assert self.auto_k(4133, 4133) == 7
        assert self.auto_k(8192, 8192) == 7

    def test_half_the_l2_lowers_wide_rows(self):
        p = MulParams(cutoff=FITTED_CUTOFF, b_s=FITTED_CUTOFF)  # 1 MiB L2
        assert _fitted_k(4096, 4096, p) == 7
        assert _fitted_k(4133, 4133, p) == 6
        assert _fitted_k(8192, 8192, p) == 6

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 1023), st.integers(1, 1 << 20),
           st.sampled_from([DEFAULT_L1_BYTES, 48 * 1024, 1 << 20]),
           st.sampled_from([DEFAULT_L2_BYTES, FITTED_L2_BYTES, 1 << 30]))
    def test_below_1024_rows_l1_tables_or_four(self, m, n, l1, l2):
        """Below 1024 rows the quarter-of-the-rows rule gives 4 at t=8, so
        k is the largest of 4 and every k whose 8 tables have at most m
        rows and fit, rows padded, in half of L1."""
        p = MulParams(cutoff=FITTED_CUTOFF, b_s=FITTED_CUTOFF, l1_bytes=l1,
                      l2_bytes=l2)
        row_bytes = 8 * core.words_per_row(core.padded_cols(n))
        fits = [k for k in range(1, 17)
                if 8 * (1 << k) <= m and 8 * (1 << k) * row_bytes <= l1 // 2]
        assert _fitted_k(m, n, p) == max([4, *fits])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 1 << 16), st.integers(1, 1 << 16),
           st.integers(1, 8), st.integers(1 << 10, 1 << 20),
           st.integers(1 << 12, 1 << 26))
    def test_tables_fit_half_of_l2_or_half_of_l1(self, m, n, t, l1, l2):
        """k is the largest width that meets one of the two rules: t
        tables over at most a quarter of the rows in half of L2, or t
        tables over at most all the rows in half of L1 (rows padded); 4
        when neither allows more."""
        p = MulParams(cutoff=FITTED_CUTOFF, b_s=FITTED_CUTOFF, t=t,
                      l1_bytes=l1, l2_bytes=l2)
        rows = min(m, p.b_s)

        def allowed(k):
            in_l2 = (t * (1 << k) * core.words_per_row(n) * 8 <= l2 // 2
                     and (1 << k) * 4 * t <= rows)
            in_l1 = (t * (1 << k) * core.words_per_row(core.padded_cols(n))
                     * 8 <= l1 // 2 and (1 << k) * t <= rows)
            return in_l2 or in_l1

        k = _fitted_k(m, n, p)
        assert 4 <= k <= 16
        if k > 4:
            assert allowed(k)
        assert not any(allowed(j) for j in range(k + 1, 17))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 1023), st.integers(1, 1 << 13),
           st.integers(1, 1 << 14), st.integers(1, 8),
           st.sampled_from([DEFAULT_L1_BYTES, 48 * 1024, 1 << 20]))
    def test_small_product_tables_stay_in_half_of_l1(self, m, l, n, t, l1):
        """Below 1024 rows a fitted plan's tables never take more than half
        of L1 or, when more, than the tables of the rule without the L1
        term (the quarter of the rows within half of L2, at least 4)."""
        p = MulParams(cutoff=FITTED_CUTOFF, b_s=FITTED_CUTOFF, t=t,
                      l1_bytes=l1, l2_bytes=FITTED_L2_BYTES)
        plan = _table_layout(m, l, n, _fitted_k(m, n, p), p.b_s, t)
        in_l2 = [k for k in range(1, 17) if (1 << k) * 4 * t <= m
                 and t * (1 << k) * core.words_per_row(n) * 8
                 <= FITTED_L2_BYTES // 2]
        before = _table_layout(m, l, n, max([4, *in_l2]), p.b_s, t)
        assert plan.table_bytes <= max(l1 // 2, before.table_bytes)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(64, 1 << 16), st.integers(1, 8))
    def test_non_decreasing_in_rows(self, n, t):
        p = MulParams(cutoff=FITTED_CUTOFF, b_s=FITTED_CUTOFF, t=t)
        ks = [_fitted_k(m, n, p) for m in range(1, 20000, 37)]
        assert ks == sorted(ks)

    def test_without_rows_is_the_paper_rule(self):
        for b_s in (2, 3, 16, 100, 512, 1000, 1024, 2048, 4096, 8192,
                    1 << 16):
            for l1 in (1, 4096, 32 * 1024, 48 * 1024, 64 * 1024, 1 << 20):
                for t in range(1, 9):
                    for ncols in (1, 64, 65, 200, 1024, 2048, 4096, 5000):
                        assert choose_k(b_s, l1, t, ncols) == \
                            _paper_k(b_s, l1, t, ncols), (b_s, l1, t, ncols)

    def test_explicit_k_wins(self):
        assert base_k(4096, 4096, 4096,
                      MulParams(cutoff=8192, b_s=8192, k=3)) == 3


def _config(tmp_path, monkeypatch, text, name="gf2mat.conf"):
    path = tmp_path / name
    path.write_text(text)
    monkeypatch.setenv(CONFIG_ENV, str(path))
    return path


def _products(a, b):
    before = counters.strassen_products
    c = mul_strassen(a, b)
    return counters.strassen_products - before, c


class TestAutoParams:
    def test_fitted_without_config(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV, raising=False)
        p = auto_params()
        assert p == FITTED
        assert (p.cutoff, p.b_s, p.k, p.t) == (8192, 8192, 0, 8)
        assert p.l2_bytes == 2 << 20

    def test_fitted_params_are_shared_and_immutable(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV, raising=False)
        calls = []

        def record(c, a, b, plan):
            calls.append((plan.k, plan.b_s, plan.t))
            real(c, a, b, plan)

        real = strassen._mul_into
        monkeypatch.setattr(strassen, "_mul_into", record)
        a = core.random(300, 200, seed=70)
        b = core.random(200, 150, seed=71)
        first = _products(a, b)[0]
        p = auto_params()
        assert auto_params() is p
        for name, value in (("k", 7), ("b_s", 64), ("cutoff", 64)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, value)
        assert _products(a, b)[0] == first == 0
        # k=5: 8 tables of 32 rows serve the 300 rows, and with rows of 150
        # columns padded to 4 words they take 8 KiB, half of a 32 KiB L1.
        assert calls[0] == calls[1] == (5, FITTED_CUTOFF, 8)
        assert (p.cutoff, p.b_s, p.k) == (FITTED_CUTOFF, FITTED_CUTOFF, 0)

    def test_variable_is_read_without_a_raised_lookup(self, tmp_path,
                                                      monkeypatch):
        """auto_params reads GF2MAT_CONFIG without os.environ's item
        lookup, which raises and catches a KeyError when it is unset, and
        still sees each change of the variable."""
        def params():
            with monkeypatch.context() as patched:
                patched.setattr(type(os.environ), "__getitem__",
                                lambda self, key: pytest.fail(key))
                return auto_params()

        monkeypatch.delenv(CONFIG_ENV, raising=False)
        assert params() == FITTED
        _config(tmp_path, monkeypatch, "t=4\n")
        assert params().t == 4

    def test_config_drives_mul_strassen(self, tmp_path, monkeypatch):
        _config(tmp_path, monkeypatch, "cutoff=64\n")
        a = core.random(256, 256, seed=61)
        b = core.random(256, 256, seed=62)
        done, c = _products(a, b)
        assert done == 7 + 49  # two levels
        assert _reference.first_mismatch(
            c, _reference.naive_product(a, b)) is None

    def test_config_is_resolved_as_the_cli_resolves_it(self, tmp_path,
                                                       monkeypatch):
        _config(tmp_path, monkeypatch, "l2_bytes=4194304\nt=4\n")
        assert auto_params() == resolve_params(
            config={"l2_bytes": 4194304, "t": 4})

    @pytest.mark.parametrize("dims", [(4096, 4096, 4096),
                                      (4133, 5000, 4133)])
    def test_no_recursion_without_config(self, monkeypatch, dims):
        monkeypatch.delenv(CONFIG_ENV, raising=False)
        m, l, n = dims
        a = core.random(m, l, seed=63)
        b = core.random(l, n, seed=64)
        done, c = _products(a, b)
        assert done == 0
        # spot-check rows against the cubic product of a slice of A
        rows = core.window(a, m - 40, 0, 40, l)
        assert core.equal(core.window(c, m - 40, 0, 40, n),
                          mul_cubic(rows, b))

    def test_variable_change_takes_effect_between_products(self, tmp_path,
                                                           monkeypatch):
        a = core.random(256, 256, seed=65)
        b = core.random(256, 256, seed=66)
        _config(tmp_path, monkeypatch, "cutoff=64\n", "one.conf")
        assert _products(a, b)[0] == 56
        _config(tmp_path, monkeypatch, "cutoff=128\n", "two.conf")
        assert _products(a, b)[0] == 7
        monkeypatch.delenv(CONFIG_ENV)
        assert _products(a, b)[0] == 0
        monkeypatch.setenv(CONFIG_ENV, "")
        assert _products(a, b)[0] == 0

    @pytest.mark.parametrize("text, line", [("cutoff=64\nk=five\n", 2),
                                            ("# ok\ncutof=64\n", 2),
                                            ("just words\n", 1)])
    def test_malformed_config_raises_before_allocating(
            self, tmp_path, monkeypatch, text, line):
        path = _config(tmp_path, monkeypatch, text)
        a = core.random(100, 100, seed=67)
        before = counters.words_allocated
        with pytest.raises(ParameterError,
                           match=f"{path}: config line {line}:"):
            mul_strassen(a, a)
        assert counters.words_allocated == before

    def test_peel_fixup_uses_auto_params(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV, raising=False)
        a = core.random(100, 70, seed=68)
        b = core.random(70, 130, seed=69)
        c = core.create(100, 130)
        core.copy_into(core.window(c, 0, 0, 64, 64),
                       mul_cubic(core.window(a, 0, 0, 64, 64),
                                 core.window(b, 0, 0, 64, 64)))
        peel_fixup(c, a, b, 64, 64, 64)
        assert _reference.first_mismatch(
            c, _reference.naive_product(a, b)) is None
        _config(tmp_path, monkeypatch, "t=9\n")
        with pytest.raises(ParameterError, match="t=9 outside"):
            peel_fixup(c, a, b, 64, 64, 64)

    def test_missing_config_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "absent.conf"))
        with pytest.raises(ParameterError, match="absent.conf"):
            auto_params()

    def test_invalid_config_value_raises(self, tmp_path, monkeypatch):
        _config(tmp_path, monkeypatch, "cutoff=32\n")
        with pytest.raises(ParameterError, match="cutoff 32 < 64"):
            mul_strassen(core.random(8, 8, seed=1), core.random(8, 8, seed=2))
