import pytest

from gf2mat.errors import ParameterError
from gf2mat.tuning import (
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

    def test_k_uses_resolved_t(self):
        # with one table, 2^5 rows of 256 bytes fit 32 KiB L1, so k stays 5
        p1 = resolve_params(cutoff=2048, t=1)
        p8 = resolve_params(cutoff=2048, t=8)
        assert p1.k == 5
        assert p8.k == 4
