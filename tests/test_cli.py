import io
import tracemalloc

import pytest

import gf2mat
from gf2mat import _reference as ref
from gf2mat import _kernel, cli, core, tuning
from gf2mat.cubic import mul_cubic
from gf2mat.errors import ParameterError
from gf2mat.strassen import MulParams, mul_strassen


class TestParsing:
    def test_dims3(self):
        assert cli._parse_dims("100x200x300", 3) == (100, 200, 300)
        with pytest.raises(ParameterError):
            cli._parse_dims("100x200", 3)
        with pytest.raises(ParameterError):
            cli._parse_dims("axbxc", 3)

    def test_dims2(self):
        assert cli._parse_dims("10X20", 2) == (10, 20)
        with pytest.raises(ParameterError):
            cli._parse_dims("10x20x30", 2)
        with pytest.raises(ParameterError):
            cli._parse_dims("-3x5", 2)

    def test_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            cli._algorithm("m4rm-t9", MulParams())
        with pytest.raises(ParameterError):
            cli._algorithm("gauss", MulParams())


class TestCheck:
    def test_pass_exits_zero(self, capsys):
        rc = cli.main(["check", "--dims", "100x100x100", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_degenerate_dims(self, capsys):
        rc = cli.main(["check", "--dims", "1x1x1"])
        assert rc == 0

    def test_injected_fault_reports_coordinate(self, capsys):
        rc = cli.main(["check", "--dims", "8x8x8", "--inject-fault"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL(0, 0)" in out
        assert "check: FAIL" in out

    def test_scalar_xor_flag(self, capsys):
        rc = cli.main(["check", "--dims", "70x70x70", "--force-scalar-xor"])
        assert rc == 0
        assert not core.scalar_xor_enabled()


class TestBench:
    def test_reps_one_mean_equals_min(self, capsys):
        rc = cli.main(["bench", "--dims", "64x64x64", "--reps", "1",
                       "--algo", "m4rm", "--cutoff", "64"])
        assert rc == 0
        records = cli.parse_csv(io.StringIO(capsys.readouterr().out))
        assert len(records) == 1
        assert records[0].mean_s == records[0].min_s
        assert records[0].reps == 1

    def test_bench_reports_backend(self, capsys):
        argv = ["bench", "--dims", "64x64x64", "--reps", "1", "--algo", "m4rm"]
        assert cli.main(argv) == 0
        err = capsys.readouterr().err
        if gf2mat.backend() == "c":
            assert _kernel.isa() in ("avx512f", "avx2", "default")
            assert f"backend: c ({_kernel.isa()})" in err
        else:
            assert f"backend: {gf2mat.backend()}" in err
        assert cli.main(argv + ["--force-scalar-xor"]) == 0
        assert "backend: scalar" in capsys.readouterr().err

    def test_csv_round_trip(self):
        records = [
            cli.BenchRecord("m4rm", 64, 64, 64, 5, 1, 0, 0, 3,
                            0.0123456789, 0.0041152263, 0.004, 12345),
            cli.BenchRecord("strassen", 128, 96, 64, 0, 8, 64, 128, 2,
                            0.25, 0.125, 0.12, 99),
        ]
        buf = io.StringIO()
        cli.emit_csv(records, buf)
        buf.seek(0)
        assert cli.parse_csv(buf) == records

    def test_csv_header_stable(self):
        buf = io.StringIO()
        cli.emit_csv([], buf)
        assert buf.getvalue().strip() == ",".join(cli.CSV_HEADER)
        assert cli.CSV_HEADER[:9] == ["algorithm", "m", "l", "n", "k", "t",
                                      "bs", "cutoff", "reps"]

    def test_bench_file_output_and_verify(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--dims", "100x90x80", "--reps", "2",
                       "--algo", "cubic", "--algo", "m4rm-t4",
                       "--verify", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            records = cli.parse_csv(fh)
        assert [r.algorithm for r in records] == ["cubic", "m4rm-t4"]
        for r in records:
            assert r.min_s <= r.mean_s
            assert r.wall_s >= r.min_s * r.reps
            assert r.peak_mem_bytes > 0

    def test_peak_counts_numpy_temporaries(self):
        # C has 300 rows of 5 words, and k=4 with t=8 gives 128 table rows
        # of 5 words. Those matrices, plus the previous product's C, are
        # (2 * 1500 + 640) words; the traced peak of one product also
        # holds the numpy temporaries.
        params = tuning.resolve_params()
        assert params.effective_k(300, 8) == 4
        with _kernel.using("numpy"):
            rec = cli.run_benchmark("m4rm-t8", 300, 300, 300, 1, 2, params)
        assert rec.peak_mem_bytes > (2 * 300 * 5 + (8 << 4) * 5) * 8

    def test_peak_leaves_tracing_as_it_found_it(self):
        tracemalloc.start()
        try:
            cli.run_benchmark("cubic", 64, 64, 64, 0, 1, None)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        cli.run_benchmark("cubic", 64, 64, 64, 0, 1, None)
        assert not tracemalloc.is_tracing()

    def test_multiple_dims_rows(self, capsys):
        rc = cli.main(["bench", "--dims", "64x64x64", "--dims", "65x65x65",
                       "--reps", "1", "--algo", "auto"])
        assert rc == 0
        records = cli.parse_csv(io.StringIO(capsys.readouterr().out))
        assert [(r.m, r.l, r.n) for r in records] == [(64,) * 3, (65,) * 3]

    def test_sweep_grid_shape(self, capsys):
        # dims rows x algorithm columns, the published benchmark layout
        dims = ["128x128x128", "192x192x192", "256x256x256"]
        algos = ["m4rm-t1", "m4rm-t8", "strassen"]
        argv = ["bench", "--reps", "1", "--cutoff", "64"]
        for d in dims:
            argv += ["--dims", d]
        for a in algos:
            argv += ["--algo", a]
        assert cli.main(argv) == 0
        records = cli.parse_csv(io.StringIO(capsys.readouterr().out))
        grid = [(r.m, r.algorithm) for r in records]
        assert grid == [(m, a) for m in (128, 192, 256) for a in algos]


class TestGenMul:
    def test_gen_then_mul_identity_reproduces_input(self, tmp_path):
        a_path = tmp_path / "a.gf2m"
        i_path = tmp_path / "i.gf2m"
        c_path = tmp_path / "c.gf2m"
        assert cli.main(["gen", "--dims", "50x50", "--seed", "9",
                         "--out", str(a_path)]) == 0
        core.save(core.identity(50), i_path)
        assert cli.main(["mul", str(a_path), str(i_path), str(c_path)]) == 0
        assert c_path.read_bytes() == a_path.read_bytes()

    def test_mul_dimension_mismatch_exit_2(self, tmp_path, capsys):
        a_path = tmp_path / "a.gf2m"
        b_path = tmp_path / "b.gf2m"
        core.save(core.random(10, 20, seed=1), a_path)
        core.save(core.random(30, 10, seed=2), b_path)
        rc = cli.main(["mul", str(a_path), str(b_path),
                       str(tmp_path / "c.gf2m")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_mul_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.gf2m"
        bad.write_bytes(b"NOPE" + bytes(17))
        rc = cli.main(["mul", str(bad), str(bad), str(tmp_path / "c.gf2m")])
        assert rc == 2
        assert "offset 0" in capsys.readouterr().err

    def test_file_product_matches_in_memory(self, tmp_path):
        a_path = tmp_path / "a.gf2m"
        b_path = tmp_path / "b.gf2m"
        c_path = tmp_path / "c.gf2m"
        cli.main(["gen", "--dims", "1000x1000", "--seed", "5",
                  "--out", str(a_path)])
        cli.main(["gen", "--dims", "1000x1000", "--seed", "6",
                  "--out", str(b_path)])
        assert cli.main(["mul", str(a_path), str(b_path), str(c_path),
                         "--algo", "auto"]) == 0
        a = core.load(a_path)
        b = core.load(b_path)
        in_memory = mul_cubic(a, b)
        assert core.equal(core.load(c_path), in_memory)


class TestParams:
    def test_params_output(self, capsys):
        rc = cli.main(["params", "--l2", str(1 << 20), "--l1", "65536"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cutoff=2048" in out
        assert "bs=1024" in out
        assert "k=5" in out
        assert "t=8" in out

    def test_config_file_via_env(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "gf2mat.conf"
        cfg.write_text("l2_bytes=4194304\nl1_bytes=32768\nt=8\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        rc = cli.main(["params"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cutoff=4096" in out
        assert "k=6" in out

    def test_cli_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "gf2mat.conf"
        cfg.write_text("cutoff=4096\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        rc = cli.main(["params", "--cutoff", "256"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cutoff=256" in out

    def test_non_positive_cache_sizes_exit_2(self, capsys):
        rc = cli.main(["params", "--cutoff", "256", "--l1", "-5",
                       "--l2", "0"])
        assert rc == 2
        assert "cache sizes must be positive" in capsys.readouterr().err


    def test_params_names_auto_parameters(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        assert cli.main(["params"]) == 0
        out = capsys.readouterr().out
        assert "# mul_strassen(a, b): cutoff=8192 bs=8192 k=0 (per product)" \
            " t=8 l2_bytes=2097152  # source: fitted" in out
        assert "cutoff=2048\n" in out  # the CLI's own derived defaults
        cfg = tmp_path / "gf2mat.conf"
        cfg.write_text("cutoff=4096\nk=7\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        assert cli.main(["params"]) == 0
        out = capsys.readouterr().out
        assert "# mul_strassen(a, b): cutoff=4096 bs=2048 k=7 t=8" \
            f" l2_bytes=1048576  # source: {cfg}" in out
        assert tuning.parse_config(out) == {
            "cutoff": 4096, "bs": 2048, "k": 7, "t": 8,
            "l1_bytes": tuning.DEFAULT_L1_BYTES,
            "l2_bytes": tuning.DEFAULT_L2_BYTES}

    def test_params_with_flags_omit_auto_line(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        assert cli.main(["params", "--t", "4"]) == 0
        assert "mul_strassen" not in capsys.readouterr().out

    def test_malformed_config_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "gf2mat.conf"
        cfg.write_text("cutoff=64\nbogus\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        assert cli.main(["params"]) == 2
        assert "config line 2" in capsys.readouterr().err


class TestBenchAuto:
    """With no tuning flag, `auto` is mul_strassen(a, b) itself."""

    def test_untuned_auto_calls_mul_strassen_bare(self, capsys,
                                                  monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        calls = []

        def recording(*args, **kwargs):
            calls.append((len(args), kwargs))
            return mul_strassen(*args, **kwargs)

        monkeypatch.setattr(cli, "mul_strassen", recording)
        assert cli.main(["bench", "--dims", "70x80x90", "--reps", "2",
                         "--algo", "auto", "--verify"]) == 0
        rec, = cli.parse_csv(io.StringIO(capsys.readouterr().out))
        # warm-up, the untimed product peak memory is traced on, and two
        # repetitions
        assert calls == [(2, {})] * 4
        assert (rec.k, rec.t, rec.bs, rec.cutoff) == (0, 8, 8192, 8192)

    def test_tuning_flag_gives_explicit_params(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        assert cli.main(["bench", "--dims", "70x80x90", "--reps", "1",
                         "--algo", "auto", "--algo", "strassen",
                         "--cutoff", "1024"]) == 0
        recs = cli.parse_csv(io.StringIO(capsys.readouterr().out))
        assert [(r.algorithm, r.cutoff, r.bs) for r in recs] == [
            ("auto", 1024, 512), ("strassen", 1024, 512)]

    def test_untuned_named_variants_keep_derived_defaults(self, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        derived = tuning.resolve_params()
        for name in ("strassen", "m4rm-t8", "m4rm-blocked"):
            _, (k, t, bs, cutoff) = cli._algorithm(name, None)
            assert (k, bs) == (derived.k, derived.b_s)
        assert cli._algorithm("strassen", None)[1][3] == derived.cutoff

    def test_auto_follows_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "gf2mat.conf"
        cfg.write_text("cutoff=512\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        fn, (k, t, bs, cutoff) = cli._algorithm("auto", None)
        assert fn is mul_strassen
        assert (bs, cutoff) == (256, 512)


class TestVerifyCatchesBadResult:
    def test_run_benchmark_verify_detects_mismatch(self, monkeypatch):
        params = MulParams(cutoff=64)

        def broken(name, params):
            def run(a, b):
                c = mul_cubic(a, b)
                core.set_bit(c, 0, 0, 1 - core.get_bit(c, 0, 0))
                return c
            return run, (0, 0, 0, 0)

        monkeypatch.setattr(cli, "_algorithm", broken)
        with pytest.raises(Exception, match="differs from oracle"):
            cli.run_benchmark("cubic", 8, 8, 8, 0, 1, params, verify=True)
