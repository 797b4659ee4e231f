"""Command-line front end: check, bench, gen, mul, params.

check   runs every multiplication variant on seeded random inputs and
        compares bit-exactly against the cubic product and the naive
        oracle; exits non-zero on the first mismatch.
bench   times variants over a dimension sweep and writes CSV (one row per
        dims x algorithm; warm-up run excluded; mean and minimum of the
        repetitions; peak memory as the tracemalloc peak of one untimed
        product above the level before it); the kernel backend in use
        (with the C kernel's instruction set) goes to stderr.
gen/mul generate and multiply matrices in the GF2M file format.
params  prints the resolved tuning parameters and, with no tuning flag,
        the parameters mul_strassen(a, b) runs on and their source.

With no tuning flag, `auto` runs mul_strassen(a, b) on its automatic
parameters (tuning.auto_params), so `bench --algo auto` times what the
library does; every other algorithm runs on the derived defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, fields as dc_fields

from . import _kernel, _reference, core
from .cubic import mul_cubic
from .errors import GF2MatError, ParameterError
from .m4rm import mul_m4rm, mul_m4rm_blocked, mul_m4rm_multitable
from .strassen import MulParams, mul_strassen
from .tuning import CONFIG_ENV, MAX_T, auto_params, env_config, resolve_params

_TUNING_FLAGS = ("cutoff", "bs", "k", "t", "l1", "l2")

CHECK_ALGOS = ("cubic", "m4rm", "m4rm-blocked", "m4rm-t2", "m4rm-t8",
               "strassen", "auto")


def _parse_dims(text: str, count: int) -> tuple[int, ...]:
    """`count` non-negative sizes joined by x, such as MxLxN for 3."""
    parts = text.lower().split("x")
    if len(parts) != count:
        form = "MxLxN" if count == 3 else "MxN"
        raise ParameterError(f"--dims wants {form}, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise ParameterError(f"--dims wants integers, got {text!r}") from None
    if min(dims) < 0:
        raise ParameterError(f"--dims must be non-negative, got {text!r}")
    return dims


def _algorithm(name: str, params: MulParams | None):
    """Multiplication callable plus the parameter tuple recorded in CSV.

    params None stands for no tuning flag: `auto` is then mul_strassen(a, b)
    itself, and the rest run on resolve_params over the config.
    """
    if params is None:
        if name == "auto":
            auto = auto_params()
            return mul_strassen, (auto.k, auto.t, auto.b_s, auto.cutoff)
        params = resolve_params(config=env_config())
    if name == "cubic":
        return mul_cubic, (0, 0, 0, 0)
    if name == "m4rm":
        def run(a, b):
            return mul_m4rm(a, b, params.effective_k(b.ncols, 1))
        return run, (params.k, 1, 0, 0)
    if name == "m4rm-blocked":
        def run(a, b):
            return mul_m4rm_blocked(a, b, params.effective_k(b.ncols, 1),
                                    params.b_s)
        return run, (params.k, 1, params.b_s, 0)
    if name.startswith("m4rm-t"):
        try:
            t = int(name[6:])
        except ValueError:
            raise ParameterError(f"unknown algorithm {name!r}") from None
        if not 1 <= t <= MAX_T:
            raise ParameterError(
                f"table count in {name!r} outside 1..{MAX_T}")

        def run(a, b):
            return mul_m4rm_multitable(a, b, params.effective_k(b.ncols, t),
                                       t, params.b_s)
        return run, (params.k, t, params.b_s, 0)
    if name in ("strassen", "auto"):
        def run(a, b):
            return mul_strassen(a, b, params)
        return run, (params.k, params.t, params.b_s, params.cutoff)
    raise ParameterError(f"unknown algorithm {name!r}")


@dataclass
class BenchRecord:
    algorithm: str
    m: int
    l: int
    n: int
    k: int
    t: int
    bs: int
    cutoff: int
    reps: int
    wall_s: float
    mean_s: float
    min_s: float
    peak_mem_bytes: int

    def __post_init__(self):
        if self.reps < 1:
            raise ParameterError(f"reps {self.reps} < 1")
        if self.min_s > self.mean_s + 1e-12:
            raise ParameterError(
                f"min {self.min_s} exceeds mean {self.mean_s}")


CSV_HEADER = [f.name for f in dc_fields(BenchRecord)]


def emit_csv(records, fh) -> None:
    fh.write(",".join(CSV_HEADER) + "\n")
    for r in records:
        vals = [getattr(r, name) for name in CSV_HEADER]
        fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                          for v in vals) + "\n")


def parse_csv(fh) -> list:
    header = fh.readline().strip()
    if header.split(",") != CSV_HEADER:
        raise ParameterError(f"unexpected CSV header {header!r}")
    types = {f.name: f.type for f in dc_fields(BenchRecord)}
    out = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        kwargs = {}
        for name, cell in zip(CSV_HEADER, cells):
            kind = types[name]
            kwargs[name] = (cell if kind == "str"
                            else float(cell) if kind == "float"
                            else int(cell))
        out.append(BenchRecord(**kwargs))
    return out


def _peak_bytes(fn, a, b) -> int:
    """Tracemalloc peak of one product fn(a, b) above the level before it.
    Tracing that the caller already had running is left running."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(a, b)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def run_benchmark(name: str, m: int, l: int, n: int, seed: int, reps: int,
                  params: MulParams | None,
                  verify: bool = False) -> BenchRecord:
    """Time one algorithm on seeded inputs; warm-up excluded from stats.
    Peak memory comes from one more, untimed product (`_peak_bytes`)."""
    fn, (k, t, bs, cutoff) = _algorithm(name, params)
    a = core.random(m, l, seed)
    b = core.random(l, n, seed + 1)
    fn(a, b)  # warm-up, which also loads the kernel
    peak = _peak_bytes(fn, a, b)
    times = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn(a, b)
        times.append(time.perf_counter() - t0)
    if verify and result is not None:
        expected = _reference.naive_product(a, b)
        where = _reference.first_mismatch(result, expected)
        if where is not None:
            raise GF2MatError(
                f"{name} product differs from oracle at {where}")
    return BenchRecord(algorithm=name, m=m, l=l, n=n, k=k, t=t, bs=bs,
                       cutoff=cutoff, reps=reps, wall_s=sum(times),
                       mean_s=sum(times) / len(times), min_s=min(times),
                       peak_mem_bytes=peak)


def cmd_check(args, params: MulParams | None) -> int:
    algos = args.algo or [a for a in CHECK_ALGOS if a != "cubic"]
    status = 0
    col = max(len(a) for a in algos) + 2
    for dims in args.dims:
        m, l, n = dims
        a = core.random(m, l, args.seed)
        b = core.random(l, n, args.seed + 1)
        oracle = _reference.naive_product(a, b)
        reference = mul_cubic(a, b)
        where = _reference.first_mismatch(reference, oracle)
        if where is not None:
            print(f"{m}x{l}x{n}  cubic: FAIL at {where} (vs oracle)")
            status = 1
        cells = []
        for idx, name in enumerate(algos):
            fn, _ = _algorithm(name, params)
            got = fn(a, b)
            if args.inject_fault and idx == 0 and m and n:
                core.set_bit(got, 0, 0, 1 - core.get_bit(got, 0, 0))
            where = _reference.first_mismatch(got, oracle)
            if where is None and not core.equal(got, reference):
                where = core.first_difference(got, reference)
            if where is None:
                cells.append(f"{name}:ok".ljust(col + 3))
            else:
                cells.append(f"{name}:FAIL{where}".ljust(col + 12))
                status = 1
        print(f"{m}x{l}x{n}  " + " ".join(cells))
    print("check:", "FAIL" if status else "PASS")
    return status


DEFAULT_BENCH_DIMS = [(d, d, d) for d in (1024, 2048, 4096, 8192)]


def cmd_bench(args, params: MulParams | None) -> int:
    algos = args.algo or ["m4rm", "m4rm-t8", "strassen"]
    # desk-scale default sweep; larger sizes stay reachable via --dims
    dims_list = args.dims or DEFAULT_BENCH_DIMS
    backend = _kernel.backend()
    if backend == "c":
        backend += f" ({_kernel.isa()})"
    print(f"backend: {backend}", file=sys.stderr)
    records = []
    for dims in dims_list:
        m, l, n = dims
        for name in algos:
            rec = run_benchmark(name, m, l, n, args.seed, args.reps, params,
                                verify=args.verify)
            records.append(rec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            emit_csv(records, fh)
    else:
        emit_csv(records, sys.stdout)
    return 0


def cmd_gen(args) -> int:
    m, n = args.dims
    core.save(core.random(m, n, args.seed), args.out)
    return 0


def cmd_mul(args, params: MulParams | None) -> int:
    a = core.load(args.a)
    b = core.load(args.b)
    fn, _ = _algorithm(args.algo or "auto", params)
    core.save(fn(a, b), args.c)
    return 0


def cmd_params(args) -> int:
    params = _resolve(args)
    print(f"cutoff={params.cutoff}")
    print(f"bs={params.b_s}")
    print(f"k={params.k}" + ("  # 0 = auto" if params.k == 0 else ""))
    print(f"t={params.t}")
    print(f"l1_bytes={params.l1_bytes}")
    print(f"l2_bytes={params.l2_bytes}")
    if not _tuned(args):
        auto = auto_params()
        k = f"{auto.k}" if auto.k else "0 (per product)"
        source = os.environ.get(CONFIG_ENV) or "fitted"
        print(f"# mul_strassen(a, b): cutoff={auto.cutoff} bs={auto.b_s} "
              f"k={k} t={auto.t} l2_bytes={auto.l2_bytes}"
              f"  # source: {source}")
    return 0


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cutoff", type=int, help="recursion crossover dimension")
    p.add_argument("--bs", type=int, help="M4RM row block size")
    p.add_argument("--k", type=int, help="Gray-table width (0 = auto rule)")
    p.add_argument("--t", type=int, help="number of Gray tables (1..8)")
    p.add_argument("--l1", type=int, help="L1 cache size in bytes")
    p.add_argument("--l2", type=int, help="L2 cache size in bytes")
    p.add_argument("--force-scalar-xor", action="store_true",
                   help="run on the scalar kernel (plain per-word loops), "
                        "for wide-vs-scalar comparisons")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gf2mat",
        description="Dense GF(2) matrix multiplication toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify all variants against oracles")
    p.add_argument("--dims", action="append", required=True,
                   type=lambda s: _parse_dims(s, 3), metavar="MxLxN")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algo", action="append", metavar="NAME")
    p.add_argument("--inject-fault", action="store_true",
                   help="testing only: flip one output bit to prove the "
                        "harness detects mismatches")
    _add_param_flags(p)

    p = sub.add_parser("bench", help="benchmark sweep with CSV output")
    p.add_argument("--dims", action="append",
                   type=lambda s: _parse_dims(s, 3), metavar="MxLxN",
                   help="repeatable; default sweep is 1024..8192 squares")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--algo", action="append", metavar="NAME")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--verify", action="store_true",
                   help="oracle-verify the final repetition's product")
    _add_param_flags(p)

    p = sub.add_parser("gen", help="write a random matrix file")
    p.add_argument("--dims", type=lambda s: _parse_dims(s, 2), required=True,
                   metavar="MxN")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="PATH")

    p = sub.add_parser("mul", help="multiply two matrix files")
    p.add_argument("a", metavar="A.gf2m")
    p.add_argument("b", metavar="B.gf2m")
    p.add_argument("c", metavar="C.gf2m")
    p.add_argument("--algo", metavar="NAME")
    _add_param_flags(p)

    p = sub.add_parser("params", help="show resolved tuning parameters")
    _add_param_flags(p)
    return ap


def _tuned(args) -> bool:
    return any(getattr(args, flag, None) is not None
               for flag in _TUNING_FLAGS)


def _resolve(args) -> MulParams:
    return resolve_params(l1_bytes=getattr(args, "l1", None),
                          l2_bytes=getattr(args, "l2", None),
                          cutoff=getattr(args, "cutoff", None),
                          bs=getattr(args, "bs", None),
                          k=getattr(args, "k", None),
                          t=getattr(args, "t", None),
                          config=env_config())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scalar = getattr(args, "force_scalar_xor", False)
    try:
        with _kernel.using("scalar" if scalar else None):
            if args.command == "gen":
                return cmd_gen(args)
            if args.command == "params":
                return cmd_params(args)
            params = _resolve(args) if _tuned(args) else None
            if args.command == "check":
                return cmd_check(args, params)
            if args.command == "bench":
                return cmd_bench(args, params)
            if args.command == "mul":
                return cmd_mul(args, params)
    except GF2MatError as exc:
        print(f"gf2mat: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
