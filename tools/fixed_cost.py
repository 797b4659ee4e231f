"""Time the fixed, per-call cost of a small gf2mat product.

For a 32x32x64 product (M4RM) and a 16x1000x40 one (cubic), prints the
min-of-N `timeit` time of one `gf2mat.mul_strassen` call, of
`core.create` of its C, and of the bare extension call into a C that is
already allocated, with the route, k and t `mul_strassen` uses; then
their difference, the Python part of a product: everything outside the
engine, C's allocation included. Without a compiled kernel the
extension and the Python part read "n/a".

Usage: python tools/fixed_cost.py [--repeat N] [--number N]
(run from a source checkout; gf2mat is imported from src/ next to this
script's directory). Times are in microseconds.
"""

import argparse
import sys
import timeit
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import gf2mat  # noqa: E402
from gf2mat import _kernel, core, strassen, tuning  # noqa: E402

SHAPES = ((32, 32, 64), (16, 1000, 40))


def best(fns: dict, repeat: int, number: int) -> dict:
    """Per function of `fns`, the minimum over `repeat` rounds of one
    call's mean time in a run of `number` calls, in microseconds. The
    functions take turns in every round, so a slow spell of the host
    reaches all of them alike."""
    runs = {name: [] for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            runs[name].append(timeit.timeit(fn, number=number))
    return {name: min(times) / number * 1e6 for name, times in runs.items()}


def measure(m: int, l: int, n: int, repeat: int, number: int) -> dict:
    """The timings of one m x l x n product on the default kernel, and
    its engine; extension and python are None without the C kernel."""
    a = core.random(m, l, seed=1)
    b = core.random(l, n, seed=2)
    params = tuning.auto_params()
    plan = strassen._base_route(m, l, n, params, _kernel.MAX_TABLE_BYTES)
    fns = {"mul_strassen": lambda: gf2mat.mul_strassen(a, b),
           "create": lambda: core.create(m, n)}
    kernel = _kernel.active()
    if kernel.compiled:
        c = core.create(m, n)
        if plan is None:
            def bare():
                kernel.cubic(c, a, b, l, n)
        else:
            def bare():
                kernel.m4rm(c, a, b, l, n, plan.k, params.b_s, params.t,
                            plan.table_stride)
        fns["extension"] = bare
    out = {"extension": None, "python": None,
           **best(fns, repeat, number)}
    if kernel.compiled:
        out["python"] = out["mul_strassen"] - out["extension"]
    out["shape"] = f"{m}x{l}x{n}"
    out["engine"] = "cubic" if plan is None else f"m4rm k={plan.k}"
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=25,
                        help="rounds per timing; the minimum is kept")
    parser.add_argument("--number", type=int, default=2000,
                        help="calls per round")
    args = parser.parse_args(argv)
    print(f"kernel {_kernel.backend()} ({_kernel.isa() or 'no isa'}), "
          f"min of {args.repeat} rounds of {args.number} calls, us")
    print(f"{'shape':>11} {'engine':>10} {'mul_strassen':>12} "
          f"{'create':>7} {'extension':>9} {'python':>7}")
    for m, l, n in SHAPES:
        row = measure(m, l, n, args.repeat, args.number)
        cells = [f"{row[key]:.3f}" if row[key] is not None else "n/a"
                 for key in ("mul_strassen", "create", "extension",
                             "python")]
        print(f"{row['shape']:>11} {row['engine']:>10} {cells[0]:>12} "
              f"{cells[1]:>7} {cells[2]:>9} {cells[3]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
