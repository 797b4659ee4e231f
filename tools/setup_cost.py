"""Split a fresh process's set-up into its phases, for one workload.

For the shapes of one perfbench workload (from perfbench/workloads.py,
which this script imports and leaves as it is), runs N fresh processes.
Each makes the workload's dense inputs, then times `import gf2mat`, the
`from_dense` of every input and the first pass of `mul_strassen` over
them: the three phases whose sum perfbench's `setup_s` times (before its
host-speed scaling). Prints each phase's median over the processes, and
the median total, in milliseconds. The processes inherit this one's
environment, so PYTHONDONTWRITEBYTECODE decides, as it does for any
user, whether gf2mat's sources are compiled in every process.

Usage: python tools/setup_cost.py [--workload W] [--seed S] [--runs N]
[--tiny] (run from a source checkout; gf2mat is imported from src/ next
to this script's directory).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("import", "from_dense", "first_pass")
CHILD_TIMEOUT_S = 120


def child(workload: str, seed: int, tiny: bool) -> dict:
    """One fresh process's phase times, in seconds, with the kernel it
    ran on and whether it wrote no bytecode."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    inputs = workloads.make_inputs(workload, seed, tiny)
    t0 = time.perf_counter()
    import gf2mat
    t1 = time.perf_counter()
    packed = [(gf2mat.from_dense(a), gf2mat.from_dense(b))
              for a, b in inputs]
    t2 = time.perf_counter()
    for a, b in packed:
        gf2mat.mul_strassen(a, b)
    t3 = time.perf_counter()
    return {"import": t1 - t0, "from_dense": t2 - t1, "first_pass": t3 - t2,
            "kernel": f"{gf2mat.backend()} "
                      f"({gf2mat._kernel.isa() or 'no isa'})",
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}


def measure(workload: str, seed: int, runs: int, tiny: bool) -> list[dict]:
    """child()'s record from each of `runs` fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed)]
    records = []
    for _ in range(runs):
        proc = subprocess.run(cmd + (["--tiny"] if tiny else []),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr}")
        records.append(json.loads(proc.stdout.splitlines()[-1]))
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="small-batch",
                        help="a perfbench workload (default small-batch)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10,
                        help="fresh processes; medians are printed")
    parser.add_argument("--tiny", action="store_true",
                        help="perfbench's shrunken shapes (a smoke test)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.workload, args.seed, args.tiny)))
        return 0
    records = measure(args.workload, args.seed, args.runs, args.tiny)
    first = records[0]
    print(f"{args.workload} seed {args.seed}, {args.runs} fresh processes, "
          f"kernel {first['kernel']}, bytecode "
          f"{'not written' if first['dont_write_bytecode'] else 'written'}")
    print(f"{'phase':<11} {'median_ms':>9}")
    for phase in PHASES:
        ms = statistics.median(r[phase] for r in records) * 1e3
        print(f"{phase:<11} {ms:>9.2f}")
    total = statistics.median(sum(r[p] for p in PHASES) for r in records)
    print(f"{'total':<11} {total * 1e3:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
