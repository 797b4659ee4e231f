"""Benchmark of gf2mat's automatic multiply path, gf2mat.mul_strassen(a, b).

    python3 perfbench/run.py --workload square-auto --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory. Every product of every pass is checked against a product
the benchmark computes itself (see check.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it record the host and the details behind the
figures.

--trace 0 reports the end-to-end metrics, with nothing rebound:
  pass_s          median wall time of one pass (one product, or the whole
                  batch for small-batch), each scaled by the host-speed
                  probes run just before and after it
  peak_mem_bytes  tracemalloc peak of one untimed pass above what was
                  allocated before each product (inputs excluded)
  setup_s         median, over fresh processes, of the time from just
                  before `import gf2mat` to the end of the first pass,
                  each scaled by a probe timed in the same process
The probe (probe.py) removes the host's speed drift; the unscaled wall
times are in the detail line.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (see tracer.py) as medians over the traced passes.
"""

import os

# The check's float32 matmul must not leave OpenBLAS threads spinning on
# the other cores while passes are timed. This has to happen before numpy
# is first imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 5       # fresh processes per run for setup_s
MIN_PASSES = 5       # timed passes per run, however short --seconds is
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here (no library sources, or a set-up
    process failed)."""


def require_sources() -> None:
    if not (SRC / "gf2mat" / "__init__.py").is_file():
        raise BenchError(f"no gf2mat sources under {SRC}")


def import_library():
    """Import gf2mat from this checkout's src/, never from elsewhere."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import gf2mat
    if SRC.resolve() not in Path(gf2mat.__file__).resolve().parents:
        raise BenchError(f"gf2mat imported from {gf2mat.__file__}, "
                         f"not from {SRC}")
    return gf2mat


def host_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(cache_dir.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = \
                (idx / "size").read_text().strip()
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "caches": caches}


def call(mul, a, b):
    """One product; an exception is returned so the check counts it."""
    try:
        return mul(a, b)
    except Exception as exc:  # noqa: BLE001 - any failure is a failed product
        return exc


def run_pass(mul, packed) -> list:
    return [call(mul, a, b) for a, b in packed]


class Tally:
    """Products attempted and failed, checked against the dense references."""

    def __init__(self, refs, inject_fault: bool):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_failure = None
        self._inject = inject_fault

    def add(self, results) -> None:
        """`results` holds, per product, (nrows, ncols, words) or an error."""
        for ref, res in zip(self.refs, results, strict=True):
            self.attempted += 1
            if isinstance(res, (Exception, str)):
                why = f"raised {res!r}" if isinstance(res, Exception) \
                    else res
            else:
                nrows, ncols, words = res
                if self._inject:
                    # Self-test: corrupt one bit of the first checked
                    # product; the check must report it.
                    self._inject = False
                    words = words.copy()
                    words[0, 0] ^= np.uint64(1 << 63)
                why = check.mismatch(nrows, ncols, words, ref)
                self.wrong += why is not None
            if why is not None:
                self.failed += 1
                self.first_failure = self.first_failure or why

    def add_pass(self, outs) -> None:
        self.add([o if isinstance(o, Exception) else (o.nrows, o.ncols,
                                                      o.words)
                  for o in outs])


def setup_child(args) -> None:
    """One fresh-process set-up (import, pack, first pass), then a probe;
    the times and products go to stdout as an npz archive."""
    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    start = time.perf_counter()
    gf2mat = import_library()
    packed = [(gf2mat.from_dense(a), gf2mat.from_dense(b)) for a, b in inputs]
    outs = run_pass(gf2mat.mul_strassen, packed)
    setup_s = time.perf_counter() - start
    host_speed = probe.Probe()
    host_speed()  # warm-up
    start = time.perf_counter()
    host_speed()
    probe_s = time.perf_counter() - start
    arrays = {"setup_s": np.array(setup_s), "probe_s": np.array(probe_s)}
    for i, o in enumerate(outs):
        if isinstance(o, Exception):
            arrays[f"error{i}"] = np.array(repr(o))
        else:
            arrays[f"shape{i}"] = np.array([o.nrows, o.ncols])
            arrays[f"words{i}"] = o.words
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    sys.stdout.buffer.write(buf.getvalue())
    sys.stdout.buffer.flush()


def measure_setup(args, tally: Tally) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes, with each one's probe seconds."""
    times, probes = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"] + (["--tiny"] if args.tiny
                                                 else [])
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, capture_output=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError("set-up process failed: "
                             + proc.stderr.decode(errors="replace")[-2000:])
        with np.load(io.BytesIO(proc.stdout), allow_pickle=False) as data:
            times.append(float(data["setup_s"]))
            probes.append(float(data["probe_s"]))
            results = []
            for i in range(len(tally.refs)):
                if f"error{i}" in data:
                    results.append(str(data[f"error{i}"]))
                else:
                    nrows, ncols = (int(x) for x in data[f"shape{i}"])
                    results.append((nrows, ncols, data[f"words{i}"]))
        tally.add(results)
    return times, probes


def library_counters(gf2mat):
    """The library's operation counters, or None if they are gone."""
    return getattr(getattr(gf2mat, "counters", None), "counters", None)


def memory_pass(gf2mat, packed, tally: Tally) -> tuple[int, int | None]:
    """Peak bytes above the pre-product level, tracemalloc and counter."""
    counters = library_counters(gf2mat)
    has_counter = all(hasattr(counters, f) for f in
                      ("rebase_peak", "live_words", "peak_live_words"))
    gc.collect()
    outs, peak, counter_peak = [], 0, 0
    tracemalloc.start()
    try:
        for a, b in packed:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            if has_counter:
                counters.rebase_peak()
                live = counters.live_words
            outs.append(call(gf2mat.mul_strassen, a, b))
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            if has_counter:
                counter_peak = max(counter_peak,
                                   (counters.peak_live_words - live) * 8)
    finally:
        tracemalloc.stop()
    tally.add_pass(outs)
    return peak, counter_peak if has_counter else None


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2]}


def probed_passes(gf2mat, packed, tally: Tally, seconds: float):
    """Passes until `seconds` have gone by, each between two runs of the
    host-speed probe. Checks run between passes, outside the timed region.
    Returns the pass times and the probe times (one more than passes).
    """
    host_speed = probe.Probe()
    passes, probes = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        host_speed()
        probes.append(time.perf_counter() - start)
        start = time.perf_counter()
        outs = run_pass(gf2mat.mul_strassen, packed)
        passes.append(time.perf_counter() - start)
        tally.add_pass(outs)
        del outs
    start = time.perf_counter()
    host_speed()
    probes.append(time.perf_counter() - start)
    return passes, probes


def traced_passes(gf2mat, packed, tally: Tally, seconds: float):
    """Untraced and traced passes, alternating, until `seconds` have gone
    by. Returns untraced times, traced times, and per traced pass its spans
    and counter deltas.
    """
    plain, traced_s, spans, deltas = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_s) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        outs = run_pass(gf2mat.mul_strassen, packed)
        plain.append(time.perf_counter() - start)
        tally.add_pass(outs)
        del outs
        gc.collect()
        before = snapshot(gf2mat)
        with tracer.Tracer() as tr:
            start = time.perf_counter()
            outs = run_pass(gf2mat.mul_strassen, packed)
            traced_s.append(time.perf_counter() - start)
        deltas.append({k: v - before[k] for k, v in snapshot(gf2mat).items()})
        spans.append(tr.spans)
        tally.add_pass(outs)
        del outs
    return plain, traced_s, spans, deltas


def snapshot(gf2mat) -> dict[str, int]:
    counters = library_counters(gf2mat)
    return {f: getattr(counters, f) for f in tracer.COUNTERS.values()
            if isinstance(getattr(counters, f, None), int)}


def per_layer(plain, traced_s, spans, deltas, targets: tracer.Tracer):
    """Per-layer medians over the traced passes, plus coverage details."""
    per_pass, shares = [], []
    for pass_spans, delta, elapsed in zip(spans, deltas, traced_s):
        times, covered = tracer.layer_times(pass_spans)
        values = dict(times)
        values.update(tracer.count_calls(pass_spans))
        for metric, field in tracer.COUNTERS.items():
            if field in delta:
                values[metric] = delta[field]
        per_pass.append(values)
        shares.append(covered / elapsed)
    metrics, absent = {}, list(targets.absent)
    for metric, unit in tracer.UNITS.items():
        field = tracer.COUNTERS.get(metric)
        if not targets.available(metric) \
                or (field and field not in deltas[0]):
            absent.append(metric)
            continue
        median = statistics.median if unit == "s" else statistics.median_low
        metrics[metric] = {"value": median(p[metric] for p in per_pass),
                           "unit": unit}
    traced_median = statistics.median(traced_s)
    detail = {
        "layer_share": {m: v["value"] / traced_median
                        for m, v in metrics.items() if v["unit"] == "s"},
        "traced_pass_s": quartiles(traced_s),
        "untraced_pass_s": quartiles(plain),
        "trace_overhead_s": traced_median - statistics.median(plain),
        "named_layer_share": statistics.median(shares),
        "absent": absent,
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every shape (self-test only)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="flip one bit of one product before its check")
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_child:
            setup_child(args)
            return 0
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def end_to_end(args, inputs, tally: Tally, detail: dict) -> dict:
    setup, setup_probes = measure_setup(args, tally)
    gf2mat = import_library()
    packed = [(gf2mat.from_dense(a), gf2mat.from_dense(b)) for a, b in inputs]
    peak, counter_peak = memory_pass(gf2mat, packed, tally)
    passes, probes = probed_passes(gf2mat, packed, tally, args.seconds)
    # Host-speed scaling (see probe.py): each pass is divided by the mean
    # of the probes just before and just after it.
    pass_s = statistics.median(
        2 * t * probe.REFERENCE_S / (before + after)
        for t, before, after in zip(passes, probes, probes[1:]))
    setup_s = statistics.median(
        t * probe.REFERENCE_S / p for t, p in zip(setup, setup_probes))
    detail.update({"pass_wall_samples": passes, "probe_samples": probes,
                   "pass_wall_s": quartiles(passes),
                   "probe_s": quartiles(probes),
                   "setup_wall_s": quartiles(setup),
                   "setup_probe_s": quartiles(setup_probes),
                   "peak_mem_bytes": peak,
                   "counter_peak_bytes": counter_peak})
    return {"pass_s": {"value": pass_s, "unit": "s"},
            "peak_mem_bytes": {"value": peak, "unit": "bytes"},
            "setup_s": {"value": setup_s, "unit": "s"}}


def layers(args, inputs, tally: Tally, detail: dict) -> dict:
    gf2mat = import_library()
    packed = [(gf2mat.from_dense(a), gf2mat.from_dense(b)) for a, b in inputs]
    tally.add_pass(run_pass(gf2mat.mul_strassen, packed))  # warm-up
    metrics, extra = per_layer(
        *traced_passes(gf2mat, packed, tally, args.seconds), tracer.Tracer())
    detail.update(extra)
    return metrics


def bench(args) -> int:
    require_sources()
    print(json.dumps({"host": host_record()}), flush=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    tally = Tally([check.reference_product(a, b) for a, b in inputs],
                  args.inject_fault)
    detail = {"workload": args.workload, "seed": args.seed,
              "products_per_pass": len(inputs)}
    run = layers if args.trace else end_to_end
    metrics = run(args, inputs, tally, detail)
    detail["first_failure"] = tally.first_failure
    print(json.dumps({"detail": detail}), flush=True)
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
