"""Fit the orientation model of tuning.transposed_k on the compiled kernel.

Times every M4RM product of perfbench's small-batch workload both ways,
kernel-only: directly (the extension's `m4rm`, at base_k's Gray width)
and as C^T = B^T A^T (its `m4rm_t`, at the width the transposed shape
gets), each the minimum over ROUNDS rounds of the mean of CALLS calls,
the products taking turns in every round. Then fits the model's four
weights (ns per step, per looked-up word, per table word and per
transposed word, plus an intercept per call that both orientations pay)
by least squares, and prints one JSON object: the weights, the engine
total of the direct products, of the orientation the fitted model picks,
of the orientation tuning's weights pick, and of the faster side of each
shape (picked from the same sweep, so optimistic).

Usage: python tools/orientation_fit.py (from a source checkout; gf2mat
is imported from src/ next to this script's directory).
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gf2mat import _kernel, core, m4rm, tuning  # noqa: E402

ROUNDS = 11
CALLS = 5
WEIGHTS = ("STEP_NS", "LOOKUP_WORD_NS", "TABLE_WORD_NS", "TRANSPOSE_WORD_NS")


def small_batch_shapes() -> list[tuple[int, int, int]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.shapes("small-batch")


def features(m: int, l: int, n: int, plan: m4rm.Plan) -> list[float]:
    """The model's terms of `plan` for an m x l x n product: steps,
    looked-up words, table words and transposed words (tuning's
    transposed_k and _m4rm_cost count them), and 1 for the intercept."""
    rows, width = (n, plan.table_stride) if plan.transposed \
        else (m, core.words_per_row(n))
    lookups = plan.row_adds - plan.table_adds
    through = tuning.transposed_words(m, l, n) if plan.transposed else 0
    return [plan.c_writes, lookups * width, plan.table_adds * width,
            through, 1.0]


def plans(m: int, l: int, n: int, params) -> list[m4rm.Plan]:
    """The direct plan of an M4RM product and, where the transposed
    engine runs it, the transposed one."""
    k = tuning.base_k(m, l, n, params)
    out = [m4rm._table_layout(m, l, n, k, params.b_s, params.t)]
    kt = params.k or tuning._fitted_k(n, m, params)
    if params.t * min(kt, l) <= core.WORD_BITS:
        out.append(m4rm._table_layout(m, l, n, kt, params.b_s, params.t,
                                      transposed=True))
    return out


def time_plans(kernel, jobs: list) -> list[float]:
    """Per job (a, b, c, plan), the minimum over ROUNDS rounds of the
    mean time of CALLS engine calls, in ns."""
    best = [float("inf")] * len(jobs)
    for _ in range(ROUNDS):
        for i, (a, b, c, plan) in enumerate(jobs):
            engine = kernel.m4rm_t if plan.transposed else kernel.m4rm
            args = (c, a, b, a.ncols, b.ncols, plan.k, plan.b_s, plan.t,
                    plan.table_stride)
            start = time.perf_counter()
            for _ in range(CALLS):
                engine(*args)
            best[i] = min(best[i], (time.perf_counter() - start) / CALLS)
    return [t * 1e9 for t in best]


def main() -> int:
    kernel = _kernel.get("c") if "c" in _kernel.available() else None
    if kernel is None:
        print(json.dumps({"error": "no compiled kernel"}))
        return 1
    params = tuning.auto_params()
    shapes, jobs = [], []
    for i, (m, l, n) in enumerate(small_batch_shapes()):
        if not tuning.base_k(m, l, n, params):
            continue  # cubic
        a, b = core.random(m, l, seed=i), core.random(l, n, seed=i + 1)
        shape_plans = plans(m, l, n, params)
        shapes.append(((m, l, n), len(jobs), len(shape_plans)))
        jobs += [(a, b, core.create(m, n), plan) for plan in shape_plans]
    times = time_plans(kernel, jobs)
    x = np.array([features(*shape, jobs[j][3])
                  for shape, first, count in shapes
                  for j in range(first, first + count)])
    y = np.array(times)
    fit, *_ = np.linalg.lstsq(x, y, rcond=None)
    fitted = dict(zip(WEIGHTS, fit[:4]))

    def total(pick) -> float:
        return sum(pick(first, count) for _, first, count in shapes)

    def model(weights):
        def pick(first, count):
            costs = [x[j, :4] @ weights for j in range(first, first + count)]
            return times[first + int(np.argmin(costs))]
        return pick

    current = np.array([getattr(tuning, name) for name in WEIGHTS])
    direct = total(lambda first, count: times[first])
    print(json.dumps({
        "host_isa": _kernel.isa(),
        "products": len(shapes),
        "rounds": ROUNDS, "calls": CALLS,
        "weights_ns": {k: round(float(v), 4) for k, v in fitted.items()},
        "intercept_ns": round(float(fit[4]), 1),
        "direct_total_us": round(direct / 1e3, 1),
        "fitted_pick_total_us": round(total(model(fit[:4])) / 1e3, 1),
        "tuning_pick_total_us": round(total(model(current)) / 1e3, 1),
        "faster_side_total_us": round(total(
            lambda first, count: min(times[first:first + count])) / 1e3, 1),
        "transposed_by_tuning": sum(
            int(count == 2 and x[first + 1, :4] @ current
                < x[first, :4] @ current) for _, first, count in shapes),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
