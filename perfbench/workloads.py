"""Workload inputs for the benchmark, generated from the run's seed.

Every input is a dense 0/1 uint8 array made with numpy; the library only
ever sees packed copies of these. The shape lists are part of each
workload's definition and do not depend on the seed, so every run does the
same amount of work; the seed draws the matrix entries (and, for
small-batch, the order of the products).
"""

from __future__ import annotations

import zlib

import numpy as np

WORKLOADS = ("square-auto", "ragged-auto", "small-batch")

# small-batch shapes come from this fixed stream, not from the run's seed:
# a seed-dependent draw of 200 heavy-tailed shapes moves the batch's total
# work by several per cent between seeds, which would swamp the bounds.
_BATCH_SHAPE_SEED = 20081114
_BATCH_SIZE = 200
_BATCH_DIM_RANGE = (16, 1024)


def batch_shapes(count: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(m, l, n) triples with each dimension log-uniform in [lo, hi]."""
    rng = np.random.default_rng(_BATCH_SHAPE_SEED)
    logs = rng.uniform(np.log(lo), np.log(hi), size=(count, 3))
    dims = np.clip(np.rint(np.exp(logs)).astype(int), lo, hi)
    return [tuple(int(x) for x in row) for row in dims]


def shapes(workload: str, tiny: bool = False) -> list[tuple[int, int, int]]:
    """The (m, l, n) of every product in one pass of the workload.

    `tiny` shrinks every shape so the whole run takes seconds; it is for
    the benchmark's self-test, not for measurement.
    """
    if workload == "square-auto":
        return [(192, 192, 192)] if tiny else [(4096, 4096, 4096)]
    if workload == "ragged-auto":
        return [(133, 200, 133)] if tiny else [(4133, 5000, 4133)]
    if workload == "small-batch":
        if tiny:
            return batch_shapes(12, 16, 160)
        return batch_shapes(_BATCH_SIZE, *_BATCH_DIM_RANGE)
    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(workload: str, seed: int,
                tiny: bool = False) -> list[tuple[np.ndarray, np.ndarray]]:
    """Dense (A, B) operand pairs for one pass, deterministic in `seed`."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    dims = shapes(workload, tiny)
    if len(dims) > 1:
        dims = [dims[i] for i in rng.permutation(len(dims))]
    return [(rng.integers(0, 2, size=(m, l), dtype=np.uint8),
             rng.integers(0, 2, size=(l, n), dtype=np.uint8))
            for m, l, n in dims]
