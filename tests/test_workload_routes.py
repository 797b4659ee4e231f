"""The route of every benchmark product under the automatic parameters.

Each perfbench workload's shapes are read from `perfbench/workloads.py`,
loaded by path and left unchanged. For every shape the route that
`mul_strassen(a, b)` takes is pinned: cubic, or M4RM at (k, b_s, t,
table_stride). A change of how the route is computed must leave every
one of them as it is.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from gf2mat import _kernel, core, strassen, tuning

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()

# Per workload, in the order of workloads.shapes(): the Gray width of each
# product in hex ("c" for cubic), and log2 of its table stride in words
# ("-" for cubic). Every M4RM product runs one row block of 8192 rows
# with 8 tables.
PINNED = {
    "square-auto": ("7", [64]),
    "ragged-auto": ("7", [72]),
    "small-batch": (
        "c4444454464444c44446454c44446444464444454444554544444646456c4445"
        "4544444444c644664444444644464544545444444c64444444455656554c4554"
        "444c454445444545445544c44444444444445455444444c4664645444644c444"
        "5c545444",
        "-0404134300223-34142134-14101431301004020123124234110040201-3140"
        "3031134130-044221310044104203013322041311-13044334112010324-0100"
        "000-331003104312240021-44322040022010410140443-2124242200040-432"
        "2-111022"),
}


def pinned_routes(workload):
    ks, strides = PINNED[workload]
    if isinstance(strides, str):
        strides = [None if s == "-" else 1 << int(s) for s in strides]
    return [None if k == "c" else (int(k, 16), 8192, 8, stride)
            for k, stride in zip(ks, strides)]


def route(m, l, n):
    """mul_strassen(a, b)'s route of an m x l x n product: None for cubic,
    else (k, b_s, t, table_stride)."""
    params = tuning.auto_params()
    plan = strassen._base_route(m, l, n, params, _kernel.MAX_TABLE_BYTES)
    if plan is None:
        return None
    return (plan.k, params.b_s, params.t, plan.table_stride)


@pytest.fixture(autouse=True)
def no_config(monkeypatch):
    monkeypatch.delenv(tuning.CONFIG_ENV, raising=False)


def test_small_batch_route_counts():
    counts = Counter(None if r is None else r[0]
                     for r in pinned_routes("small-batch"))
    assert counts == {None: 12, 4: 137, 5: 32, 6: 19}
    assert pinned_routes("square-auto") == [(7, 8192, 8, 64)]
    assert pinned_routes("ragged-auto") == [(7, 8192, 8, 72)]


@pytest.mark.parametrize("backend", _kernel.available())
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_shape_keeps_its_route(backend, workload):
    shapes = workloads.shapes(workload)
    expected = pinned_routes(workload)
    assert len(shapes) == len(expected)
    with _kernel.using(backend):
        got = [route(*shape) for shape in shapes]
    assert got == expected


@pytest.mark.skipif("c" not in _kernel.available(), reason="no C compiler")
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_compiled_engine_receives_the_route(monkeypatch, workload):
    """Every product of the workload, run by mul_strassen on the compiled
    kernel, reaches the engine with the pinned route."""
    kernel = _kernel.get("c")
    calls = []

    def m4rm(c, a, b, l, n, k, b_s, t, stride, _real=kernel.m4rm):
        calls.append((k, b_s, t, stride))
        return _real(c, a, b, l, n, k, b_s, t, stride)

    def cubic(c, a, b, l, n, _real=kernel.cubic):
        calls.append(None)
        return _real(c, a, b, l, n)

    monkeypatch.setattr(kernel, "m4rm", m4rm)
    monkeypatch.setattr(kernel, "cubic", cubic)
    with _kernel.using("c"):
        for i, (m, l, n) in enumerate(workloads.shapes(workload)):
            strassen.mul_strassen(core.random(m, l, seed=i),
                                  core.random(l, n, seed=i + 1))
    assert calls == pinned_routes(workload)
