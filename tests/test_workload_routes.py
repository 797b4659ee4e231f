"""The route of every benchmark product under the automatic parameters.

Each perfbench workload's shapes are read from `perfbench/workloads.py`,
loaded by path and left unchanged. For every shape the route that
`mul_strassen(a, b)` takes is pinned: cubic, or M4RM at (k, b_s, t,
table_stride) in its orientation, direct or transposed (C^T = B^T A^T).
A change of how the route is computed must leave every one of them as it
is.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from gf2mat import _kernel, core, m4rm, strassen, tuning
from gf2mat import _reference as ref
from gf2mat.cubic import mul_cubic

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()

# Per workload, in the order of workloads.shapes(): the Gray width of each
# product in hex ("c" for cubic), log2 of its table stride in words ("-"
# for cubic), and its orientation ("d" direct, "t" transposed, "-" for
# cubic). A transposed product's width and stride are those of its n x l
# x m plan. Every M4RM product runs one row block of 8192 rows with 8
# tables.
PINNED = {
    "square-auto": ("7", [64], "d"),
    "ragged-auto": ("7", [72], "d"),
    "small-batch": (
        "c4444444444444c44444454c44444444444444444444444444444444444c4444"
        "4444444444c444444444444444444444545444444c44444444445444544c4444"
        "444c454445444545444444c44444444444444444444444c4444445444444c444"
        "5c444444",
        "-1424144342223-34144134-14104432341004030123334334111444234-3143"
        "3332134130-444442312144414243313322142311-43044334132434334-2332"
        "021-331203124312243321-44322040122113433140443-2444442221440-432"
        "2-323022",
        "-tdtddtddttddd-ddddtddd-ddddtddtdtdddddttdddttdtddddttdtdtt-dddt"
        "dtdtdddddd-tddtttddttddttddtdtdddddtdtddt-tddddddddtdtttttd-tttt"
        "dtt-dddtdtdtddddtdttdd-ddddddddtddtdtdttdddddd-tttdtdddtttdd-ddd"
        "d-tttddd"),
}


def pinned_routes(workload):
    ks, strides, orientations = PINNED[workload]
    if isinstance(strides, str):
        strides = [None if s == "-" else 1 << int(s) for s in strides]
    return [None if k == "c" else (int(k, 16), 8192, 8, stride, o == "t")
            for k, stride, o in zip(ks, strides, orientations)]


def route(m, l, n):
    """mul_strassen(a, b)'s route of an m x l x n product: None for cubic,
    else (k, b_s, t, table_stride, transposed)."""
    params = tuning.auto_params()
    plan = strassen._base_route(m, l, n, params, _kernel.MAX_TABLE_BYTES)
    if plan is None:
        return None
    return (plan.k, params.b_s, params.t, plan.table_stride,
            plan.transposed)


@pytest.fixture(autouse=True)
def no_config(monkeypatch):
    monkeypatch.delenv(tuning.CONFIG_ENV, raising=False)


def test_small_batch_route_counts():
    counts = Counter(None if r is None else (r[0], r[4])
                     for r in pinned_routes("small-batch"))
    assert counts == {None: 12, (4, False): 110, (5, False): 9,
                      (4, True): 67, (5, True): 2}
    assert pinned_routes("square-auto") == [(7, 8192, 8, 64, False)]
    assert pinned_routes("ragged-auto") == [(7, 8192, 8, 72, False)]


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
    kernel, reaches the engine of its orientation with the pinned route,
    in one extension call."""
    kernel = _kernel.get("c")
    calls = []

    def spy(transposed, real):
        def engine(c, a, b, l, n, k, b_s, t, stride):
            calls.append((k, b_s, t, stride, transposed))
            return real(c, a, b, l, n, k, b_s, t, stride)
        return engine

    def cubic(c, a, b, l, n, _real=kernel.cubic):
        calls.append(None)
        return _real(c, a, b, l, n)

    monkeypatch.setattr(kernel, "m4rm", spy(False, kernel.m4rm))
    monkeypatch.setattr(kernel, "m4rm_t", spy(True, kernel.m4rm_t))
    monkeypatch.setattr(kernel, "cubic", cubic)
    with _kernel.using("c"):
        for i, (m, l, n) in enumerate(workloads.shapes(workload)):
            strassen.mul_strassen(core.random(m, l, seed=i),
                                  core.random(l, n, seed=i + 1))
    assert calls == pinned_routes(workload)


# small-batch products small enough for the scalar engine: the three
# smallest of each orientation.
def few_products():
    shapes = workloads.shapes("small-batch")
    routes = pinned_routes("small-batch")
    chosen = []
    for transposed in (False, True):
        chosen += sorted((m * l * n, (m, l, n)) for (m, l, n), r
                         in zip(shapes, routes)
                         if r is not None and r[4] == transposed)[:3]
    return [shape for _, shape in chosen]


def test_every_backend_takes_the_same_orientation(monkeypatch):
    """mul_strassen runs each product in the same orientation on every
    backend: the transposed engine is reached on the Python kernels
    (m4rm._mul_t_into) exactly where it is on the compiled one (its
    m4rm_t entry), and the product is right."""
    reached = {name: [] for name in _kernel.available()}

    def python_engine(kernel, c, a, b, plan, _real=m4rm._mul_t_into):
        reached[kernel.name].append((a.nrows, a.ncols, b.ncols))
        _real(kernel, c, a, b, plan)

    monkeypatch.setattr(m4rm, "_mul_t_into", python_engine)
    if "c" in reached:
        kernel = _kernel.get("c")

        def extension(c, a, b, *args, _real=kernel.m4rm_t):
            reached["c"].append((a.nrows, a.ncols, b.ncols))
            _real(c, a, b, *args)

        monkeypatch.setattr(kernel, "m4rm_t", extension)
    shapes = few_products()
    for name in reached:
        with _kernel.using(name):
            for i, (m, l, n) in enumerate(shapes):
                a, b = core.random(m, l, seed=i), core.random(l, n, seed=i)
                got = strassen.mul_strassen(a, b)
                assert ref.first_mismatch(got, ref.naive_product(a, b)) \
                    is None, (name, m, l, n)
    expected = [shape for shape in shapes if route(*shape)[4]]
    assert len(expected) == 3
    assert all(got == expected for got in reached.values()), reached


@pytest.mark.parametrize("backend", _kernel.available())
def test_named_entries_never_transpose(monkeypatch, backend):
    """The paper's named entries, mul_m4rm* and mul_cubic, run in their
    direct orientation even on shapes whose automatic route is
    transposed."""
    def refuse(*args):
        raise AssertionError("transposed engine reached")

    monkeypatch.setattr(m4rm, "_mul_t_into", refuse)
    if "c" in _kernel.available():
        monkeypatch.setattr(_kernel.get("c"), "m4rm_t", refuse)
    shapes = [shape for shape in few_products() if route(*shape)[4]]
    with _kernel.using(backend):
        for i, (m, l, n) in enumerate(shapes):
            a, b = core.random(m, l, seed=i), core.random(l, n, seed=i)
            expected = ref.naive_product(a, b)
            c = core.create(m, n)
            m4rm.mul_m4rm_into(c, a, b, 4, 64, 8)
            for got in (m4rm.mul_m4rm(a, b, 4),
                        m4rm.mul_m4rm_blocked(a, b, 4, 64),
                        m4rm.mul_m4rm_multitable(a, b, 4, 8, 8192), c,
                        mul_cubic(a, b)):
                assert ref.first_mismatch(got, expected) is None
