"""mul_strassen's flat path: below the cutoff a product is one route memo
hit, one allocation of C and one engine call. Properties over flat
shapes on every backend, and the per-call state the path still reads:
the kernel of the current context and GF2MAT_CONFIG."""

from dataclasses import fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gf2mat import _kernel, core, strassen, tuning
from gf2mat import _reference as ref
from gf2mat.counters import counters
from gf2mat.errors import ParameterError
from gf2mat.strassen import MulParams, mul_strassen

# The scalar kernel differs from numpy only in its XOR loop, and is slow.
BACKENDS = [name for name in _kernel.available() if name != "scalar"]

needs_c = pytest.mark.skipif("c" not in BACKENDS, reason="no C compiler")

# The fitted rule (what mul_strassen(a, b) uses without a config), the
# paper's rule at t=3 and a fixed k with small row blocks; every drawn
# product stays at or below their cutoffs, so none of them recurses.
FLAT_PARAMS = [
    MulParams(cutoff=tuning.FITTED_CUTOFF, b_s=tuning.FITTED_CUTOFF,
              l2_bytes=tuning.FITTED_L2_BYTES),
    MulParams(cutoff=1024, t=3),
    MulParams(cutoff=1024, b_s=50, k=6, t=8),
]

# A dimension: empty, under a word (with a short A, the cubic route),
# a multiple of 64, or ragged.
dims = st.one_of(st.just(0), st.integers(1, 63),
                 st.integers(1, 8).map(lambda w: 64 * w),
                 st.integers(65, 600))


def operands(m, l, n):
    return core.random(m, l, seed=3 * m + l), core.random(l, n, seed=l + n)


def snapshot():
    return {f.name: getattr(counters, f.name) for f in fields(counters)}


@settings(max_examples=80, deadline=None)
@given(dims, dims, dims, st.sampled_from(FLAT_PARAMS))
def test_flat_product_matches_oracle_with_equal_counts(m, l, n, params):
    """The product equals the naive oracle's with clean trailing bits, and
    every backend books the same counter deltas for it."""
    a, b = operands(m, l, n)
    expected = ref.naive_product(a, b)
    deltas = {}
    for name in BACKENDS:
        before = snapshot()
        with _kernel.using(name):
            got = mul_strassen(a, b, params)
        after = snapshot()
        deltas[name] = {key: after[key] - before[key] for key in after}
        assert got.shape == (m, n)
        assert ref.first_mismatch(got, expected) is None, name
        assert core.trailing_bits_clean(got)
    assert all(d == deltas[BACKENDS[0]] for d in deltas.values()), deltas


@settings(max_examples=40, deadline=None)
@given(dims, dims, dims, st.sampled_from(FLAT_PARAMS))
def test_flat_product_over_budget_raises_before_allocating(m, l, n,
                                                            params):
    """With the table budget one byte under the plan's tables, the product
    raises ParameterError before anything is allocated, on every backend,
    even right after the same shape succeeded under the full budget."""
    plan = strassen._base_route(m, l, n, params, _kernel.MAX_TABLE_BYTES)
    assume(plan is not None)  # the cubic route and empty products
    a, b = operands(m, l, n)
    mul_strassen(a, b, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "MAX_TABLE_BYTES", plan.table_bytes - 1)
        for name in BACKENDS:
            allocated = counters.words_allocated
            with _kernel.using(name), pytest.raises(ParameterError):
                mul_strassen(a, b, params)
            assert counters.words_allocated == allocated, name


@needs_c
@pytest.mark.parametrize("shape", [(32, 32, 64), (16, 1000, 40)],
                         ids=["m4rm", "cubic"])
def test_numpy_context_never_calls_the_extension(shape, monkeypatch):
    """Inside _kernel.using("numpy") a flat product runs on the Python
    engines and never reaches the extension; outside it, the same product
    goes to the extension of the default kernel."""
    m, l, n = shape
    a, b = operands(m, l, n)
    calls = []

    def refuse(*args):
        calls.append(args)
        raise RuntimeError("extension called")

    kernel = _kernel.get("c")
    monkeypatch.setattr(kernel, "m4rm", refuse)
    monkeypatch.setattr(kernel, "cubic", refuse)
    with _kernel.using("numpy"):
        got = mul_strassen(a, b)
    assert ref.first_mismatch(got, ref.naive_product(a, b)) is None
    assert not calls
    with pytest.raises(RuntimeError, match="extension called"):
        mul_strassen(a, b)
    assert len(calls) == 1


def test_config_set_between_products_changes_the_route(tmp_path,
                                                       monkeypatch):
    """mul_strassen(a, b) reads GF2MAT_CONFIG on every call: a config set
    between two products of one shape gives the second its own k, row
    block and table count, and unsetting it brings the fitted route
    back."""
    monkeypatch.delenv(tuning.CONFIG_ENV, raising=False)
    a, b = operands(70, 300, 200)
    expected = ref.naive_product(a, b)
    routes = []
    real = strassen._mul_into

    def spy(c, a, b, plan, b_s, t):
        routes.append((plan.k, b_s, t))
        real(c, a, b, plan, b_s, t)

    monkeypatch.setattr(strassen, "_mul_into", spy)
    products = [mul_strassen(a, b)]
    cfg = tmp_path / "gf2mat.conf"
    cfg.write_text("cutoff=1024\nk=3\nt=2\n")
    monkeypatch.setenv(tuning.CONFIG_ENV, str(cfg))
    products.append(mul_strassen(a, b))
    monkeypatch.delenv(tuning.CONFIG_ENV)
    products.append(mul_strassen(a, b))
    fitted = tuning.auto_params()
    assert routes == [
        (fitted.effective_k(200, nrows=70), fitted.b_s, fitted.t),
        (3, 512, 2),
        (fitted.effective_k(200, nrows=70), fitted.b_s, fitted.t)]
    for got in products:
        assert ref.first_mismatch(got, expected) is None
