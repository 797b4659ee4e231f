"""Differential property: every product path on every backend against the
naive oracle, on windows of dirty parents with drawn parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nested_windows
from gf2mat import _kernel
from gf2mat import _reference as ref
from gf2mat.cubic import mul_cubic
from gf2mat.m4rm import mul_m4rm, mul_m4rm_blocked, mul_m4rm_multitable
from gf2mat.strassen import MulParams, mul_strassen

# Per backend: the widest Gray table (k), the largest dimension, the most
# row blocks per product and the examples drawn. The Python kernels fill
# a Gray table one row per interpreter step, so they draw narrower tables,
# fewer blocks and fewer examples; k up to 16 runs on every backend in
# tests/test_backends.py's fixed cases.
LIMITS = {"c": (16, 300, 300, 80), "numpy": (8, 300, 4, 30),
          "scalar": (6, 160, 2, 10)}


@st.composite
def products(draw, backend):
    """Operands a (m x l) and b (l x n), each a window of a dirty parent,
    and drawn k, t, b_s and Strassen cutoff (at least 64)."""
    max_k, max_dim, max_blocks, _ = LIMITS[backend]
    # Half the draws take one Strassen level at least, with peeling: a
    # level halves the dimensions in multiples of 64, down to the cutoff.
    recurse = draw(st.booleans())
    m, l, n = (draw(st.integers(128 if recurse else 0, max_dim))
               for _ in range(3))
    a = draw(nested_windows(m, l))[1]
    b = draw(nested_windows(l, n))[1]
    k = draw(st.integers(1, max_k))
    t = draw(st.integers(1, 8))
    b_s = -(-max(m, 1) // draw(st.integers(1, max_blocks)))
    cutoff = draw(st.integers(64, min(m, l, n) // 128 * 64 if recurse
                              else 320))
    return a, b, k, t, b_s, cutoff


@pytest.mark.parametrize("backend", _kernel.available())
def test_every_product_matches_naive(backend):
    @settings(max_examples=LIMITS[backend][3], deadline=None)
    @given(case=products(backend))
    def check(case):
        a, b, k, t, b_s, cutoff = case
        expected = ref.naive_product(a, b)
        roots = [a.parent.words, b.parent.words]
        before = [words.copy() for words in roots]
        params = MulParams(cutoff=cutoff, b_s=min(b_s, cutoff), k=k, t=t)
        with _kernel.using(backend):
            results = {
                "auto": mul_strassen(a, b),
                "strassen": mul_strassen(a, b, params),
                "m4rm": mul_m4rm(a, b, k),
                "m4rm-blocked": mul_m4rm_blocked(a, b, k, b_s),
                "m4rm-multitable": mul_m4rm_multitable(a, b, k, t, b_s),
                "cubic": mul_cubic(a, b),
            }
        for name, c in results.items():
            assert ref.first_mismatch(c, expected) is None, name
        for words, old in zip(roots, before):
            assert np.array_equal(words, old)

    check()
