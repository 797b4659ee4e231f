"""Multiplication parameters (MulParams): the paper's cache formula, and
the route of every base product of mul_strassen.

The paper's formula (default_params, choose_k): the crossover is sized so
two square operands fit in L2 (2 * cutoff^2 / 8 bytes), the M4RM block
size is half of that, and the Gray-table width is
floor(0.75 * log2(b_s)) - 2, dropping by one more only when that makes all
t tables fit in L1 while the larger tables do not. The subtraction of 2
compensates for running 8 tables and is kept even for smaller t; pass an
explicit k to override.

The automatic parameters (auto_params) come from the config file that
GF2MAT_CONFIG names, when it is set, and otherwise from a rule fitted to
the compiled kernel, whose cost is C row updates more than cache misses:
no Strassen level at or below 8192 (one level lost to flat M4RM at 4096
and 8192) and one row block up to that size.

Every base product below the recursion takes its engine and Gray width
from base_k, the one place that holds the fitted route: cubic for B
narrower than a word when A is short against B's rows (CUBIC_ROWS), an
explicit k, or else a Gray width chosen per product from its rows and
columns, the larger of two:
- the t tables span at most a quarter of the rows they serve and stay
  within half of L2, and k is never below MIN_FITTED_K. The L2 of that
  rule is the 2 MiB of the host it was fitted on; with 1 MiB the tables
  of 4133- and 8192-column products drop to k = 6, which measured 6-9%
  slower than k = 7.
- the t tables fit in half of L1 and have no more rows than the product
  has, as the paper sizes its tables to L1. At t = 8 it decides only
  below 1024 rows, where the first gives 4: k = 5 from 256 rows for B up
  to 512 columns, and 6 from 512 rows up to 256 columns. On small-batch's
  170 M4RM products it cut the engine's time by a further 5.6-7.9% over the
  shift-scaled index step alone, and by 11-15% on the 49 whose k it
  raised (kernel-only, BENCH_19.json). Its L1 is the default 32 KiB, so
  990x179x996, small-batch's largest tables, keeps k = 4 and 16 KiB.
No hardware probing is done: cache sizes come from arguments, a key=value
config file, or conservative defaults (32 KiB L1, 1 MiB L2).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from ._kernel import MAX_K, MAX_T
from .core import WORD_BITS, padded_cols, words_per_row
from .errors import ParameterError

DEFAULT_L1_BYTES = 32 * 1024
DEFAULT_L2_BYTES = 1 << 20
FITTED_CUTOFF = 8192  # auto crossover and row block without a config
FITTED_L2_BYTES = 2 << 20  # L2 of the host the auto rule was fitted on
MIN_FITTED_K = 4
# base_k sends a product to cubic when B is narrower than a word and
# m * n < CUBIC_ROWS * 64 * ceil(l / 64): A is short against B's row
# length, so M4RM's 2^k - 1 table row additions per stripe serve too few
# rows of A. Fitted on the compiled kernel (AVX-512, fitted k, t=8,
# b_s=8192) with a kernel-only sweep, min of 21 rounds of 5 calls per
# shape, over m in 16..1024, ceil(l / 64) in 1..16 and n in 16..63. In
# each of three sweeps the total is within 0.3% of the best at 5, 6 and
# 10, 0.6-0.8% higher at 12, 1.6-1.9% at 2 and 2.4-4.3% at 20; over
# small-batch's 200 shapes it is within 0.2% for 3..6 and 2.8-3.3% higher
# at 20 (BENCH_19.json).
CUBIC_ROWS = 5
CONFIG_ENV = "GF2MAT_CONFIG"

_CONFIG_KEYS = ("l1_bytes", "l2_bytes", "cutoff", "bs", "k", "t")


@dataclass(frozen=True)
class MulParams:
    """Tuning bundle for the full dispatch stack; immutable, so one
    instance can be shared by every product. Its hash, the one every
    route memo lookup takes, is computed once, in __post_init__.

    cutoff: dimension at or below which recursion hands over to M4RM.
    b_s: row block size inside M4RM (defaults to cutoff / 2).
    k: Gray-table width, 0 selects the tuning rule per multiplication.
    t: number of simultaneous Gray tables.
    l1_bytes / l2_bytes: cache capacities feeding the tuning rules.
    """

    cutoff: int = 2048
    b_s: int | None = None
    k: int = 0
    t: int = 8
    l1_bytes: int = DEFAULT_L1_BYTES
    l2_bytes: int = DEFAULT_L2_BYTES

    def __post_init__(self):
        if self.b_s is None:
            object.__setattr__(self, "b_s", max(self.cutoff // 2, 1))
        if self.cutoff < 64:
            raise ParameterError(f"cutoff {self.cutoff} < 64")
        if not 1 <= self.t <= MAX_T:
            raise ParameterError(f"t={self.t} outside 1..{MAX_T}")
        if not 0 <= self.k <= MAX_K:
            raise ParameterError(f"k={self.k} outside 0..{MAX_K}")
        if not 1 <= self.b_s <= self.cutoff:
            raise ParameterError(
                f"block size {self.b_s} outside 1..cutoff={self.cutoff}")
        if self.l1_bytes <= 0 or self.l2_bytes <= 0:
            raise ParameterError(
                f"cache sizes must be positive, got L1={self.l1_bytes} "
                f"L2={self.l2_bytes}")
        object.__setattr__(self, "_hash", hash((
            self.cutoff, self.b_s, self.k, self.t, self.l1_bytes,
            self.l2_bytes)))

    def __hash__(self) -> int:
        return self._hash

    def effective_k(self, ncols: int, t: int | None = None) -> int:
        """Gray-table width of a product whose B has ncols columns: k, or
        for k == 0 the paper's choose_k rule at this block size and L1
        with t tables (default self.t)."""
        if self.k:
            return self.k
        return choose_k(max(self.b_s, 2), self.l1_bytes,
                        self.t if t is None else t, ncols)


def choose_k(b_s: int, l1_bytes: int, t: int = 8,
             ncols: int | None = None) -> int:
    """The paper's Gray-table width for row blocks of b_s rows:
    floor(0.75 * log2(b_s)) - 2 within 1..MAX_K, one less when only the
    narrower t tables of ncols columns fit in l1_bytes."""
    if b_s < 2:
        raise ParameterError(f"block size {b_s} < 2")
    k0 = int(math.floor(0.75 * math.log2(b_s))) - 2
    k0 = max(1, min(MAX_K, k0))
    if ncols is not None and k0 > 1:
        row_bytes = words_per_row(ncols) * 8

        def fits(k: int) -> bool:
            return t * (1 << k) * row_bytes <= l1_bytes

        if not fits(k0) and fits(k0 - 1):
            return k0 - 1
    return k0


def base_k(m: int, l: int, n: int, params: MulParams) -> int:
    """The route of an m x l x n base product under params: 0 for cubic,
    when B is narrower than a word and m * n < CUBIC_ROWS * 64 *
    ceil(l / 64), whatever params.k is; else the M4RM Gray width, params.k
    when set and otherwise the fitted rule (_fitted_k). Not memoized:
    mul_strassen's products ask through strassen._base_route, whose memo
    holds the whole plan."""
    if n < WORD_BITS and m * n < CUBIC_ROWS * WORD_BITS * -(-l // WORD_BITS):
        return 0
    return params.k or _fitted_k(m, n, params)


def _fitted_k(m: int, n: int, params: MulParams) -> int:
    """The fitted Gray width of a product with m rows and n columns, the
    larger k of two, with t = params.t:
    - the largest k with t * 2^k <= min(m, b_s) / 4 (the t tables span at
      most a quarter of the rows they serve) and
      t * 2^k * row_bytes <= l2_bytes / 2, but never below MIN_FITTED_K;
    - the largest k whose t tables, rows padded as core.padded_cols pads
      them, fit in half of l1_bytes and have no more rows than the
      product has: t * 2^k <= min(m, b_s)."""
    t = params.t
    rows = min(m, max(params.b_s, 2))
    row_bytes = max(words_per_row(n), 1) * 8
    by_rows = (rows // (4 * t)).bit_length() - 1
    by_l2 = (params.l2_bytes // (2 * t * row_bytes)).bit_length() - 1
    stride_bytes = max(words_per_row(padded_cols(n)), 1) * 8
    in_l1 = min((rows // t).bit_length() - 1,
                (params.l1_bytes // (2 * t * stride_bytes)).bit_length() - 1)
    return max(MIN_FITTED_K, min(by_rows, by_l2, MAX_K), min(in_l1, MAX_K))


def _l2_cutoff(l2_bytes: int) -> int:
    """The largest multiple of 64 whose two square operands fit in L2."""
    # isqrt rejects negatives; any L2 <= 0 is simply too small below
    cutoff = math.isqrt(4 * max(l2_bytes, 0))
    cutoff -= cutoff % 64
    if cutoff < 64:
        raise ParameterError(f"L2 of {l2_bytes} bytes is too small to tune")
    return cutoff


def default_params(l1_bytes: int = DEFAULT_L1_BYTES,
                   l2_bytes: int = DEFAULT_L2_BYTES) -> MulParams:
    """MulParams for the given cache sizes.

    cutoff is the largest multiple of 64 whose two square operands fit in
    L2; b_s and t keep the MulParams defaults; k follows effective_k with
    table rows sized at the crossover width.
    """
    return resolve_params(l1_bytes=l1_bytes, l2_bytes=l2_bytes)


def parse_config(text: str) -> dict[str, int]:
    """Parse the key=value config format; keys are the MulParams knobs."""
    out: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = int(value.strip())
        except ValueError:
            raise ParameterError(
                f"config line {lineno}: {key} needs an integer") from None
    return out


def load_config(path) -> dict[str, int]:
    """Parse a config file; an unreadable or malformed one raises a
    ParameterError that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ParameterError(f"{path}: {exc.strerror}") from None
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


# GF2MAT_CONFIG as a key of os.environ's own store. env_config looks it up
# there: os.environ.get raises and catches a KeyError when the variable is
# unset, about 1 us of every automatic product.
_CONFIG_KEY = os.environ.encodekey(CONFIG_ENV)


def env_config() -> dict[str, int] | None:
    """The config file GF2MAT_CONFIG names, parsed; None when unset or
    empty. The variable is read on every call."""
    path = os.environ._data.get(_CONFIG_KEY)
    return load_config(os.environ.decodevalue(path)) if path else None


# The fitted rule: cutoff and row block FITTED_CUTOFF, k chosen per
# product by base_k against the fitting host's L2, FITTED_L2_BYTES.
_FITTED = MulParams(cutoff=FITTED_CUTOFF, b_s=FITTED_CUTOFF,
                    l2_bytes=FITTED_L2_BYTES)


def auto_params() -> MulParams:
    """Parameters of mul_strassen(a, b): the config GF2MAT_CONFIG names,
    resolved as the CLI resolves it, or else the fitted rule, one shared
    immutable instance. The variable is read on every call. An unset or
    empty one is caught here, with env_config's own lookup, so the fitted
    rule costs no call of env_config (about 0.07 us a product)."""
    if not os.environ._data.get(_CONFIG_KEY):
        return _FITTED
    return resolve_params(config=env_config())


def resolve_params(l1_bytes: int | None = None, l2_bytes: int | None = None,
                   cutoff: int | None = None, bs: int | None = None,
                   k: int | None = None, t: int | None = None,
                   config: dict[str, int] | None = None) -> MulParams:
    """Explicit values over config-file values; whatever neither gives
    comes from the paper's formula: the cutoff from L2, the rest from
    MulParams, and an unset k from effective_k at the cutoff width."""
    explicit = {"l1_bytes": l1_bytes, "l2_bytes": l2_bytes,
                "cutoff": cutoff, "bs": bs, "k": k, "t": t}
    cfg = config or {}
    given = {}
    for key, value in explicit.items():
        value = value if value is not None else cfg.get(key)
        if value is not None:
            given["b_s" if key == "bs" else key] = value
    if "cutoff" not in given:
        given["cutoff"] = _l2_cutoff(given.get("l2_bytes", DEFAULT_L2_BYTES))
    params = MulParams(**given)
    if "k" not in given:
        params = replace(params, k=params.effective_k(params.cutoff))
    return params
