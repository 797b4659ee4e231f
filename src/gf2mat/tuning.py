"""Multiplication parameters (MulParams) and their defaults from cache
geometry.

The crossover is sized so two square operands fit in L2 (2 * cutoff^2 / 8
bytes), the M4RM block size is half of that, and the Gray-table width is
floor(0.75 * log2(b_s)) - 2, dropping by one more only when that makes all
t tables fit in L1 while the larger tables do not. The subtraction of 2
compensates for running 8 tables and is kept even for smaller t; pass an
explicit k to override. Pure operation counting would suggest k near
log2(n); in practice cache blocking dictates k through the block size, and
the smaller width wins. No hardware probing is done: cache sizes come from
arguments, a key=value config file, or conservative defaults (32 KiB L1,
1 MiB L2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import words_per_row
from .errors import ParameterError
from .graycode import MAX_K

DEFAULT_L1_BYTES = 32 * 1024
DEFAULT_L2_BYTES = 1 << 20
MAX_T = 8  # simultaneous Gray tables

_CONFIG_KEYS = ("l1_bytes", "l2_bytes", "cutoff", "bs", "k", "t")


@dataclass
class MulParams:
    """Tuning bundle for the full dispatch stack.

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
            self.b_s = max(self.cutoff // 2, 1)
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

    def effective_k(self, ncols: int, t: int | None = None) -> int:
        """Gray-table width of a product whose B has ncols columns: k, or
        for k == 0 the choose_k rule at this block size and L1 with t
        tables (default self.t)."""
        if self.k:
            return self.k
        return choose_k(max(self.b_s, 2), self.l1_bytes,
                        self.t if t is None else t, ncols)


def choose_k(b_s: int, l1_bytes: int, t: int = 8,
             ncols: int | None = None) -> int:
    """Gray-table width for a given block size and L1 capacity."""
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


def default_params(l1_bytes: int = DEFAULT_L1_BYTES,
                   l2_bytes: int = DEFAULT_L2_BYTES) -> MulParams:
    """MulParams for the given cache sizes.

    cutoff is the largest multiple of 64 whose two square operands fit in
    L2; b_s and t keep the MulParams defaults; k follows effective_k with
    table rows sized at the crossover width.
    """
    # isqrt rejects negatives; any L2 <= 0 is simply too small below
    cutoff = math.isqrt(4 * max(l2_bytes, 0))
    cutoff -= cutoff % 64
    if cutoff < 64:
        raise ParameterError(f"L2 of {l2_bytes} bytes is too small to tune")
    params = MulParams(cutoff=cutoff, l1_bytes=l1_bytes, l2_bytes=l2_bytes)
    params.k = params.effective_k(cutoff)
    return params


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def resolve_params(l1_bytes: int | None = None, l2_bytes: int | None = None,
                   cutoff: int | None = None, bs: int | None = None,
                   k: int | None = None, t: int | None = None,
                   config: dict[str, int] | None = None) -> MulParams:
    """Explicit values over config-file values; whatever neither gives
    comes from default_params (the cutoff) and MulParams, and an unset k
    from effective_k at the cutoff width."""
    explicit = {"l1_bytes": l1_bytes, "l2_bytes": l2_bytes,
                "cutoff": cutoff, "bs": bs, "k": k, "t": t}
    cfg = config or {}
    given = {}
    for key, value in explicit.items():
        value = value if value is not None else cfg.get(key)
        if value is not None:
            given["b_s" if key == "bs" else key] = value
    if "cutoff" not in given:
        caches = {name: given[name] for name in ("l1_bytes", "l2_bytes")
                  if name in given}
        given["cutoff"] = default_params(**caches).cutoff
    params = MulParams(**given)
    if "k" not in given:
        params.k = params.effective_k(params.cutoff)
    return params
