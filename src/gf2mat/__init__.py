"""Dense linear algebra over GF(2).

Bit-packed matrices with a hierarchy of multiplication algorithms: cubic
with word-parallel parity, Method of the Four Russians (basic, cache
blocked, multi-table), and Strassen-Winograd recursion with peeling for
non-conforming dimensions.
"""

from ._kernel import backend
from .core import (
    BitMatrix,
    MatrixWindow,
    add,
    add_into,
    augment,
    copy_into,
    copy_out,
    create,
    equal,
    first_difference,
    from_dense,
    get_bit,
    identity,
    load,
    random,
    read_bits,
    row_add,
    save,
    set_bit,
    set_scalar_xor,
    stack,
    to_dense,
    transpose,
    window,
)
from .cubic import mul_cubic, parity64, parity_accumulate
from .errors import (
    AlignmentError,
    DimensionError,
    FormatError,
    GF2MatError,
    ParameterError,
)
from .graycode import CombinationTable, GrayCode, build_gray, make_table
from .m4rm import (
    StripeSpec,
    mul_m4rm,
    mul_m4rm_blocked,
    mul_m4rm_into,
    mul_m4rm_multitable,
)
from .strassen import (
    MulParams,
    mul_strassen,
    peel_fixup,
    peel_split,
    schedule_winograd,
)
from .tuning import (
    auto_params,
    choose_k,
    default_params,
    load_config,
    resolve_params,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BitMatrix",
    "CombinationTable",
    "DimensionError",
    "FormatError",
    "GF2MatError",
    "GrayCode",
    "MatrixWindow",
    "MulParams",
    "ParameterError",
    "StripeSpec",
    "add",
    "add_into",
    "augment",
    "auto_params",
    "backend",
    "build_gray",
    "choose_k",
    "copy_into",
    "copy_out",
    "create",
    "default_params",
    "equal",
    "first_difference",
    "from_dense",
    "get_bit",
    "identity",
    "load",
    "load_config",
    "make_table",
    "mul_cubic",
    "mul_m4rm",
    "mul_m4rm_blocked",
    "mul_m4rm_into",
    "mul_m4rm_multitable",
    "mul_strassen",
    "parity64",
    "parity_accumulate",
    "peel_fixup",
    "peel_split",
    "random",
    "read_bits",
    "resolve_params",
    "row_add",
    "save",
    "schedule_winograd",
    "set_bit",
    "set_scalar_xor",
    "stack",
    "to_dense",
    "transpose",
    "window",
]
