"""Exception classes shared across the library, and the integer check of
its parameters."""

import operator


class GF2MatError(ValueError):
    """Base class for all library errors."""


class DimensionError(GF2MatError):
    """Operand shapes are incompatible for the requested operation."""


class AlignmentError(GF2MatError):
    """A window column offset is not a multiple of the word size."""


class ParameterError(GF2MatError):
    """A tuning or algorithm parameter is outside its legal range."""


class FormatError(GF2MatError):
    """A matrix file is malformed; the message names the byte offset."""


def integer(value, name: str) -> int:
    """value as an int, when it is an integer (has __index__, as numpy's
    integers do); a float, a string or None raises ParameterError naming
    the parameter."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be an integer, not {value!r}") from None
