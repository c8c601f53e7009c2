"""The package's exception types and its rules for a count and a real."""

import operator
import sys


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class RangeError(ValueError):
    """An argument is outside the validated accuracy envelope."""


def check_count(name: str, value, lo: int, hi: int,
                above: type[ValueError] = DomainError) -> int:
    """``value`` as a Python int in [lo, hi]: a Python or numpy integer,
    never a bool.  Any other value, or one below lo, is a DomainError; one
    past hi raises ``above``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if not lo <= value <= hi:
        raise (DomainError if value < lo else above)(
            f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def check_real(name: str, value) -> float:
    """``value`` as a Python float, finite or not.  A bool, a value without
    __float__, or one float() refuses (10**400), is a DomainError.  A numpy
    bool is refused only if numpy is loaded: no numpy bool exists before."""
    np = sys.modules.get("numpy")
    if (isinstance(value, bool) or not hasattr(value, "__float__")
            or np is not None and isinstance(value, np.bool_)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (ValueError, OverflowError):
        # the repr of an int past 4300 digits raises: name the type
        raise DomainError(f"{name} must be finite, float() refuses this "
                          f"{type(value).__name__}") from None
