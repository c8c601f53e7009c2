"""Exception types shared across the package, and the rule for a count."""

import operator


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
