"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class RangeError(ValueError):
    """An argument is outside the validated accuracy envelope."""

