"""Exact quantile coupling of Bin(n, 1/2) with N(n/2, n/4), the tail and
cutpoint expansions around it, and a sweep harness that certifies every
inequality numerically.

The namespace is lazy (PEP 562): each exported name imports its submodule
on first access, so a process that only builds cutpoint tables and couples
draws never loads the sweep harness (``approx``, ``verify``)."""

import importlib

# bound before any submodule is imported: the sweep harness embeds it in
# reports
__version__ = "0.1.0"

_NAMES = {
    "binom_exact": ("log_tail_exact_all", "tail_numerator"),
    "cutpoints": ("CutpointTable", "build_table", "couple"),
    "errors": ("DomainError", "RangeError"),
    "verify": (
        "DEFAULT_N_VALUES", "CheckRows", "ConstantsReport", "SweepConfig",
        "coupling_check", "emit_report", "load_config", "run_sweep",
    ),
}

# exported name -> the submodule that defines it
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
