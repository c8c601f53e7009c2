"""One rule for every count a caller passes: a Python or numpy integer,
never a bool, inside the entry point's range; and one for every real: a
Python or numpy number, never a bool, that float() can hold."""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bincoupling import (
    CutpointTable,
    DomainError,
    RangeError,
    SweepConfig,
    build_table,
    couple,
    log_tail_exact_all,
    tail_numerator,
)
from bincoupling.approx import lambda_table
from bincoupling.binom_exact import N_MAX_EXACT
from bincoupling.cutpoints import N_MAX_TABLE
from bincoupling.normal_tail import inverse_psi, psi, rho


def hand_built_table(n):
    """A CutpointTable of n given entries; the check of n comes first."""
    size = n if type(n) in (int, np.int64) else 1
    return CutpointTable(n=n, z=(0.0,) * size,
                         beta=tuple(map(float, range(size))),
                         log_tail=(0.0,) * size)


# each entry point that takes a count: a call of it on the count, the
# count's range and the error a count past the range's top raises
COUNTS = {
    "build_table": (build_table, 1, N_MAX_TABLE, RangeError),
    "CutpointTable": (hand_built_table, 1, N_MAX_TABLE, RangeError),
    "SweepConfig": (lambda n: SweepConfig(n_values=(n,)).n_values,
                    1, N_MAX_TABLE, DomainError),
    "tail_numerator-n": (lambda n: tail_numerator(n, 0),
                         1, N_MAX_EXACT, DomainError),
    "tail_numerator-k": (lambda k: tail_numerator(64, k), 0, 64, DomainError),
    "log_tail_exact_all": (log_tail_exact_all, 1, N_MAX_EXACT, DomainError),
    "lambda_table": (lambda_table, 0, N_MAX_EXACT, DomainError),
}


def plain(result):
    """A result as Python values that compare equal only when the results
    are the same to the bit, the types of their ints included."""
    if isinstance(result, CutpointTable):
        return (type(result.n), result.n,
                *map(plain, (result.z, result.beta, result.log_tail)))
    if isinstance(result, (tuple, list)):
        return [(type(v), v.hex() if type(v) is float else v)
                for v in result]
    return type(result), result


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_follows_one_rule(entry):
    call, lo, hi, above = COUNTS[entry]
    # unchecked, True would run as 1 and a float would fail later, or not
    # at all, with another error
    for bad in (True, 28.0, 28.5, "28"):
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            call(bad)
    with pytest.raises(DomainError, match=re.escape(f"[{lo}, {hi}]")):
        call(lo - 1)
    with pytest.raises(above, match=re.escape(f"[{lo}, {hi}]")):
        call(hi + 1)
    # a numpy integer is the int of its value: tail_numerator(64, 0) is
    # 2^64, where an int64 n would wrap its numerators
    for v in (lo, 64):
        assert plain(call(np.int64(v))) == plain(call(v)), v


# each entry point that takes a real, as a call of it on the real
TABLE_4096 = build_table(4096)
REALS = {
    "couple": lambda y: couple(TABLE_4096, y),
    "psi": psi,
    "rho": rho,
    "inverse_psi": inverse_psi,
}


@pytest.mark.parametrize("entry", REALS)
def test_every_real_follows_one_rule(entry):
    call = REALS[entry]
    # unchecked, float() would read the first five as 1.5, 2049, 1.5, 2049
    # and 10, and the two bools as 1
    for bad in ("1.5", "2049", b"1.5", b"2049", bytearray(b"10"), True,
                np.True_, None):
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            call(bad)
    # float() overflows on the first four and refuses a signalling nan;
    # 10**5000 has no repr past Python's 4300-digit limit, so the message
    # names the type of a value that is not yet a float
    for bad in (10**400, -10**400, 10**5000, Fraction(10**400),
                Decimal("sNaN"), Decimal("Infinity"), np.float64("nan"),
                np.float32("inf")):
        with pytest.raises(DomainError, match="must be finite") as refused:
            call(bad)
        assert len(str(refused.value)) < 60, type(bad)
    # a numpy number or an int is the Python float of its value
    for v in (np.float64(31.7), np.float32(31.7), np.int64(32), 32):
        assert plain(call(v)) == plain(call(float(v))), repr(v)
