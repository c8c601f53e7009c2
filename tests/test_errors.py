"""One rule for every count a caller passes: a Python or numpy integer,
never a bool, inside the entry point's range."""

import re

import numpy as np
import pytest

from bincoupling import (
    CutpointTable,
    DomainError,
    RangeError,
    SweepConfig,
    build_table,
    log_tail_exact_all,
    tail_numerator,
)
from bincoupling.binom_exact import N_MAX_EXACT, lambda_table
from bincoupling.cutpoints import N_MAX_TABLE


def hand_built_table(n):
    """A CutpointTable of n given entries; the check of n comes first."""
    size = n if type(n) in (int, np.int64) else 1
    return CutpointTable(n=n, z=np.zeros(size),
                         beta=np.arange(size, dtype=float),
                         log_tail=np.zeros(size))


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
        return (type(result.n), result.n, result.z.tobytes(),
                result.beta.tobytes(), result.log_tail.tobytes())
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, tuple):
        return [(type(v), v) for v in result]
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
