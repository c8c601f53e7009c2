"""Quantile coupling of Bin(n, 1/2) with N(n/2, n/4).

The cutpoints beta_1 < ... < beta_n are defined by matching tails,

    P{Bin(n, 1/2) >= k} = P{Y > beta_k},   Y ~ N(n/2, n/4),

with sentinels beta_0 = -inf and beta_{n+1} = +inf.  In standardized units
z_k = 2(beta_k - n/2)/sqrt(n) this is psi(z_k) = -log tail, solved by
Newton's method on the convex psi, one k at a time.  Only k > n/2 is
solved directly; the lower half follows from the reflection
beta_{n-k+1} = n - beta_k, which makes the symmetry identity exact rather
than a second round-off path.  The module is plain Python: a table holds
tuples of floats.
"""

from __future__ import annotations

import math
import operator

from .binom_exact import log_tail_exact_all
from .errors import DomainError, RangeError, check_count, check_real
from .normal_tail import inverse_psi

__all__ = [
    "CutpointTable",
    "build_table",
    "couple",
    "table_csv",
    "N_MAX_TABLE",
]

N_MAX_TABLE = 4096


class CutpointTable:
    """Cutpoints of one n as tuples of floats over k = 1 .. n (entry
    k - 1), with beta finite and strictly increasing: any other beta is a
    DomainError.  ``cells`` is (-inf, beta_1, ..., beta_n, +inf), built
    once: entry k is the left end of the coupling map's cell k, and
    ``beta`` is its finite part.  A table is read-only, equal only to
    itself, and pickles and copies by rebuilding through the
    constructor."""

    # n; z, psi(z) = -log_tail; beta = n/2 + sqrt(n) z / 2; log_tail; cells
    __slots__ = ("n", "z", "beta", "log_tail", "cells")

    def __init__(self, n: int, z, beta, log_tail):
        # couple clamps k to n and indexes the cells by it, so n is a
        # Python int and each tuple holds n entries
        n = check_count("n", n, 1, N_MAX_TABLE, above=RangeError)
        init = object.__setattr__
        init(self, "n", n)
        for name, a in (("z", z), ("beta", beta), ("log_tail", log_tail)):
            a = tuple(a)
            if len(a) != n:
                raise DomainError(f"{name} must hold n = {n} entries, "
                                  f"got {len(a)}")
            init(self, name, a)
        cells = (-math.inf, *self.beta, math.inf)
        # couple's walk stops only between strictly increasing cells; nan
        # and +-inf fail the comparison too
        if not all(map(operator.lt, cells, cells[1:])):
            raise DomainError("beta must be finite and strictly increasing")
        init(self, "cells", cells)

    def __setattr__(self, name, value):
        raise AttributeError(f"CutpointTable is read-only: {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CutpointTable is read-only: {name!r}")

    def __reduce__(self):
        return type(self), (self.n, self.z, self.beta, self.log_tail)

    @property
    def betas(self) -> tuple[float, ...]:
        """beta_1, ..., beta_n: the tuple ``beta``.  An alias whose one
        reader is perfbench/couple_stream.py; it goes when that reads
        ``beta``."""
        return self.beta


def build_table(n: int) -> CutpointTable:
    """Cutpoints for all k = 1..n from the exact big-integer tails."""
    n = check_count("n", n, 1, N_MAX_TABLE, above=RangeError)
    log_tail = log_tail_exact_all(n)[1:]

    # upper half k > n/2 solved directly (tail <= 1/2), lower half mirrored
    m, root_n = n // 2, math.sqrt(n)
    z_up = [inverse_psi(-t) for t in log_tail[m:]]
    beta_up = [n / 2 + root_n * z / 2 for z in z_up]
    # k = m, m - 1, ..., 1 mirror the entries of n - m + 1, ..., n
    z = [-v for v in reversed(z_up[n - 2 * m:])] + z_up
    beta = [n - b for b in reversed(beta_up[n - 2 * m:])] + beta_up
    return CutpointTable(n=n, z=z, beta=beta, log_tail=log_tail)


def couple(table: CutpointTable, y: float) -> int:
    """Map a normal draw y to the coupled Binomial value: the unique k with
    beta_k < y <= beta_{k+1} (left-open cells, sentinels at +-inf).

    The walk starts at round(y), clamped to [0, n], and steps down, then
    up, to the cell that holds y.  Tusnady's inequality |k - y| <= 1 +
    Z^2/8, Z = 2(y - n/2)/sqrt(n), puts k within 1.5 + Z^2/8 cells of the
    start, so a draw a few standard deviations from n/2 costs two
    comparisons, or three when it starts one cell off.  Only y in
    (n, beta_n] or its mirror [beta_1, 0), more than sqrt(n) standard
    deviations out, walk far: 197 cells from y = n + 1 at n = 4096.  y is
    read by errors.check_real, and math.floor refuses nan and +-inf."""
    if y.__class__ is not float:
        y = check_real("y", y)
    try:
        k = math.floor(y + 0.5)
    except (ValueError, OverflowError):
        raise DomainError(f"y must be finite, got {y!r}") from None
    if k < 0:
        k = 0
    elif k > table.n:
        k = table.n
    cells = table.cells
    # the cells strictly increase between the infinite sentinels, so both
    # loops stop, at the one k with cells[k] < y <= cells[k + 1]; a tie
    # y == beta_j = cells[j] lands in the lower cell j - 1 (left-open)
    while cells[k] >= y:
        k -= 1
    while cells[k + 1] < y:
        k += 1
    return k


def table_csv(table: CutpointTable) -> str:
    """The table as CSV with LF line ends and 17-significant-digit floats;
    the epsilon column is (2(k-1) - (n-1)) / (n-1), 0 by convention at
    n = 1."""
    n = table.n
    epsilon = ([(2 * (k - 1) - (n - 1)) / (n - 1) for k in range(1, n + 1)]
               if n > 1 else [0.0])
    cols = (epsilon, table.z, table.beta, table.log_tail)
    lines = ["n,k,epsilon,z,beta,log_tail"]
    lines.extend(f"{n},{k},{e:.17g},{z:.17g},{b:.17g},{t:.17g}"
                 for k, e, z, b, t in zip(range(1, n + 1), *cols))
    lines.append("")
    return "\n".join(lines)
