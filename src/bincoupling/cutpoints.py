"""Quantile coupling of Bin(n, 1/2) with N(n/2, n/4).

The cutpoints beta_1 < ... < beta_n are defined by matching tails,

    P{Bin(n, 1/2) >= k} = P{Y > beta_k},   Y ~ N(n/2, n/4),

with sentinels beta_0 = -inf and beta_{n+1} = +inf.  In standardized units
z_k = 2(beta_k - n/2)/sqrt(n) this is psi(z_k) = -log tail, solved by
Newton's method on the convex psi, run on every k of one n at once.  Only
k > n/2 is solved directly; the lower half follows from the reflection
beta_{n-k+1} = n - beta_k, which makes the symmetry identity exact rather
than a second round-off path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .binom_exact import log_tail_exact_all
from .errors import DomainError, RangeError, check_count
from .normal_tail import inverse_psi_array

__all__ = [
    "CutpointTable",
    "build_table",
    "couple",
    "table_csv",
    "N_MAX_TABLE",
]

N_MAX_TABLE = 4096


@dataclass(frozen=True, eq=False)
class CutpointTable:
    """Cutpoints of one n as arrays over k = 1 .. n (entry k - 1), with
    beta strictly increasing."""

    n: int
    z: np.ndarray     # standardized cutpoint, psi(z) = -log_tail
    beta: np.ndarray  # n/2 + sqrt(n) z / 2
    log_tail: np.ndarray
    # beta as Python floats, built once for the coupling map's bisection
    betas: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        for a in (self.z, self.beta, self.log_tail):
            a.flags.writeable = False
        object.__setattr__(self, "betas", tuple(self.beta.tolist()))


def build_table(n: int) -> CutpointTable:
    """Cutpoints for all k = 1..n from the exact big-integer tails."""
    n = check_count("n", n, 1, N_MAX_TABLE, above=RangeError)
    log_tail = log_tail_exact_all(n)[1:]

    # upper half k > n/2 solved directly (tail <= 1/2), lower half mirrored
    m = n // 2
    z_up = inverse_psi_array(-log_tail[m:])
    beta_up = n / 2 + math.sqrt(n) * z_up / 2
    # k = m, m - 1, ..., 1 mirror the entries of n - m + 1, ..., n
    z = np.concatenate([-z_up[n - 2 * m:][::-1], z_up])
    beta = np.concatenate([n - beta_up[n - 2 * m:][::-1], beta_up])
    return CutpointTable(n=n, z=z, beta=beta, log_tail=log_tail)


def couple(table: CutpointTable, y: float) -> int:
    """Map a normal draw y to the coupled Binomial value: the unique k with
    beta_k < y <= beta_{k+1} (left-open cells, sentinels at +-inf)."""
    y = float(y)
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    # bisect_left counts the cutpoints strictly below y, which is exactly k;
    # a tie y == beta_j lands in the lower cell (left-open convention)
    return bisect_left(table.betas, y)


def table_csv(table: CutpointTable) -> str:
    """The table as CSV with LF line ends and 17-significant-digit floats;
    the epsilon column is (2(k-1) - (n-1)) / (n-1), 0 by convention at
    n = 1."""
    n = table.n
    ks = np.arange(1, n + 1)
    epsilon = (2 * (ks - 1) - (n - 1)) / (n - 1) if n > 1 else np.zeros(1)
    cols = (epsilon.tolist(), table.z.tolist(), table.betas,
            table.log_tail.tolist())
    lines = ["n,k,epsilon,z,beta,log_tail"]
    lines.extend(f"{n},{k},{e:.17g},{z:.17g},{b:.17g},{t:.17g}"
                 for k, e, z, b, t in zip(range(1, n + 1), *cols))
    lines.append("")
    return "\n".join(lines)
