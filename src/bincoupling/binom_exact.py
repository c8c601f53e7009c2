"""Exact symmetric-Binomial tails and Stirling corrections.

A tail probability P{Bin(n, 1/2) >= k} is an exact big integer numerator
over 2^n.  An upper tail, k > n/2, takes its double-precision natural log
from that integer, the numerators of one n coming from one integer
recurrence run down from k = n to the centre; every lower tail 1 - u, k in
1..n/2, is log1p(-u) of its mirror tail u < 1/2.

The Stirling corrections lambda_n come as one table per n, by two
closed-form routes: the six-term Stirling series for n >= 9 and
math.lgamma minus the Stirling lead below.
Measured against a 50-digit reference over n <= 4096, their largest
absolute errors are 2.4e-15 (at n = 9) and 1.9e-15, and every value lies
strictly inside Robbins' bracket 1/(12n+1) < lambda_n < 1/(12n).
"""

from __future__ import annotations

import math
import operator
from collections import deque
from itertools import islice

import numpy as np

from .errors import check_count
from .normal_tail import LOG_2, LOG_SQRT_2PI

__all__ = [
    "tail_numerator",
    "log_tail_exact_all",
    "lambda_table",
]

N_MAX_EXACT = 1 << 20

# B_2m / (2m (2m - 1)) for m = 1..6, from B_2..B_12 = 1/6, -1/30, 1/42,
# -1/30, 5/66, -691/2730: the coefficients of n^-(2m-1) in the Stirling
# series
_STIRLING_COEFFS = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
                    1.0 / 1188.0, -691.0 / 360360.0)
# below this n lgamma is the closer route (at n = 8 1.6e-15 off against the
# series' 1.1e-14; at n = 9 3.3e-15 against 2.4e-15, 50 digits)
_SERIES_MIN_N = 9
# numerators log_tail_exact_all takes the logs of at a time
_BLOCK = 128


def tail_numerator(n: int, k: int) -> int:
    """Sum_{j>=k} C(n,j), the exact numerator of P{Bin(n,1/2) >= k} over
    2^n."""
    n = check_count("n", n, 1, N_MAX_EXACT)
    k = check_count("k", k, 0, n)
    return deque(islice(_numerators(n), n - k + 1), maxlen=1)[0]


def log_tail_exact_all(n: int) -> np.ndarray:
    """All log tails for a fixed n as a float64 array of length n + 1;
    entry [k] is log P{Bin(n,1/2) >= k}, the log of tail_numerator(n, k)
    over 2^n, each entry written once.

    One big-integer recurrence runs the numerators down from k = n to the
    centre, k = h = n//2 + 1, and the upper half takes the log of its
    numerator.  Every lower tail, k = 1..h - 1, is 1 - u with mirror u =
    P{X >= n - k + 1} < 1/2, taken as log1p(-u) from the log of u (Maechler
    2012), so no complement 2^n - num is formed and no numerator below h is
    drawn.  Against 50 digits a lower tail is within 1.3e-13 relative at
    every n <= 199 and n = 257, 1000, 1001, 2048, 4095 and 4096, over the
    tails above the smallest normal double.  The numerators come in blocks
    whose logs are taken column-wise by _log_ratios, and each block is
    released once the next is made, so at most two blocks, 2 * _BLOCK
    numerators, are held at once."""
    n = check_count("n", n, 1, N_MAX_EXACT)
    h = n // 2 + 1
    nums = _numerators(n)
    out = np.empty(n + 1)
    out[0] = 0.0
    for k in range(n, h - 1, -_BLOCK):
        block = list(islice(nums, min(_BLOCK, k - h + 1)))  # num_k, ...
        out[k:k - len(block):-1] = _log_ratios(block, n)
    # k = 1, 2, ..., h - 1 from their mirrors out[n], out[n - 1], ...
    out[1:h] = [math.log1p(-math.exp(v)) for v in out[n:n - h + 1:-1].tolist()]
    return out


def _log_tail(n: int, k: int, num: int) -> float:
    """log P{Bin(n,1/2) >= k} from its numerator num = tail_numerator(n, k),
    by the rule of log_tail_exact_all, to the bit: a lower tail, k in
    1..n//2, is log1p(-u) of its mirror tail u, whose numerator is
    2^n - num."""
    if 1 <= k <= n // 2:
        return math.log1p(-math.exp(_log_ratios([(1 << n) - num], n)[0]))
    return _log_ratios([num], n)[0]


def _numerators(n: int):
    """The numerators Sum_{j>=k} C(n,j) for k = n, n - 1, ..., 0, by one
    recurrence, as they are asked for."""
    num = c = 1
    yield num
    for k in range(n - 1, -1, -1):
        c = c * (k + 1) // (n - k)
        num += c
        yield num


def _log_ratios(nums: list[int], n: int) -> np.ndarray:
    """log(num / 2^n) for every integer num > 0 in ``nums``, by columns:
    the binary exponents e, the leading 53 bits scaled into [1, 2) by an
    exact power of two, math.log of each (np.log's SIMD path may differ in
    the last bit), plus (e - n) log 2.

    Taking log(num) - n log 2 instead would subtract two numbers near
    0.69 n and lose about ulp(0.69 n); this way a power of two (the tails
    1, 1/2 and 2^-n among them) gets its log exactly."""
    e = np.fromiter(map(int.bit_length, nums), np.int64, len(nums)) - 1
    shift = np.maximum(e - 52, 0)
    top = np.fromiter(map(operator.rshift, nums, shift.tolist()), np.float64,
                      len(nums))
    mant = np.ldexp(top, shift - e)
    logs = np.fromiter(map(math.log, mant.tolist()), np.float64, len(nums))
    return logs + (e - n) * LOG_2


def lambda_table(m: int) -> np.ndarray:
    """Stirling corrections lambda_j = log j! - [(j + 1/2) log j - j +
    log sqrt(2 pi)] for j = 0 .. m as one array (entry 0 is nan), in closed
    form, each bracketed by 1/(12j+1) and 1/(12j); absolute error < 2.5e-15.

    For j >= 9 it is the Stirling series (DLMF 5.11.1) truncated after the
    B_12 term; the first omitted term is 2.5e-15 at j = 9 and shrinks
    like j^-13.  For j < 9 it is math.lgamma(j + 1) minus the Stirling lead,
    where log j! < 11 keeps the cancellation error small.
    """
    m = check_count("m", m, 0, N_MAX_EXACT)
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
    s = 0.0
    for c in reversed(_STIRLING_COEFFS):
        s = c + inv2 * s
    return s / n
