"""Exact symmetric-Binomial tails, in plain Python.

A tail probability P{Bin(n, 1/2) >= k} is an exact big integer numerator
over 2^n.  An upper tail, k > n/2, takes its double-precision natural log
from that integer, the numerators of one n coming from one integer
recurrence run down from k = n to the centre; every lower tail 1 - u, k in
1..n/2, is log1p(-u) of its mirror tail u < 1/2.  The logs of one n come
as a list of floats.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice

from .errors import check_count
from .normal_tail import LOG_2

__all__ = [
    "tail_numerator",
    "log_tail_exact_all",
]

N_MAX_EXACT = 1 << 20


def tail_numerator(n: int, k: int) -> int:
    """Sum_{j>=k} C(n,j), the exact numerator of P{Bin(n,1/2) >= k} over
    2^n."""
    n = check_count("n", n, 1, N_MAX_EXACT)
    k = check_count("k", k, 0, n)
    return deque(islice(_numerators(n), n - k + 1), maxlen=1)[0]


def log_tail_exact_all(n: int) -> list[float]:
    """All log tails for a fixed n as a list of n + 1 floats; entry [k] is
    log P{Bin(n,1/2) >= k}, the log of tail_numerator(n, k) over 2^n.

    One big-integer recurrence runs the numerators down from k = n to the
    centre, k = h = n//2 + 1, and the upper half takes the log of its
    numerator.  Every lower tail, k = 1..h - 1, is 1 - u with mirror u =
    P{X >= n - k + 1} < 1/2, taken as log1p(-u) from the log of u (Maechler
    2012), so no complement 2^n - num is formed and no numerator below h is
    drawn.  Against 50 digits a lower tail is within 1.3e-13 relative at
    every n <= 199 and n = 257, 1000, 1001, 2048, 4095 and 4096, over the
    tails above the smallest normal double.  The numerators are streamed:
    each one's log is taken by _log_ratios as it is made, and only one
    numerator is held at a time."""
    n = check_count("n", n, 1, N_MAX_EXACT)
    h = n // 2 + 1
    # k = h, h + 1, ..., n, the reverse of the order the numerators run in
    upper = list(_log_ratios(islice(_numerators(n), n - h + 1), n))
    upper.reverse()
    # k = 1, 2, ..., h - 1 from their mirrors, the tails of k = n, n - 1, ...
    return [0.0, *[math.log1p(-math.exp(v))
                   for v in islice(reversed(upper), h - 1)], *upper]


def _log_tail(n: int, k: int, num: int) -> float:
    """log P{Bin(n,1/2) >= k} from its numerator num = tail_numerator(n, k),
    by the rule of log_tail_exact_all, to the bit: a lower tail, k in
    1..n//2, is log1p(-u) of its mirror tail u, whose numerator is
    2^n - num."""
    if 1 <= k <= n // 2:
        return math.log1p(-math.exp(next(_log_ratios([(1 << n) - num], n))))
    return next(_log_ratios([num], n))


def _numerators(n: int):
    """The numerators Sum_{j>=k} C(n,j) for k = n, n - 1, ..., 0, by one
    recurrence, as they are asked for."""
    num = c = 1
    yield num
    for k in range(n - 1, -1, -1):
        c = c * (k + 1) // (n - k)
        num += c
        yield num


def _log_ratios(nums, n: int):
    """log(num / 2^n) for each integer num > 0 of ``nums``, as it is asked
    for: math.log of num's leading 53 bits scaled into [1, 2) by an exact
    power of two, plus (e - n) log 2, e being num's binary exponent.

    Taking log(num) - n log 2 instead would subtract two numbers near
    0.69 n and lose about ulp(0.69 n); this way a power of two (the tails
    1, 1/2 and 2^-n among them) gets its log exactly."""
    for num in nums:
        e = num.bit_length() - 1
        top = num >> (e - 52) if e > 52 else num << (52 - e)
        yield math.log(top / 2.0 ** 52) + (e - n) * LOG_2
