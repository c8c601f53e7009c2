"""Scalar reference formulas the tests hold the package against.

No command, sweep or coupling call of the package runs these; each is the
plain per-point form of a quantity whose fast path lives in the package,
or a formula of the paper that the tests check directly.
"""

import math

from bincoupling.approx import s_eps
from bincoupling.binom_exact import tail_numerator
from bincoupling.errors import DomainError, RangeError
from bincoupling.normal_tail import SQRT_2_OVER_PI, X_MAX, X_MIN, psi, rho

SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2 = 1.0 / math.sqrt(2.0)
LOG_2 = math.log(2.0)


def _finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    return x


# normal tail

def phi(x: float) -> float:
    """Standard normal density."""
    x = _finite(x)
    return math.exp(-0.5 * x * x) / SQRT_2PI


def upper_tail(x: float) -> float:
    """P{Z > x}.  Underflows gracefully to 0 for x beyond ~38; callers that
    need the deep tail work with psi instead."""
    x = _finite(x)
    return 0.5 * math.erfc(x * INV_SQRT_2)


def inv_tail_asymptotic(p: float) -> float:
    """First-order asymptotic inverse of the upper tail for small p:
    y - log(y)/y with y = sqrt(2 log(1/p)).  O(1/y) accuracy only; the
    Newton seed of inverse_psi_newton for L > 2.5 is the same formula in L."""
    p = float(p)
    if not (0.0 < p < 0.1):
        raise DomainError(f"p must lie in (0, 0.1), got {p!r}")
    y = math.sqrt(2.0 * math.log(1.0 / p))
    return y - math.log(y) / y


def inverse_psi_newton(L: float) -> float:
    """Solve psi(x) = L for x, to |psi(x) - L| <= 1e-10 * max(1, L).

    Safeguarded Newton iteration x <- x - (psi(x) - L)/rho(x); psi is convex
    (its derivative rho is increasing) so Newton from a bracketed seed
    converges monotonically, with bisection as the fallback.  One point at
    a time on the scalar psi and rho: the reference the package's vector
    solve, normal_tail.inverse_psi_array, is tested against.
    """
    L = float(L)
    if not (L > 0.0) or not math.isfinite(L):
        raise DomainError(f"L must be positive and finite, got {L!r}")
    psi_max = psi(X_MAX)
    if L > psi_max:
        raise RangeError(f"L = {L} exceeds psi({X_MAX}) = {psi_max}")

    if L >= LOG_2:
        # the root lies in [0, X_MAX]; no iterate may leave the envelope
        lo, hi = 0.0, min(math.sqrt(2.0 * L) + 2.0, X_MAX)
        if L > 2.5:
            # the first-order asymptotic inverse of the tail at p = e^{-L},
            # stated in L so it works even where e^{-L} underflows
            y = math.sqrt(2.0 * L)
            x = y - math.log(y) / y
        else:
            # Newton's first step from x = 0, the root at L = log 2: psi is
            # convex, so it lands on the root or right of it
            x = (L - LOG_2) / SQRT_2_OVER_PI
    else:
        # mirrored bracket: x < 0, lower tail P{Z <= x} = 1 - e^{-L}
        p_low = -math.expm1(-L)
        lo = max(-(math.sqrt(2.0 * math.log(1.0 / p_low)) + 2.0), X_MIN)
        hi = 0.0
        x = -0.5
    x = min(max(x, lo), hi)

    tol = 1e-12 * max(1.0, L)
    for _ in range(200):
        f = psi(x) - L
        if f > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        if abs(f) <= tol:
            return x
        step = f / rho(x)
        x_new = x - step
        if not (lo <= x_new <= hi):
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    if abs(psi(x) - L) > 1e-10 * max(1.0, L):
        raise RangeError(f"inverse_psi_newton failed to converge for L = {L}")
    return x


# exact Binomial tails

def _log_ratio(num: int, n: int) -> float:
    """log(num / 2^n) for an integer num > 0, as the log of num's leading
    53 bits scaled into [1, 2) plus its binary exponent minus n, times
    log 2: the per-number form of binom_exact._log_ratios."""
    e = num.bit_length() - 1
    mant = (num >> (e - 52) if e > 52 else num << (52 - e)) / 2.0 ** 52
    return math.log(mant) + (e - n) * LOG_2


def log_tail_exact(n: int, k: int) -> float:
    """log P{Bin(n,1/2) >= k}, from the exact numerator
    tail_numerator(n, k)."""
    return _log_ratio(tail_numerator(n, k), n)


# expansion

def h_aux(s: float, epsilon: float) -> float:
    """Centered exponent of the beta integrand,
    h(s) = [(1+e) log(1-s) + (1-e) log(1+s)] / 2: zero at s = 0, concave
    and decreasing on [0, 1)."""
    s = float(s)
    e = float(epsilon)
    if not (0.0 <= s < 1.0):
        raise DomainError(f"s must be in [0, 1), got {s!r}")
    if not (0.0 <= e <= 1.0):
        raise DomainError(f"epsilon must be in [0, 1], got {epsilon!r}")
    return 0.5 * ((1.0 + e) * math.log1p(-s) + (1.0 - e) * math.log1p(s))


def eq4_extreme(n: int, B: int) -> float:
    """Main term of the extreme-cutpoint asymptotic:
    beta_{n-B} ~ (1+c)n/2 - (1+2B) log(n)/(4c) with c = s_eps(1)."""
    if B not in (1, 2, 3):
        raise DomainError(f"B must be 1, 2 or 3, got {B}")
    if n < 64 or n - B <= n / 2:
        raise DomainError(f"n too small for B = {B}, got n = {n}")
    c = s_eps(1.0)
    return (1.0 + c) / 2.0 * n - (1.0 + 2.0 * B) * math.log(n) / (4.0 * c)


def eq5_bounds(n: int, k: int, beta_k: float,
               constants: tuple[float, float, float, float]) -> bool:
    """Continuity-corrected cutpoint window with a cubic center term:

        -C1/sqrt(n) + C2 |k-n/2|^3/n^2
            <= beta_k - k + 1/2 <=
        C3 log(n)/sqrt(n) + C4 |k-n/2|^3/n^2
    """
    if not (n / 2 <= k <= n):
        raise DomainError(f"k must satisfy n/2 <= k <= n, got k = {k}")
    c1, c2, c3, c4 = (float(c) for c in constants)
    if min(c1, c2, c3, c4) <= 0.0:
        raise DomainError("all four constants must be positive")
    t = abs(k - n / 2) ** 3 / n ** 2
    d = float(beta_k) - k + 0.5
    sqrt_n = math.sqrt(n)
    return (-c1 / sqrt_n + c2 * t <= d <= c3 * math.log(n) / sqrt_n + c4 * t)
